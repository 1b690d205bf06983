"""Simple random sampling of triples (Sec 5.1).

The sampler is a DataFrame->DataFrame transformation: draw exactly n
triples without replacement, uniformly over the KG. Implemented as
rand-key + global top-n, which Catalyst executes as TakeOrderedAndProject
(per-partition top-n then merge) — no full shuffle sort.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.stats import Estimate


def srs_sample(kg: DataFrame, n: int, *, seed: int) -> DataFrame:
    """Uniform without-replacement sample of ``n`` triples from ``kg``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (
        kg.withColumn("_r", F.rand(seed))
        .orderBy("_r")
        .limit(n)
        .drop("_r")
    )


def estimate_srs(labels: np.ndarray, *, alpha: float) -> Estimate:
    """Sample-mean estimator mu_hat_s (Eq 5) with Normal-approximation CI.

    Var_hat[mu_hat] = mu_hat (1 - mu_hat) / n, per Sec 5.1.
    """
    y = np.asarray(labels, dtype=np.float64)
    n = y.size
    if n == 0:
        return Estimate(mu_hat=0.0, var_hat=float("inf"), n_units=0, alpha=alpha)
    mu = float(y.mean())
    return Estimate(mu_hat=mu, var_hat=mu * (1.0 - mu) / n, n_units=n, alpha=alpha)


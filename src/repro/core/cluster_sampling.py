"""Cluster sampling designs: RCS, WCS, TWCS (Sec 5.2).

A cluster design draws in the driver, from the cluster sizes M_i that
the evaluation collects once (``subject``, ``size`` of the cluster-stats
table of :mod:`repro.core.cluster_stats`, sorted by subject); Spark only
fetches the drawn clusters' triples. A sample therefore depends only on
(seed, KG content), not on partition layout or shuffle settings.

- ``weighted_cluster_draws``: PPS with replacement (pi_i = M_i / M), a
  uniform u in [0, M) mapped to its cluster by searchsorted over the
  size cumsum, i.e. "pick a uniform random triple, take its cluster".
  It is the one PPS kernel: every cluster trial draws through
  ``repro.sim.mc._pps_draws``, which calls it through this module.
- ``draws_to_triples``: one filtered KG scan returning the drawn
  clusters' triples (subject, predicate, object, label) in a fixed order.
- ``second_stage_sample``: one ``draw_id`` per draw, the primary
  sampling unit (one Evaluation Task each), since WCS/TWCS draw with
  replacement and a cluster may appear in several draws. Each draw keeps
  all its triples (RCS/WCS) or, for TWCS, min(M_i, m) of them without
  replacement, picked by position and never by label.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.stats import Estimate, cluster_var_hat


def weighted_cluster_draws(cum: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k PPS-with-replacement cluster indices into the sizes whose cumsum is ``cum``.

    Hansen-Hurwitz design: each draw independently selects cluster i
    with probability M_i / M.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    u = rng.random(k) * cum[-1]
    return np.searchsorted(cum, u, side="right")


def draws_to_triples(kg: DataFrame, subjects: np.ndarray) -> pd.DataFrame:
    """All triples of the clusters ``subjects``, fetched in one Spark job.

    Rows are sorted by (subject, predicate, object), so a row's position
    depends on the KG's content only.

    The filter is one SQL expression, ``subject IN (...)``, built from the
    distinct subjects in the driver and sent in one call, so the fetch
    sends the same py4j commands whatever the number of draws. ``isin``
    would send each subject as its own literal, four py4j round trips per
    subject; Spark's optimizer turns both into the same ``INSET`` filter.
    """
    wanted = np.unique(subjects)
    if wanted.size == 0:
        raise ValueError("no subjects to fetch")
    pdf = (
        kg.filter(f"subject IN ({', '.join(map(str, wanted.tolist()))})")
        .select("subject", "predicate", "object", "label")
        .toPandas()
    )
    return pdf.sort_values(["subject", "predicate", "object"], ignore_index=True)


def second_stage_sample(
    triples: pd.DataFrame,
    subjects: np.ndarray,
    m: int | None,
    rng: np.random.Generator,
) -> pd.DataFrame:
    """Per draw of ``subjects``, its rows of ``triples``, tagged by draw_id
    (0, 1, ... in draw order).

    ``triples`` is ``draws_to_triples`` output. With ``m`` None a draw
    keeps its whole cluster (RCS/WCS); otherwise it keeps the TWCS
    second-stage sample ``rng.permutation(M_i)[:min(M_i, m)]``, an
    independent SRS without replacement per draw.
    """
    if m is not None and m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    col = triples["subject"].to_numpy()
    starts = np.searchsorted(col, subjects, side="left")
    ends = np.searchsorted(col, subjects, side="right")
    rows = [
        np.arange(a, b) if m is None else a + rng.permutation(b - a)[:m]
        for a, b in zip(starts, ends)
    ]
    counts = [len(r) for r in rows]
    sample = triples.iloc[np.concatenate(rows)].reset_index(drop=True)
    sample.insert(0, "draw_id", np.repeat(np.arange(len(rows)), counts))
    return sample


def estimate_cluster_means(mu_per_draw: np.ndarray, *, alpha: float) -> Estimate:
    """WCS (Eq 8) / TWCS (Eq 9) estimator: mean of per-draw cluster
    accuracies, Hansen-Hurwitz variance from their spread."""
    v = np.asarray(mu_per_draw, dtype=np.float64)
    n = v.size
    if n == 0:
        return Estimate(0.0, float("inf"), 0, alpha)
    return Estimate(
        mu_hat=float(v.mean()),
        var_hat=cluster_var_hat(v),
        n_units=n,
        alpha=alpha,
    )


def estimate_rcs(
    tau_per_draw: np.ndarray, *, n_clusters: int, n_triples: int, alpha: float
) -> Estimate:
    """RCS estimator mu_hat_r (Eq 7): (N / M n) sum tau_{I_k}.

    The mean of the per-draw values v_k = (N/M) tau_{I_k}, with the
    variance from their spread, per the CI below Eq 7.
    """
    v = (n_clusters / n_triples) * np.asarray(tau_per_draw, dtype=np.float64)
    return estimate_cluster_means(v, alpha=alpha)

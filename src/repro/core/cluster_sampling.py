"""Cluster sampling designs: RCS, WCS, TWCS (Sec 5.2).

All samplers are DataFrame->DataFrame transformations over

- ``clusters``: the cluster-stats DataFrame (subject, size, tau) from
  :mod:`repro.core.cluster_stats`, and
- ``kg``: the triple-level DataFrame (subject, predicate, object, label).

Samples come back with a ``draw_id`` column identifying the primary
sampling unit (one Evaluation Task per draw), since WCS/TWCS draw
clusters *with replacement* and a cluster may appear in several draws.

PPS draws (probability proportional to cluster size, pi_i = M_i / M) are
implemented distributively: a single-pass window cumulative sum over the
cluster-stats table assigns each cluster the interval
[cum_start, cum_start + M_i), and a small DataFrame of n uniform draws
in [0, M) is range-joined against those intervals (the draws side is
broadcast, so this is one scan of the cluster table). This is exactly
"pick a uniform random triple, take its cluster".
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.stats import Estimate, cluster_var_hat


def _with_intervals(clusters: DataFrame) -> DataFrame:
    """Attach [cum_start, cum_end) triple-count intervals per cluster."""
    w = Window.orderBy("subject").rowsBetween(Window.unboundedPreceding, Window.currentRow)
    return clusters.withColumn("cum_end", F.sum("size").over(w)).withColumn(
        "cum_start", F.col("cum_end") - F.col("size")
    )


def weighted_cluster_draws(
    clusters: DataFrame, n: int, *, seed: int, draw_id_offset: int = 0
) -> DataFrame:
    """n PPS-with-replacement cluster draws: (draw_id, subject, size, tau).

    Hansen-Hurwitz design: each draw independently selects cluster i
    with probability M_i / M.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    spark = clusters.sparkSession
    total = clusters.agg(F.sum("size")).collect()[0][0]
    if total is None:
        raise ValueError("empty cluster table")
    draws = (
        spark.range(n)
        .select((F.col("id") + F.lit(draw_id_offset)).alias("draw_id"))
        .withColumn("_u", F.rand(seed) * F.lit(float(total)))
    )
    iv = _with_intervals(clusters)
    return (
        iv.join(
            F.broadcast(draws),
            (draws["_u"] >= iv["cum_start"]) & (draws["_u"] < iv["cum_end"]),
        )
        .select("draw_id", "subject", "size", "tau")
    )


def draws_to_triples(kg: DataFrame, draws: DataFrame) -> DataFrame:
    """All triples of the drawn clusters, tagged by draw_id (RCS/WCS)."""
    d = F.broadcast(draws.select("draw_id", "subject"))
    return kg.join(d, "subject").select("draw_id", "subject", "predicate", "object", "label")


def second_stage_sample(kg: DataFrame, draws: DataFrame, m: int, *, seed: int) -> DataFrame:
    """TWCS second stage: per draw, SRS without replacement of <= m triples.

    Each draw gets an independent within-cluster sample: the rand key is
    computed per (draw_id, triple) row *after* the join, and row_number
    is partitioned by draw_id.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    joined = draws_to_triples(kg, draws).withColumn("_r", F.rand(seed))
    w = Window.partitionBy("draw_id").orderBy("_r")
    return (
        joined.withColumn("_rn", F.row_number().over(w))
        .filter(F.col("_rn") <= m)
        .drop("_r", "_rn")
    )


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

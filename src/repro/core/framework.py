"""Iterative static-evaluation framework (Sec 4, Fig 2).

Sample Collector -> Sample Pool -> Estimation -> Quality Control, looped
until the margin of error drops to the user threshold. ``sample_until``
is that loop, and the only copy of its stopping rule: the Spark
evaluations here, the Monte-Carlo trials (``repro.sim.mc``) and the
evolving evaluators (``repro.evolving``) each supply just a ``draw``
step (what to sample, how to charge its cost) and an ``estimate``.

Here the collector is one of the Sec 5 sampling designs over a Spark KG;
annotation goes through the SimulatedAnnotator (which charges the Eq 4
cost model); estimation runs in the driver on the (small) accumulated
sample.

Batching conventions (calibrated against the paper's reported sample
sizes; see EXPERIMENTS.md):

- SRS draws triples in batches of ``batch_triples`` (default 25). All
  batches come from one rand-keyed shuffled prefix of the KG, so the
  pooled sample is a without-replacement SRS of its total size.
- RCS/WCS/TWCS are the Monte-Carlo trials ``mc.rcs_trial`` and
  ``mc.twcs_trial`` run on ``_SparkClusters``, a population that
  collects the cluster sizes once per evaluation and whose second stage
  fetches and annotates each batch's drawn clusters in one Spark job
  (``repro.core.cluster_sampling``). The draws, the batch sizes, the
  estimators and the stopping rule are the trials' own, from one
  ``np.random.default_rng(seed)`` per evaluation.

The stopping rule trusts the Normal-approximation MoE only after
``min_units`` primary units, the paper's CLT rule-of-thumb guard.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.annotate.annotator import SimulatedAnnotator
from repro.core import cluster_sampling as cs
from repro.core.cluster_stats import cluster_stats_df
from repro.core.srs import estimate_srs, srs_sample
from repro.core.stats import Estimate


@dataclass(frozen=True)
class EvalConfig:
    alpha: float = 0.05
    eps: float = 0.05
    batch_triples: int = 25  # SRS batch size
    batch_clusters: int = 20  # cluster-design batch size
    min_triples: int = 25  # SRS units before the Normal MoE is trusted
    min_draws: int = 20  # cluster draws before the Normal MoE is trusted
    max_units: int = 100_000  # hard safety stop


@dataclass(frozen=True)
class EvalResult:
    """One evaluation: a Spark ``evaluate_static`` run or a Monte-Carlo trial."""

    estimate: Estimate
    hours: float
    n_draws: int  # primary sampling units (triples for SRS)
    n_triples: int  # triples annotated
    n_batches: int
    stop_reason: str  # "moe", "max_units" or "exhausted" (see sample_until)
    n_entities: int  # entity identifications charged (Eq 4's |E'|)

    @property
    def mu_hat(self) -> float:
        return self.estimate.mu_hat

    @property
    def moe(self) -> float:
        return self.estimate.moe


def sample_until(
    cfg: EvalConfig,
    min_units: int,
    estimate: Callable[[], Estimate],
    draw: Callable[[], bool],
) -> tuple[Estimate, int, str]:
    """The Fig 2 loop: estimate, stop if the sample is good enough, else draw.

    Stops with reason "moe" once ``min_units`` units give MoE <= eps,
    "max_units" at the hard safety stop, and "exhausted" when ``draw``
    returns False because the population has nothing left to sample.
    Returns the last estimate, the batches drawn and the stop reason.
    """
    n_batches = 0
    while True:
        est = estimate()
        if est.n_units >= min_units and est.moe <= cfg.eps:
            return est, n_batches, "moe"
        if est.n_units >= cfg.max_units:
            return est, n_batches, "max_units"
        if not draw():
            return est, n_batches, "exhausted"
        n_batches += 1


def _shuffled_prefix(df: DataFrame, n: int, *, seed: int) -> pd.DataFrame:
    """First ``n`` rows of a deterministic rand(seed) ordering of ``df``.

    Re-invoking with a larger ``n`` extends the same ordering (rand(seed)
    is deterministic for a fixed plan), so iterative growth stays a
    without-replacement sample.
    """
    return srs_sample(df, n, seed=seed).toPandas()


def evaluate_static(
    kg: DataFrame,
    *,
    design: str,
    m: int | None = None,
    config: EvalConfig = EvalConfig(),
    seed: int = 0,
    annotator: SimulatedAnnotator | None = None,
) -> EvalResult:
    """Run the Fig 2 loop with the given sampling design on a Spark KG.

    design in {"srs", "rcs", "wcs", "twcs"}; ``m`` is the TWCS
    second-stage cap (required for "twcs").
    """
    if design not in {"srs", "rcs", "wcs", "twcs"}:
        raise ValueError(f"unknown design {design!r}")
    if design == "twcs" and (m is None or m < 1):
        raise ValueError("twcs requires m >= 1")
    ann = annotator or SimulatedAnnotator()

    if design == "srs":
        return _run_srs(kg, config=config, seed=seed, ann=ann)
    return _run_cluster(kg, design=design, m=m, config=config, seed=seed, ann=ann)


def _run_srs(kg: DataFrame, *, config: EvalConfig, seed: int, ann: SimulatedAnnotator) -> EvalResult:
    total = kg.count()
    labels: list[float] = []
    prefix = _shuffled_prefix(kg, min(total, 16 * config.batch_triples), seed=seed)

    def draw() -> bool:
        nonlocal prefix
        lo, hi = len(labels), min(len(labels) + config.batch_triples, total)
        if lo >= total:
            return False  # exact census
        while hi > len(prefix) and len(prefix) < total:
            prefix = _shuffled_prefix(kg, min(total, 2 * max(hi, len(prefix))), seed=seed)
        labels.extend(ann.annotate_triples(prefix.iloc[lo:hi])["label"].tolist())
        return True

    est, n_batches, reason = sample_until(
        config,
        config.min_triples,
        lambda: estimate_srs(np.asarray(labels, dtype=np.float64), alpha=config.alpha),
        draw,
    )
    n = est.n_units
    return EvalResult(est, ann.hours, n, n, n_batches, reason, ann.ledger.n_identifications)


class _SparkClusters:
    """A Spark KG as a cluster population of the Monte-Carlo trials.

    Holds (subject, M_i), collected once per evaluation and sorted in the
    driver so that the draws depend on the KG's content only, not on its
    partitioning. A batch's second stage is one filtered KG fetch of the
    drawn clusters, their rows picked by position, and one annotation.
    """

    def __init__(self, kg: DataFrame, ann: SimulatedAnnotator):
        stats = cluster_stats_df(kg).toPandas().sort_values("subject")
        self.kg, self.ann = kg, ann
        self.subjects = stats["subject"].to_numpy(np.int64)
        self.sizes = stats["size"].to_numpy(np.int64)
        self.n_clusters, self.n_triples = len(self.sizes), int(self.sizes.sum())

    def second_stage(self, ci, m: int | None, rng) -> tuple[np.ndarray, np.ndarray]:
        """(triples annotated, triples correct) per draw of clusters ``ci``."""
        drawn = self.subjects[ci]
        sample = cs.second_stage_sample(cs.draws_to_triples(self.kg, drawn), drawn, m, rng)
        labels = self.ann.annotate_tasks(sample).groupby("draw_id")["label"]
        return labels.size().to_numpy(np.int64), labels.sum().to_numpy(np.int64)


def _run_cluster(
    kg: DataFrame,
    *,
    design: str,
    m: int | None,
    config: EvalConfig,
    seed: int,
    ann: SimulatedAnnotator,
) -> EvalResult:
    from repro.sim import mc  # mc imports this module

    pop = _SparkClusters(kg, ann)
    rng = np.random.default_rng(seed)
    if design == "rcs":
        res = mc.rcs_trial(pop, rng, config)
    else:
        res = mc.twcs_trial(pop, m if design == "twcs" else None, rng, config)
    return replace(res, hours=ann.hours)  # the annotator's own cost parameters

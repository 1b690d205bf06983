"""Iterative static-evaluation framework (Sec 4, Fig 2).

Sample Collector -> Sample Pool -> Estimation -> Quality Control, looped
until the margin of error drops to the user threshold. ``sample_until``
is that loop, and the only copy of its stopping rule: the Spark
evaluations here, the Monte-Carlo trials (``repro.sim.mc``) and the
evolving evaluators (``repro.evolving``) each supply just a ``draw``
step and an ``estimate``. Each draw reports its batch's entities
identified and triples annotated; the loop adds them up and charges the
Eq 4 cost model once (``DEFAULT_COST``), in the ``EvalResult`` it
returns.

Here the collector is one of the Sec 5 sampling designs over a Spark KG;
the SimulatedAnnotator reveals the drawn triples' labels; estimation
runs in the driver on the (small) accumulated sample.

Batching conventions (calibrated against the paper's reported sample
sizes; see EXPERIMENTS.md):

- SRS draws triples in batches of ``batch_triples`` (default 25), sliced
  off one rand-keyed prefix of the KG fetched once (``_run_srs`` sizes
  it), so the pooled sample is a without-replacement SRS of its total
  size. A subject is identified once, in the first batch that draws it
  (Sec 5.1). The KG is never counted: a short fetch is the whole KG.
- RCS/WCS/TWCS are the Monte-Carlo trials ``mc.rcs_trial`` and
  ``mc.twcs_trial`` run on ``_SparkClusters``, a population that
  collects the cluster sizes (the cluster index) and whose second stage
  fetches and annotates each batch's drawn clusters in one Spark job
  (``repro.core.cluster_sampling``). The index is collected once per
  cached KG DataFrame, not once per evaluation, so a repeat evaluation
  of a cached KG runs one Spark job per batch. The draws, the batch
  sizes, the estimators and the stopping rule are the trials' own, from
  one ``np.random.default_rng(seed)`` per evaluation.

The stopping rule trusts the Normal-approximation MoE only after
``min_units`` primary units, the paper's CLT rule-of-thumb guard.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.annotate.annotator import SimulatedAnnotator
from repro.core import cluster_sampling as cs
from repro.core.cluster_stats import cluster_stats_df
from repro.core.cost import DEFAULT_COST
from repro.core.stats import Estimate, estimate_srs, z_value


@dataclass(frozen=True)
class EvalConfig:
    alpha: float = 0.05
    eps: float = 0.05
    batch_triples: int = 25  # SRS batch size
    batch_clusters: int = 20  # cluster-design batch size
    min_triples: int = 25  # SRS units before the Normal MoE is trusted
    min_draws: int = 20  # cluster draws before the Normal MoE is trusted
    max_units: int = 100_000  # hard safety stop

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if min(self.batch_triples, self.batch_clusters, self.max_units) < 1:
            raise ValueError("batch_triples, batch_clusters and max_units must be >= 1")


@dataclass(frozen=True)
class EvalResult:
    """One run of the Fig 2 loop (``sample_until``): a Spark
    ``evaluate_static`` run, a Monte-Carlo trial or an RS/SS loop."""

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
    draw: Callable[[], tuple[int, int] | None],
) -> EvalResult:
    """The Fig 2 loop: estimate, stop if the sample is good enough, else draw.

    Stops with reason "moe" once ``min_units`` units give MoE <= eps,
    "max_units" at the hard safety stop, and "exhausted" when ``draw``
    returns None because the population has nothing left to sample.
    Otherwise ``draw`` returns its batch's (entities identified, triples
    annotated); their sums are Eq 4's |E'| and |G'|.
    """
    n_batches = n_entities = n_triples = 0
    while True:
        est = estimate()
        if est.n_units >= min_units and est.moe <= cfg.eps:
            reason = "moe"
        elif est.n_units >= cfg.max_units:
            reason = "max_units"
        elif (batch := draw()) is None:
            reason = "exhausted"
        else:
            n_batches += 1
            n_entities += batch[0]
            n_triples += batch[1]
            continue
        hours = DEFAULT_COST.cost_hours(n_entities, n_triples)
        return EvalResult(est, hours, est.n_units, n_triples, n_batches, reason, n_entities)


def _shuffled_prefix(df: DataFrame, n: int, *, seed: int) -> pd.DataFrame:
    """First ``n`` rows of a rand(seed) ordering of ``df`` (all of a smaller
    ``df``): one TakeOrderedAndProject, a without-replacement SRS (Sec 5.1)."""
    return df.orderBy(F.rand(seed)).limit(n).toPandas()


def evaluate_static(
    kg: DataFrame,
    *,
    design: str,
    m: int | None = None,
    config: EvalConfig = EvalConfig(),
    seed: int = 0,
) -> EvalResult:
    """Run the Fig 2 loop with the given sampling design on a Spark KG.

    design in {"srs", "rcs", "wcs", "twcs"}; ``m`` is the TWCS
    second-stage cap, required for "twcs" and rejected for the others.
    """
    if design not in {"srs", "rcs", "wcs", "twcs"}:
        raise ValueError(f"unknown design {design!r}")
    if design == "twcs" and (m is None or m < 1):
        raise ValueError("twcs requires m >= 1")
    if design != "twcs" and m is not None:
        raise ValueError(f"m is the TWCS second-stage cap; {design} takes no m, got {m}")
    if design == "srs":
        return _run_srs(kg, config=config, seed=seed)
    return _run_cluster(kg, design=design, m=m, config=config, seed=seed)


def _run_srs(kg: DataFrame, *, config: EvalConfig, seed: int) -> EvalResult:
    """SRS batches sliced off one prefix of n* triples, fetched once.

    Sec 5.1's variance mu(1-mu)/n is at most 1/(4n), so whatever the labels
    the MoE is at most eps once n >= z^2/(4 eps^2): n* rests on this
    worst-case half-width z/(2 sqrt(n)), which a narrower interval keeps
    valid. n* also covers ``min_triples``, is capped at ``max_units`` and
    is rounded up to whole batches, so the loop stops within it.
    """
    ann = SimulatedAnnotator()
    labels: list[float] = []
    subjects: set[int] = set()
    b = config.batch_triples
    need = max(config.min_triples, z_value(config.alpha) ** 2 / (4 * config.eps**2))
    asked = b * math.ceil(min(config.max_units, need) / b)
    prefix = _shuffled_prefix(kg, asked, seed=seed)
    if prefix.empty:
        raise ValueError("KG has no triples")

    def draw() -> tuple[int, int] | None:
        lo = len(labels)
        if lo >= len(prefix):
            if len(prefix) < asked:  # a short fetch is the whole KG
                return None  # exact census
            raise RuntimeError(f"SRS ran past its {asked}-triple prefix without stopping")
        batch = ann.annotate_triples(prefix.iloc[lo : lo + b])
        labels.extend(batch["label"].tolist())
        n_seen = len(subjects)
        subjects.update(batch["subject"].tolist())
        return len(subjects) - n_seen, len(batch)

    return sample_until(
        config,
        config.min_triples,
        lambda: estimate_srs(np.asarray(labels, dtype=np.float64), alpha=config.alpha),
        draw,
    )


class _SparkClusters:
    """A Spark KG as a cluster population of the Monte-Carlo trials.

    Holds (subject, M_i), collected once and sorted in the driver so that
    the draws depend on the KG's content only, not on its partitioning.
    ``_run_cluster`` keeps it once per cached KG DataFrame, not once per
    evaluation; it holds no per-evaluation state (the RNG is per call).
    A batch's second stage is one filtered KG fetch of the drawn
    clusters, their rows picked by position, and one annotation.
    """

    def __init__(self, kg: DataFrame):
        stats = cluster_stats_df(kg).toPandas().sort_values("subject")
        self.kg, self.ann = kg, SimulatedAnnotator()
        self.subjects = stats["subject"].to_numpy(np.int64)
        self.sizes = stats["size"].to_numpy(np.int64)
        self.cum_sizes = np.cumsum(self.sizes)
        self.n_clusters, self.n_triples = len(self.sizes), int(self.sizes.sum())
        if self.n_triples == 0:
            raise ValueError("KG has no triples")

    def second_stage(self, ci, m: int | None, rng) -> tuple[np.ndarray, np.ndarray]:
        """(triples annotated, triples correct) per draw of clusters ``ci``."""
        drawn = self.subjects[ci]
        sample = cs.second_stage_sample(cs.draws_to_triples(self.kg, drawn), drawn, m, rng)
        labels = self.ann.annotate_tasks(sample).groupby("draw_id")["label"]
        n = labels.size().to_numpy(np.int64)
        want = self.sizes[ci] if m is None else np.minimum(self.sizes[ci], m)
        if not np.array_equal(n, want):
            raise ValueError("the KG no longer matches its cluster index")
        return n, labels.sum().to_numpy(np.int64)


# One entry, keyed on the DataFrame object (pyspark hashes it by identity).
_cached_clusters = functools.lru_cache(maxsize=1)(_SparkClusters)


def _run_cluster(
    kg: DataFrame,
    *,
    design: str,
    m: int | None,
    config: EvalConfig,
    seed: int,
) -> EvalResult:
    from repro.sim import mc  # mc imports this module

    # Only a cached KG keeps its content between evaluations.
    pop = _cached_clusters(kg) if kg.is_cached else _SparkClusters(kg)
    rng = np.random.default_rng(seed)
    if design == "rcs":
        return mc.rcs_trial(pop, rng, config)
    return mc.twcs_trial(pop, m if design == "twcs" else None, rng, config)

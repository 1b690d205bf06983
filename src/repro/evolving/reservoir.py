"""Reservoir Incremental Evaluation — RS (Sec 6.1, Algorithm 1).

Weighted reservoir sampling in the Efraimidis-Spirakis A-Res scheme:
cluster i receives key k_i = u_i^(1/M_i) with u_i ~ U(0,1); the
reservoir holds the |R| clusters with the largest keys. Maintaining the
top-|R| under a batch of insertions Delta is exactly Algorithm 1's
smallest-key replacement loop: because top-n is associative,
``top-n(G + Delta) = top-n(top-n(G) ∪ keys(Delta))``, so an update only
compares Delta's keys against the reservoir.

The evaluator follows the paper: the reservoir is *used as* the TWCS
first-stage sample (per-cluster second-stage SRS of <= m triples,
``Population.second_stage``), the estimate is the Eq 9
mean-of-cluster-means, and when an update pushes the MoE above eps the
static loop tops the reservoir up with further clusters (Sec 6.1's "run
Static Evaluation on G + Delta"), through the shared Fig 2 loop
``core.framework.sample_until``. A-Res draws clusters PPS *without*
replacement while Hansen-Hurwitz assumes with-replacement draws; with
|R| << N the distinction is negligible and the paper adopts the same
approximation.

Cost accounting: annotation is charged only for clusters *entering* the
reservoir (initial fill, replacements, top-ups); annotations of evicted
clusters are discarded — RS's disadvantage vs SS that Sec 7.3 measures.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.cluster_stats import Population
from repro.core.cost import CostLedger
from repro.core.framework import EvalConfig, sample_until
from repro.core.cluster_sampling import estimate_cluster_means
from repro.core.stats import Estimate


@dataclass
class _Member:
    """An annotated reservoir cluster: (key, cluster ``i`` of ``pop``, sample mean)."""

    key: float
    pop: Population
    i: int
    mean: float
    s: int  # triples annotated in the second stage


@dataclass
class ReservoirEvaluator:
    """RS over a sequence of update batches (Sec 6.1).

    ``members`` is a min-heap on the A-Res key (Algorithm 1 evicts the
    smallest key). ``spare`` keeps every non-member cluster of the
    current KG state as (key, population, index), keys descending — the
    top-up pool used when an update pushes the MoE back above eps.
    """

    m: int
    cfg: EvalConfig = field(default_factory=EvalConfig)
    members: list[tuple[float, int, _Member]] = field(default_factory=list)
    spare: list[tuple[float, Population, int]] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)
    n_insertions: int = 0  # reservoir entries after the initial fill (Prop 3)
    stop_reason: str | None = None  # the last top-up loop's (see sample_until)
    _counter: int = 0

    def _annotate(self, key: float, pop: Population, i: int, rng) -> _Member:
        s, good = pop.second_stage(i, self.m, rng)
        self.ledger.charge_task(int(s))
        return _Member(key, pop, i, float(good / s), int(s))

    def _push(self, mb: _Member) -> None:
        self._counter += 1
        heapq.heappush(self.members, (mb.key, self._counter, mb))

    def estimate(self) -> Estimate:
        means = np.array([mb.mean for _, _, mb in self.members])
        return estimate_cluster_means(means, alpha=self.cfg.alpha)

    def _top_up_until_converged(self, rng: np.random.Generator) -> Estimate:
        """The static loop over the spare pool, largest keys first."""

        def draw() -> tuple[int, int] | None:
            if not self.spare:
                return None
            take = min(self.cfg.batch_clusters, len(self.spare))
            added = [self._annotate(key, pop, i, rng) for key, pop, i in self.spare[:take]]
            for mb in added:
                self._push(mb)
            del self.spare[:take]
            return take, sum(mb.s for mb in added)

        res = sample_until(self.cfg, self.cfg.min_draws, self.estimate, draw)
        self.stop_reason = res.stop_reason
        return res.estimate

    def initialise(self, pop: Population, rng: np.random.Generator) -> Estimate:
        """Static phase on the base KG: grow the reservoir until MoE <= eps."""
        keys = rng.random(pop.n_clusters) ** (1.0 / pop.sizes)
        order = np.argsort(-keys)
        self.spare = [(float(keys[i]), pop, int(i)) for i in order]
        return self._top_up_until_converged(rng)

    def apply_update(self, delta: Population, rng: np.random.Generator) -> Estimate:
        """Algorithm 1 over Delta's clusters, then top-up if MoE > eps."""
        if not self.members:
            raise RuntimeError("initialise() must run before apply_update()")
        keys = rng.random(delta.n_clusters) ** (1.0 / delta.sizes)
        size_before = len(self.members)
        new_spare: list[tuple[float, Population, int]] = []
        for i in range(delta.n_clusters):
            k_e = float(keys[i])
            if k_e > self.members[0][0]:  # beats the smallest reservoir key
                _, _, evicted = heapq.heappop(self.members)
                new_spare.append((evicted.key, evicted.pop, evicted.i))
                self._push(self._annotate(k_e, delta, i, rng))
                self.n_insertions += 1
            else:
                new_spare.append((k_e, delta, i))
        self.spare.extend(new_spare)
        self.spare.sort(key=lambda t: -t[0])
        assert len(self.members) == size_before, "reservoir size is invariant"
        return self._top_up_until_converged(rng)

    @property
    def hours(self) -> float:
        return self.ledger.hours

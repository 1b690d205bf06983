"""Reservoir Incremental Evaluation — RS (Sec 6.1, Algorithm 1).

Weighted reservoir sampling in the Efraimidis-Spirakis A-Res scheme:
cluster i receives key k_i = u_i^(1/M_i) with u_i ~ U(0,1); the
reservoir holds the |R| clusters with the largest keys. Maintaining the
top-|R| under a batch of insertions Delta is exactly Algorithm 1's
smallest-key replacement loop: because top-n is associative,
``top-n(G + Delta) = top-n(top-n(G) ∪ keys(Delta))``, so an update only
compares Delta's keys against the reservoir. The clusters outside it are
those keyed below its smallest key, so the top-up pool is read off the keys.
The sizes, tau_i and keys of every cluster seen live in arrays whose
capacity doubles when full, so an update writes Delta in place:
amortised O(|Delta|) work, not a copy of G + Delta.

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
    """An annotated reservoir cluster: its sample mean and second-stage size."""

    mean: float
    s: int  # triples annotated in the second stage


@dataclass
class ReservoirEvaluator:
    """RS over a sequence of update batches (Sec 6.1).

    ``pop`` and ``keys`` are views of the first n rows of ``_buf``: every
    cluster seen (the base KG, then each Delta) and their A-Res keys.
    ``members`` is a min-heap of (key, index into ``pop``, member):
    Algorithm 1 evicts the smallest key.
    """

    m: int
    cfg: EvalConfig = field(default_factory=EvalConfig)
    pop: Population | None = field(default=None, init=False)
    keys: np.ndarray = field(default_factory=lambda: np.empty(0), init=False)
    members: list[tuple[float, int, _Member]] = field(default_factory=list, init=False)
    ledger: CostLedger = field(default_factory=CostLedger, init=False)
    n_insertions: int = field(default=0, init=False)  # entries after the initial fill (Prop 3)
    stop_reason: str | None = field(default=None, init=False)  # the last top-up loop's
    # (subjects, sizes, taus, keys) of every cluster seen, then spare capacity
    _buf: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False)

    def _append(self, pop: Population, keys: np.ndarray) -> None:
        """Write ``pop``'s clusters and keys after those seen so far,
        doubling the buffers' capacity when they are full."""
        n0 = self.keys.size
        n = n0 + pop.n_clusters
        cols = (pop.subjects, pop.sizes, pop.taus, keys)
        if n > (self._buf[0].size if self._buf else 0):
            grown = tuple(np.empty(max(n, 2 * n0), dtype=c.dtype) for c in cols)
            for new, old in zip(grown, self._buf):
                new[:n0] = old[:n0]
            self._buf = grown
        for b, c in zip(self._buf, cols):
            b[n0:n] = c
        subjects, sizes, taus, self.keys = (b[:n] for b in self._buf)
        self.pop = Population(subjects, sizes, taus)

    @property
    def spare(self) -> np.ndarray:
        """Indices into ``pop`` keyed below every member (all before the reservoir fills)."""
        if not self.members:
            return np.arange(self.keys.size)
        return np.flatnonzero(self.keys < self.members[0][0])

    def _enter(self, i: int, rng) -> int:
        s, good = self.pop.second_stage(i, self.m, rng)
        self.ledger.charge_task(int(s))
        heapq.heappush(self.members, (self.keys[i], i, _Member(float(good / s), int(s))))
        return int(s)

    def estimate(self) -> Estimate:
        means = np.array([mb.mean for _, _, mb in self.members])
        return estimate_cluster_means(means, alpha=self.cfg.alpha)

    def _top_up_until_converged(self, rng: np.random.Generator) -> Estimate:
        """The static loop over the spare pool, largest keys first."""

        def draw() -> tuple[int, int] | None:
            spare = self.spare
            if not spare.size:
                return None
            take = min(self.cfg.batch_clusters, spare.size)
            top = spare[np.argpartition(-self.keys[spare], take - 1)[:take]]
            top = top[np.argsort(-self.keys[top])]
            return take, sum(self._enter(int(i), rng) for i in top)

        res = sample_until(self.cfg, self.cfg.min_draws, self.estimate, draw)
        self.stop_reason = res.stop_reason
        return res.estimate

    def initialise(self, pop: Population, rng: np.random.Generator) -> Estimate:
        """Static phase on the base KG: grow the reservoir until MoE <= eps."""
        self._append(pop, rng.random(pop.n_clusters) ** (1.0 / pop.sizes))
        return self._top_up_until_converged(rng)

    def apply_update(self, delta: Population, rng: np.random.Generator) -> Estimate:
        """Algorithm 1 over Delta's clusters, then top-up if MoE > eps."""
        if not self.members:
            raise RuntimeError("initialise() must run before apply_update()")
        delta_keys = rng.random(delta.n_clusters) ** (1.0 / delta.sizes)
        n0, size_before = self.keys.size, len(self.members)
        self._append(delta, delta_keys)
        # The smallest key only rises, so no cluster outside this set can enter.
        for j in np.flatnonzero(delta_keys > self.members[0][0]):
            if delta_keys[j] > self.members[0][0]:  # beats the smallest reservoir key
                heapq.heappop(self.members)
                self._enter(n0 + int(j), rng)
                self.n_insertions += 1
        assert len(self.members) == size_before, "reservoir size is invariant"
        return self._top_up_until_converged(rng)

    @property
    def hours(self) -> float:
        return self.ledger.hours

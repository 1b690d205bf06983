"""Stratified Incremental Evaluation — SS (Sec 6.2, Algorithm 2).

Each update batch Delta^i becomes its own stratum. The estimate for the
evolved KG combines per-stratum TWCS estimates with triple-count weights
W_h = |stratum_h| / |G + Delta| (Eq 13); all annotations from earlier
strata are *fully reused* (only their weights change), which is why SS
beats RS on cost — and why a bad early estimate lingers (Sec 7.3.2's
fault-tolerance trade-off, which tests reproduce).

Per Algorithm 2, after an update only the newest stratum is sampled:
draw TWCS batches on Delta until the *combined* MoE is back under eps,
through the shared Fig 2 loop ``core.framework.sample_until``, with the
MC layer's PPS draw, ``Population.second_stage``, and Eq 13 as in the
MC trial.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cluster_stats import Population
from repro.core.cost import CostLedger
from repro.core.framework import EvalConfig, sample_until
from repro.core.cluster_sampling import estimate_cluster_means
from repro.core.stats import Estimate, combine_stratified
from repro.sim.mc import _pps_draws

# Incremental batches on Delta are finer than the static loop's: each
# new stratum usually needs only a handful of draws to pull the
# combined MoE back under eps, so coarse batches would overshoot and
# erase SS's cost advantage (the whole point of Algorithm 2).
UPDATE_BATCH_CLUSTERS = 5


@dataclass
class _Stratum:
    pop: Population
    means: list[float] = field(default_factory=list)  # per-draw TWCS means
    # (means, len(means), Eq 9 estimate) as last computed
    _memo: tuple = field(default=(None, 0, None), init=False, repr=False)

    def estimate(self, alpha: float) -> Estimate:
        """Eq 9 over this stratum's draws, recomputed only when draws are
        appended or ``means`` is replaced: only the newest stratum changes
        after an update, so an SS estimate costs O(1) per frozen stratum."""
        means, n, est = self._memo
        if means is not self.means or n != len(self.means):
            est = estimate_cluster_means(np.asarray(self.means), alpha=alpha)
            self._memo = (self.means, len(self.means), est)
        return est


@dataclass
class StratifiedIncrementalEvaluator:
    """SS over a sequence of update batches (Algorithm 2)."""

    m: int
    cfg: EvalConfig = field(default_factory=EvalConfig)
    strata: list[_Stratum] = field(default_factory=list, init=False)
    ledger: CostLedger = field(default_factory=CostLedger, init=False)
    stop_reason: str | None = field(default=None, init=False)  # the last loop's (see sample_until)

    def estimate(self) -> Estimate:
        w = np.array([st.pop.n_triples for st in self.strata], dtype=np.float64)
        w /= w.sum()
        return combine_stratified(w, [st.estimate(self.cfg.alpha) for st in self.strata])

    def _sample_until_converged(
        self, st: _Stratum, rng: np.random.Generator, batch: int
    ) -> Estimate:
        """Algorithm 2's while-loop: batches on the new stratum ``st`` only.
        Its first batch is 2 draws, the fewest that give a variance."""

        def draw() -> tuple[int, int]:
            k = batch if st.means else 2
            s, good = st.pop.second_stage(_pps_draws(st.pop, k, rng), self.m, rng)
            st.means.extend((good / s).tolist())
            for si in s:
                self.ledger.charge_task(int(si))
            return k, int(s.sum())

        res = sample_until(self.cfg, self.cfg.min_draws, self.estimate, draw)
        self.stop_reason = res.stop_reason
        return res.estimate

    def initialise(self, pop: Population, rng: np.random.Generator) -> Estimate:
        """Static TWCS evaluation of the base KG G (stratum 0)."""
        st = _Stratum(pop)
        self.strata.append(st)
        return self._sample_until_converged(st, rng, self.cfg.batch_clusters)

    def apply_update(self, delta: Population, rng: np.random.Generator) -> Estimate:
        """Algorithm 2: Delta is a fresh stratum; only it gets sampled."""
        if not self.strata:
            raise RuntimeError("initialise() must run before apply_update()")
        st = _Stratum(delta)
        self.strata.append(st)
        return self._sample_until_converged(st, rng, UPDATE_BATCH_CLUSTERS)

    @property
    def hours(self) -> float:
        return self.ledger.hours

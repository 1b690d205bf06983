"""The Monte-Carlo trials: the only RCS/WCS/TWCS/SRS evaluation loops
(see DESIGN.md §2/§3).

The paper repeats every evaluation 1,000 times and reports mean ± sd of
annotation cost and estimate. A trial's outcome depends on the KG only
through the cluster arrays (M_i, tau_i) — exactly the ``Population``
aggregated once by Spark — so the repetition layer runs in numpy:

- an SRS draw of a triple is a uniform global index, mapped to its
  cluster by searchsorted over the size cumsum; its label follows the
  same first-tau_i-correct layout the Spark KG materialises;
- a PPS cluster draw is searchsorted of u*M over the same cumsum
  (``core.cluster_sampling.weighted_cluster_draws``);
- a drawn cluster's second stage comes from its population,
  ``pop.second_stage(ci, m, rng) -> (s, good)``: for a ``Population``
  s=min(M_i, m) triples without replacement with Hypergeometric(tau_i,
  M_i - tau_i, s) correct ones, or the whole cluster when m is None.

WCS is TWCS without a cap (Sec 5.2), TWCS is stratified TWCS with one
stratum (Eq 13, W_1 = 1), and ``stratified_twcs_trial`` runs all three.
It computes W_h = M[h] / M from the strata it is given; ``run_trials``
splits a population into its strata once, before the trials.

The cluster trials read only ``sizes``, ``cum_sizes``, ``n_clusters``,
``n_triples`` and ``second_stage`` of their population, so a Spark KG
is one more population: ``core.framework.evaluate_static`` runs
RCS/WCS/TWCS by calling ``rcs_trial``/``twcs_trial`` on one whose
second stage fetches and annotates the drawn triples. Every trial
supplies only its draw step, which reports the batch's entities
identified and triples annotated, and its estimator; the Fig 2 loop and
stopping rule ``core.framework.sample_until`` charges Eq 4 on their
sums and returns the trial's ``EvalResult``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cluster_sampling
from repro.core.cluster_sampling import estimate_cluster_means, estimate_rcs
from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig, EvalResult, sample_until
from repro.core.stats import Estimate, combine_stratified, estimate_srs


@dataclass(frozen=True)
class TrialsSummary:
    design: str
    mu_mean: float
    mu_sd: float
    hours_mean: float
    hours_sd: float
    triples_mean: float
    triples_sd: float
    n_trials: int
    mu_p025: float  # empirical 95% interval of the estimates — reported
    mu_p975: float  # for highly-accurate KGs (YAGO) as in Table 5's note

    @classmethod
    def from_trials(cls, design: str, trials: list[EvalResult]) -> "TrialsSummary":
        def sd(a: np.ndarray) -> float:
            return float(a.std(ddof=1)) if len(trials) > 1 else 0.0

        mu, hrs, tr = (
            np.array([getattr(t, f) for t in trials])
            for f in ("mu_hat", "hours", "n_triples")
        )
        return cls(
            design,
            float(mu.mean()), sd(mu),
            float(hrs.mean()), sd(hrs),
            float(tr.mean()), sd(tr),
            len(trials),
            float(np.percentile(mu, 2.5)),
            float(np.percentile(mu, 97.5)),
        )


def srs_trial(pop: Population, rng: np.random.Generator, cfg: EvalConfig) -> EvalResult:
    """Iterative SRS: batches of cfg.batch_triples without replacement."""
    M, cum = pop.n_triples, pop.cum_sizes
    starts = cum - pop.sizes
    drawn: set[int] = set()
    labels: list[int] = []
    clusters_seen: set[int] = set()

    def draw() -> tuple[int, int] | None:
        want = min(cfg.batch_triples, M - len(drawn))
        if want <= 0:
            return None
        batch: list[int] = []
        while len(batch) < want:
            for g in rng.integers(0, M, size=2 * (want - len(batch))):
                gi = int(g)
                if gi not in drawn:
                    drawn.add(gi)
                    batch.append(gi)
                    if len(batch) == want:
                        break
        idx = np.asarray(batch, dtype=np.int64)
        ci = np.searchsorted(cum, idx, side="right")
        labels.extend((idx - starts[ci] < pop.taus[ci]).astype(int).tolist())
        n_seen = len(clusters_seen)
        clusters_seen.update(ci.tolist())
        return len(clusters_seen) - n_seen, want

    return sample_until(
        cfg,
        cfg.min_triples,
        lambda: estimate_srs(np.asarray(labels, dtype=np.float64), alpha=cfg.alpha),
        draw,
    )


def _pps_draws(pop: Population, k: int, rng: np.random.Generator) -> np.ndarray:
    """k PPS-with-replacement cluster indices (prob M_i / M)."""
    return cluster_sampling.weighted_cluster_draws(pop.cum_sizes, k, rng)


def stratified_twcs_trial(
    strata: list[Population], m: int | None, rng: np.random.Generator, cfg: EvalConfig
) -> EvalResult:
    """Iterative stratified TWCS (Sec 5.3) over the populations ``strata``:
    per-batch draws allocated to strata proportionally to W_h = M[h] / M
    (>= 1 each), Eq 13 combination for the estimate and MoE."""
    w = np.array([sub.n_triples for sub in strata], dtype=np.float64)
    w /= w.sum()
    alloc = np.maximum(1, np.rint(cfg.batch_clusters * w).astype(int))
    means: list[list[float]] = [[] for _ in strata]

    def draw() -> tuple[int, int]:
        n_triples = 0
        for j, sub in enumerate(strata):
            s, good = sub.second_stage(_pps_draws(sub, int(alloc[j]), rng), m, rng)
            means[j].extend((good / s).tolist())
            n_triples += int(s.sum())
        return int(alloc.sum()), n_triples

    def estimate() -> Estimate:
        per = [estimate_cluster_means(np.asarray(v), alpha=cfg.alpha) for v in means]
        return combine_stratified(w, per)

    return sample_until(cfg, cfg.min_draws, estimate, draw)


def twcs_trial(
    pop: Population, m: int | None, rng: np.random.Generator, cfg: EvalConfig
) -> EvalResult:
    """Iterative TWCS: stratified TWCS with one stratum (W_1 = 1)."""
    return stratified_twcs_trial([pop], m, rng, cfg)


def wcs_trial(pop: Population, rng: np.random.Generator, cfg: EvalConfig) -> EvalResult:
    """Iterative WCS: TWCS without a second-stage cap (full-cluster annotation)."""
    return twcs_trial(pop, None, rng, cfg)


def rcs_trial(pop: Population, rng: np.random.Generator, cfg: EvalConfig) -> EvalResult:
    """Iterative RCS: uniform cluster draws without replacement.

    RCS converges orders of magnitude slower than the other designs on
    wide cluster-size distributions (its Table 5 result), so the batch
    grows geometrically (~25%/step) to keep the estimate-recompute loop
    near-linear; the slight stopping overshoot only affects a design the
    paper already reports as blowing the budget.
    """
    order = rng.permutation(pop.n_clusters)
    taus: list[float] = []

    def draw() -> tuple[int, int] | None:
        pos = len(taus)
        take = min(max(cfg.batch_clusters, pos // 4), pop.n_clusters - pos)
        if take <= 0:
            return None
        s, good = pop.second_stage(order[pos : pos + take], None, rng)
        taus.extend(good.astype(float).tolist())
        return take, int(s.sum())

    def estimate() -> Estimate:
        N, M = pop.n_clusters, pop.n_triples
        return estimate_rcs(np.asarray(taus), n_clusters=N, n_triples=M, alpha=cfg.alpha)

    return sample_until(cfg, cfg.min_draws, estimate, draw)


_DESIGNS = {
    "srs": srs_trial,
    "rcs": rcs_trial,
    "wcs": wcs_trial,
}


def run_trials(
    pop: Population,
    design: str,
    *,
    n_trials: int,
    seed: int,
    cfg: EvalConfig = EvalConfig(),
    m: int | None = None,
    strata: np.ndarray | None = None,
) -> TrialsSummary:
    """Repeat a design ``n_trials`` times; summarise cost and estimate.

    ``m`` is for the TWCS designs only, ``strata`` for ``"twcs_stratified"``
    only: it splits ``pop`` by them once, and every trial draws from those.
    """
    if design in ("twcs", "twcs_stratified") and (m is None or m < 1):
        raise ValueError(f"{design} requires m >= 1, got {m!r}")
    if design not in ("twcs", "twcs_stratified") and m is not None:
        raise ValueError(f"m is the TWCS second-stage cap; {design} takes no m, got {m}")
    if (design == "twcs_stratified") != (strata is not None):
        raise ValueError(f"strata go with twcs_stratified and only with it, got {design!r}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if design == "twcs":
        trial = lambda rng: twcs_trial(pop, m, rng, cfg)
    elif design == "twcs_stratified":
        labels = np.asarray(strata)
        masks = [labels == h for h in np.unique(labels)]
        subs = [Population(pop.subjects[k], pop.sizes[k], pop.taus[k]) for k in masks]
        trial = lambda rng: stratified_twcs_trial(subs, m, rng, cfg)
    elif design in _DESIGNS:
        trial = lambda rng: _DESIGNS[design](pop, rng, cfg)
    else:
        raise ValueError(f"unknown design {design!r}")
    trials = [trial(np.random.default_rng(seed + 7919 * t)) for t in range(n_trials)]
    return TrialsSummary.from_trials(design, trials)

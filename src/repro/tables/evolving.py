"""Evolving-KG experiments (Sec 7.3, Figures 8-9) as a text harness.

Figures are out of scope per the task statement, but the experiments
behind them are fully implemented; this module reruns them and reports
the numbers as rows (recorded as an appendix in EXPERIMENTS.md):

- ``single_batch_rows``: Fig 8 — Baseline vs RS vs SS incremental cost
  for one update batch, varying update size and update accuracy.
- ``sequence_rows``: Fig 9 — mean estimates of RS and SS across a
  sequence of updates (unbiasedness), plus the fault-tolerance probe:
  starting from a corrupted base estimate, how fast each method returns
  to the truth.

The paper's setting: base KG = 50% random subset of MOVIE (REM labels at
90%), updates drawn from MOVIE-FULL. We mirror it with the MOVIE-like
generator at sf=0.5 and MOVIE-FULL-profile update batches.
"""
from __future__ import annotations

import numpy as np

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig
from repro.evolving.reservoir import ReservoirEvaluator
from repro.evolving.stratified_inc import StratifiedIncrementalEvaluator
from repro.kg.generator import movie_like
from repro.kg.updates import update_batch, update_sequence
from repro.sim import mc
from repro.tables.common import n_trials, render


def _base(sf: float, seed: int = 21) -> Population:
    return Population.from_synthetic(movie_like(sf=sf, seed=seed))


def single_batch_rows(
    *,
    base_sf: float = 0.5,
    trials: int | None = None,
    m: int = 5,
    seed: int = 50,
) -> list[dict]:
    """Fig 8: incremental cost of Baseline / RS / SS for one update."""
    t = trials if trials is not None else n_trials(100)
    base = _base(base_sf)
    settings = [("size", f, 0.9) for f in (0.1, 0.3, 0.5)] + [
        ("accuracy", 0.5, a) for a in (0.2, 0.5, 0.8)
    ]
    rows = []
    for tag, frac, acc in settings:
        nb = int(base.n_triples * frac)
        h = {"Baseline": [], "RS": [], "SS": []}
        mu = {"RS": [], "SS": []}
        for k in range(t):
            delta = Population.from_synthetic(
                update_batch(
                    n_triples=nb, accuracy=acc, seed=seed + 997 * k,
                    subject_offset=10_000_000,
                )
            )
            for name, cls in (("RS", ReservoirEvaluator), ("SS", StratifiedIncrementalEvaluator)):
                ev, rng = cls(m=m), np.random.default_rng(seed + k)
                ev.initialise(base, rng)
                h0 = ev.hours
                e = ev.apply_update(delta, rng)
                h[name].append(ev.hours - h0)
                mu[name].append(e.mu_hat)

            # Baseline (Sec 7.1.4): discard all annotations, static TWCS on G + Delta.
            rng = np.random.default_rng(seed + k)
            snapshot = Population.concat([base, delta])
            h["Baseline"].append(mc.twcs_trial(snapshot, m, rng, EvalConfig()).hours)
        rows.append(
            {
                "experiment": f"vary {tag}",
                "update size": f"{frac:g}x base",
                "update acc": f"{acc:g}",
                "Baseline h": f"{np.mean(h['Baseline']):.2f}",
                "RS h": f"{np.mean(h['RS']):.2f}",
                "SS h": f"{np.mean(h['SS']):.2f}",
                "RS est": f"{100 * np.mean(mu['RS']):.1f}%",
                "SS est": f"{100 * np.mean(mu['SS']):.1f}%",
            }
        )
    return rows


def sequence_rows(
    *,
    base_sf: float = 0.25,
    n_batches: int = 10,
    trials: int | None = None,
    m: int = 5,
    seed: int = 77,
    corrupt: float | None = None,
) -> list[dict]:
    """Fig 9: estimates along a sequence of ~10%-size, 90%-accuracy
    updates. With ``corrupt`` set, the base estimate is forcibly biased
    to that value to probe fault tolerance (RS recovers, SS lingers)."""
    t = trials if trials is not None else n_trials(20)
    base = _base(base_sf)
    est = {col: np.zeros((t, n_batches + 1)) for col in ("RS", "SS", "truth")}
    for k in range(t):
        deltas = [
            Population.from_synthetic(d)
            for d in update_sequence(
                n_batches=n_batches,
                n_triples_each=int(base.n_triples * 0.1),
                accuracy=0.9,
                seed=seed + 31 * k,
                subject_offset=10_000_000,
            )
        ]
        rng = np.random.default_rng(seed + k)
        rs = ReservoirEvaluator(m=m)
        e = rs.initialise(base, rng)
        rng2 = np.random.default_rng(seed + k)
        ss = StratifiedIncrementalEvaluator(m=m)
        e2 = ss.initialise(base, rng2)
        if corrupt is not None:
            # Fault-injection: pretend the initial annotation round was
            # badly off by overwriting every collected per-draw mean.
            for mb in [mb for _, _, mb in rs.members]:
                mb.mean = corrupt
            ss.strata[0].means = [corrupt] * len(ss.strata[0].means)
            e, e2 = rs.estimate(), ss.estimate()
        est["RS"][k, 0], est["SS"][k, 0] = e.mu_hat, e2.mu_hat
        pops = [base]
        for b, delta in enumerate(deltas, start=1):
            pops.append(delta)
            est["RS"][k, b] = rs.apply_update(delta, rng).mu_hat
            est["SS"][k, b] = ss.apply_update(delta, rng2).mu_hat
            tot = sum(p.n_triples for p in pops)
            est["truth"][k, b] = sum(p.mu * p.n_triples for p in pops) / tot
    est["truth"][:, 0] = base.mu
    rows = []
    for b in range(n_batches + 1):
        rows.append(
            {
                "batch": b,
                "truth": f"{100 * est['truth'][:, b].mean():.1f}%",
                "RS est": f"{100 * est['RS'][:, b].mean():.1f}%",
                "SS est": f"{100 * est['SS'][:, b].mean():.1f}%",
            }
        )
    return rows


def text(rows: list[dict], title: str) -> str:
    return render(title, rows, list(rows[0].keys()))

"""Benchmark: the evolving-KG experiments (Sec 7.3, Figs 8-9 as rows).

Not a numbered table, but EXPERIMENTS.md records these rows as the
evolving-KG appendix; base KG at sf=0.25 of MOVIE (the paper uses the
50% subset of full MOVIE — same regime, scale-free costs).

``test_evolving_update_scaling`` records Sec 6's cost claim in machine
time: one RS or SS update of a fixed |Delta| costs the same on a 4x
larger base KG.
"""
import os
import statistics
from time import perf_counter

import numpy as np

from benchmarks._util import run_once, save
from repro.core.cluster_stats import Population
from repro.evolving.reservoir import ReservoirEvaluator
from repro.evolving.stratified_inc import StratifiedIncrementalEvaluator
from repro.kg.generator import movie_like
from repro.kg.updates import update_sequence
from repro.tables import evolving
from repro.tables.common import n_trials


def test_evolving_single_batch(benchmark):
    rows = run_once(
        benchmark, lambda: evolving.single_batch_rows(base_sf=0.25, trials=n_trials(30))
    )
    for r in rows:
        assert float(r["SS h"]) <= float(r["Baseline h"])
    save(
        "evolving_single_batch",
        evolving.text(rows, "Fig 8 (as rows): incremental cost, single update batch"),
    )


def test_evolving_sequence(benchmark):
    rows = run_once(
        benchmark,
        lambda: evolving.sequence_rows(base_sf=0.1, n_batches=10, trials=n_trials(10)),
    )
    save(
        "evolving_sequence",
        evolving.text(rows, "Fig 9-1 (as rows): estimates over a sequence of updates"),
    )


SCALING_SFS = (0.25, 1.0)  # base MOVIE: ~72k and ~289k clusters
DELTA_TRIPLES = 67_000  # 10% of the sf=0.25 base
SCALING_BOUND = 1.3  # ROADMAP item 4: an sf=1 update within 1.3x of an sf=0.25 one


def _update_ms(rounds: int, n_batches: int) -> dict[tuple[float, str], list[float]]:
    """Wall ms of every RS and SS ``apply_update``, keyed by (base sf, method),
    over ``rounds`` sequences of ``n_batches`` updates of ``DELTA_TRIPLES``
    each. The bases take turns within each round, so drift in machine speed
    reaches both alike."""
    bases = {sf: Population.from_synthetic(movie_like(sf=sf, seed=1)) for sf in SCALING_SFS}
    ms: dict[tuple[float, str], list[float]] = {}
    for r in range(rounds):
        deltas = [
            Population.from_synthetic(d)
            for d in update_sequence(
                n_batches=n_batches,
                n_triples_each=DELTA_TRIPLES,
                accuracy=0.9,
                seed=100 + r,
                subject_offset=10_000_000,
            )
        ]
        for sf, base in bases.items():
            evaluators = {"RS": ReservoirEvaluator(m=5), "SS": StratifiedIncrementalEvaluator(m=5)}
            for k, (name, ev) in enumerate(evaluators.items()):
                rng = np.random.default_rng([r, k])
                ev.initialise(base, rng)
                for d in deltas:
                    t = perf_counter()
                    ev.apply_update(d, rng)
                    ms.setdefault((sf, name), []).append(1e3 * (perf_counter() - t))
    return ms


def test_evolving_update_scaling(benchmark):
    runs = run_once(benchmark, lambda: _update_ms(rounds=5, n_batches=10))
    med = {key: statistics.median(v) for key, v in runs.items()}
    lines = [
        f"Sec 6: median apply_update wall ms at |Delta| ~ {DELTA_TRIPLES:,} triples "
        f"(5 sequences x 10 updates per cell, {os.cpu_count()} CPUs)",
        "base       RS ms   SS ms",
        *(f"sf={sf:<5}  {med[sf, 'RS']:6.3f}  {med[sf, 'SS']:6.3f}" for sf in SCALING_SFS),
    ]
    lo, hi = SCALING_SFS
    ratios = {k: med[hi, k] / med[lo, k] for k in ("RS", "SS")}
    lines.append(
        f"sf={hi:g} / sf={lo:g}: " + ", ".join(f"{k} {r:.2f}x" for k, r in ratios.items())
        + f" (bound {SCALING_BOUND}x)"
    )
    save("evolving_update_scaling", "\n".join(lines))
    for k, r in ratios.items():
        assert r <= SCALING_BOUND, f"{k} update at sf={hi:g} is {r:.2f}x that at sf={lo:g}"

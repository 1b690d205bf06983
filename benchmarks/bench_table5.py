"""Benchmark: Table 5 (four designs x three KGs, Monte-Carlo layer).

Runs ``table5.compute()`` at the job defaults: MOVIE at full cluster
scale (sf=1, 288,770 clusters) and the paper's 1,000 trials (100 for the
census-slow RCS cells) — REPRO_TRIALS overrides.
"""
from benchmarks._util import run_once, save
from repro.tables import table5


def test_table5(benchmark):
    rows = run_once(benchmark, table5.compute)
    assert len(rows) == 12
    save("table5", table5.table_text(rows))

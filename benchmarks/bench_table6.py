"""Benchmark: Table 6 (TWCS vs KGEval on NELL and YAGO) at the job
defaults, the paper's 1,000 trials — REPRO_TRIALS overrides."""
from benchmarks._util import run_once, save
from repro.tables import table6


def test_table6(benchmark):
    rows = run_once(benchmark, table6.compute)
    assert len(rows) == 4
    save("table6", table6.table_text(rows))

"""Benchmark: Table 6 (TWCS vs KGEval on NELL and YAGO)."""
from benchmarks._util import run_once, save
from repro.tables import table6
from repro.tables.common import n_trials


def test_table6(benchmark):
    rows = run_once(benchmark, lambda: table6.compute(trials=n_trials(300)))
    assert len(rows) == 4
    save("table6", table6.table_text(rows))

"""Benchmark: Table 7 (TWCS with size/oracle stratification) at the job
defaults, MOVIE and MOVIE-SYN at sf=1 and the paper's 1,000 trials —
REPRO_TRIALS overrides."""
from benchmarks._util import run_once, save
from repro.tables import table7


def test_table7(benchmark):
    rows = run_once(benchmark, table7.compute)
    assert len(rows) == 12
    save("table7", table7.table_text(rows))

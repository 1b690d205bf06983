"""Benchmark: Table 3 (data characteristics via Spark aggregation).

MOVIE at sf=0.1 and MOVIE-FULL at sf=0.02 (~2.6M triples, which
``to_spark`` explodes from the entity table in Spark, like every KG) keep
the bench within budget; the table5/7 harnesses cover MOVIE at full
cluster scale on the MC layer.
"""
from benchmarks._util import run_once, save
from repro.tables import table3


def test_table3(benchmark, spark):
    rows = run_once(benchmark, lambda: table3.compute(spark, movie_sf=0.1, movie_full_sf=0.02))
    assert len(rows) == 4
    assert rows[0]["entities (ours)"] == 817
    save("table3", table3.table_text(rows))

"""Table 3 — Data characteristics of various KGs.

Reports entity counts, triple counts, average cluster size and gold
accuracy of the synthetic NELL / YAGO / MOVIE / MOVIE-FULL instances,
with every measured figure computed by Spark aggregations over the
materialised triple DataFrame (the point of the harness: the KG lives
as a distributed table, and the characteristics are groupBy/agg jobs).

MOVIE defaults to sf=1 (full 288,770-entity scale); MOVIE-FULL to
sf=0.1 (~13M triples) via the Spark-native generator — see DESIGN.md's
substitution table.
"""
from __future__ import annotations

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.kg.generator import movie_full_like, movie_like, nell_like, yago_like
from repro.tables.common import render

PAPER = {
    "NELL": dict(entities=817, triples=1860, avg=2.3, acc="91%"),
    "YAGO": dict(entities=822, triples=1386, avg=1.7, acc="99%"),
    "MOVIE": dict(entities=288_770, triples=2_653_870, avg=9.2, acc="90% (MoE 5%)"),
    "MOVIE-FULL": dict(entities=14_495_142, triples=130_591_799, avg=9.0, acc="N/A"),
}


def compute(
    spark: SparkSession,
    *,
    movie_sf: float = 1.0,
    movie_full_sf: float = 0.1,
) -> list[dict]:
    kgs = [
        ("NELL", nell_like()),
        ("YAGO", yago_like()),
        ("MOVIE", movie_like(sf=movie_sf)),
        ("MOVIE-FULL", movie_full_like(sf=movie_full_sf)),
    ]
    rows = []
    for name, kg in kgs:
        df = kg.to_spark(spark)
        agg = df.agg(
            F.countDistinct("subject").alias("entities"),
            F.count(F.lit(1)).alias("triples"),
            F.avg("label").alias("acc"),
        ).collect()[0]
        paper = PAPER[name]
        rows.append(
            {
                "KG": name
                + (
                    ""
                    if name in ("NELL", "YAGO")
                    else f" (sf={movie_sf if name == 'MOVIE' else movie_full_sf:g})"
                ),
                "entities (paper)": paper["entities"],
                "entities (ours)": int(agg["entities"]),
                "triples (paper)": paper["triples"],
                "triples (ours)": int(agg["triples"]),
                "avg size (paper)": paper["avg"],
                "avg size (ours)": round(agg["triples"] / agg["entities"], 2),
                "accuracy (paper)": paper["acc"],
                "accuracy (ours)": f"{100 * agg['acc']:.1f}%",
            }
        )
    return rows


def table_text(rows: list[dict]) -> str:
    return render("Table 3: Data characteristics of various KGs (paper vs ours)", rows)

"""Table 4 — Manual evaluation cost on MOVIE: SRS vs TWCS(m=10).

The paper's Table 4 is a single *actual* annotation session: SRS needed
174 entities / 174 triples (3.53 h, est 88%, MoE 4.85%) while TWCS with
m=10 needed 24 entities / 178 triples (1.4 h, est 90%, MoE 4.97%).

Here the same two evaluations run end-to-end through the Spark
framework (Fig 2 loop over DataFrame samplers) on the synthetic MOVIE
with the simulated annotator, charged the paper's own fitted cost
function — a single run each, like the paper's single session — plus
Monte-Carlo averages for context.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig, evaluate_static
from repro.kg.generator import movie_like
from repro.sim import mc
from repro.tables.common import hours_cell, n_trials, render

PAPER = [
    {
        "method": "SRS",
        "task (paper)": "174 entities / 174 triples",
        "time h (paper)": "3.53",
        "estimation (paper)": "88% (MoE 4.85%)",
    },
    {
        "method": "TWCS (m=10)",
        "task (paper)": "24 entities / 178 triples",
        "time h (paper)": "1.4",
        "estimation (paper)": "90% (MoE 4.97%)",
    },
]


def compute(
    spark: SparkSession,
    *,
    movie_sf: float = 0.2,
    trials: int | None = None,
) -> list[dict]:
    """Single Spark-framework run per method + MC mean over trials.

    ``movie_sf`` scales the KG the Spark loop runs on (sampling cost is
    insensitive to population scale — the paper's own scalability
    argument); the MC averages always use the full-scale cluster
    population.
    """
    seed = 42
    kg = movie_like(sf=movie_sf)
    sdf = kg.to_spark(spark).cache()
    try:
        cfg = EvalConfig()
        runs = {
            "SRS": evaluate_static(sdf, design="srs", config=cfg, seed=seed),
            "TWCS (m=10)": evaluate_static(sdf, design="twcs", m=10, config=cfg, seed=seed),
        }
    finally:
        sdf.unpersist()

    pop = Population.from_synthetic(movie_like(sf=1.0))
    t = trials if trials is not None else n_trials(200)
    mc_sum = {
        "SRS": mc.run_trials(pop, "srs", n_trials=t, seed=seed),
        "TWCS (m=10)": mc.run_trials(pop, "twcs", m=10, n_trials=t, seed=seed),
    }

    rows = []
    for paper_row in PAPER:
        name = paper_row["method"]
        r, s = runs[name], mc_sum[name]
        ents = r.n_entities
        rows.append(
            {
                **paper_row,
                "task (ours)": f"{ents} entities / {r.n_triples} triples",
                "time h (ours)": f"{r.hours:.2f}",
                "estimation (ours)": f"{100 * r.estimate.mu_hat:.0f}% "
                f"(MoE {100 * r.estimate.moe:.2f}%)",
                "time h (ours, MC mean)": hours_cell(s),
            }
        )
    return rows


def table_text(rows: list[dict]) -> str:
    return render("Table 4: Manual evaluation cost (hours) on MOVIE (paper vs ours)", rows)

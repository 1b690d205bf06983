"""Table 7 — TWCS with stratification (Sec 5.3 / Sec 7.2.3).

Annotation cost of SRS, plain TWCS, TWCS with Cumulative-sqrt-F size
stratification, and TWCS with oracle stratification (strata by true
cluster accuracy) on NELL, MOVIE-SYN (BMM, c=0.01, sigma=0.1) and
MOVIE. Strata counts follow the paper: NELL 2, MOVIE/MOVIE-SYN 4.
Oracle stratification needs full gold labels, so on MOVIE the paper
reports N/A; we can compute it (synthetic labels are complete) and
report it as a bonus reference while keeping the paper's N/A visible.
"""
from __future__ import annotations

import numpy as np

from repro.core.cluster_stats import Population
from repro.core.stratification import (
    np_assign_stratum_by_size,
    np_assign_stratum_oracle,
    np_cum_sqrt_f_boundaries,
)
from repro.core.variance import optimal_m
from repro.kg.generator import movie_like, movie_syn, nell_like
from repro.sim import mc
from repro.tables.common import n_trials, render

PAPER = {
    ("NELL", "SRS"): ("2.3±0.45", "91.5%±2.1%"),
    ("NELL", "TWCS"): ("1.85±0.6", "91.6%±2.2%"),
    ("NELL", "TWCS size-strat"): ("1.90±0.53", "91.9%±2.3%"),
    ("NELL", "TWCS oracle-strat"): ("1.04±0.06", "91.4%±2.4%"),
    ("MOVIE-SYN", "SRS"): ("6.99±0.1", "61.7%±2%"),
    ("MOVIE-SYN", "TWCS"): ("5.25±0.46", "62%±2.3%"),
    ("MOVIE-SYN", "TWCS size-strat"): ("3.97±0.5", "61.8%±2%"),
    ("MOVIE-SYN", "TWCS oracle-strat"): ("2.87±0.3", "61.5%±2%"),
    ("MOVIE", "SRS"): ("3.53*", "90%"),
    ("MOVIE", "TWCS"): ("1.4*", "88%"),
    ("MOVIE", "TWCS size-strat"): ("1.3*", "88%"),
    ("MOVIE", "TWCS oracle-strat"): ("N/A", "N/A"),
}

_N_STRATA = {"NELL": 2, "MOVIE-SYN": 4, "MOVIE": 4}


def compute(*, movie_sf: float = 1.0, trials: int | None = None, seed: int = 2) -> list[dict]:
    t = trials if trials is not None else n_trials(1000)
    kgs = [
        ("NELL", Population.from_synthetic(nell_like())),
        ("MOVIE-SYN", Population.from_synthetic(movie_syn(sf=movie_sf))),
        ("MOVIE", Population.from_synthetic(movie_like(sf=movie_sf))),
    ]
    rows = []
    for kg_name, pop in kgs:
        h = _N_STRATA[kg_name]
        m_opt = optimal_m(pop.sizes, pop.cluster_accuracies, alpha=0.05, eps=0.05)
        size_strata = np_assign_stratum_by_size(
            pop.sizes, np_cum_sqrt_f_boundaries(pop.sizes, h)
        )
        oracle_strata = np_assign_stratum_oracle(pop.cluster_accuracies, h)
        variants: list[tuple[str, dict]] = [
            ("SRS", dict(design="srs")),
            ("TWCS", dict(design="twcs", m=m_opt)),
            ("TWCS size-strat", dict(design="twcs_stratified", m=m_opt, strata=size_strata)),
            ("TWCS oracle-strat", dict(design="twcs_stratified", m=m_opt, strata=oracle_strata)),
        ]
        for label, kw in variants:
            s = mc.run_trials(pop, n_trials=t, seed=seed, **kw)
            p_time, p_est = PAPER[(kg_name, label)]
            rows.append(
                {
                    "KG": kg_name,
                    "method": label + (f" (m={m_opt})" if "TWCS" in label else ""),
                    "cost h (paper)": p_time,
                    "cost h (ours)": f"{s.hours_mean:.2f}±{s.hours_sd:.2f}",
                    "estimation (paper)": p_est,
                    "estimation (ours)": f"{100 * s.mu_mean:.1f}%±{100 * s.mu_sd:.1f}%",
                }
            )
    return rows


def table_text(rows: list[dict]) -> str:
    return render(
        "Table 7: Evaluation cost (hours) of TWCS with stratification "
        "(* = paper's actual manual cost)",
        rows,
        list(rows[0].keys()),
    )

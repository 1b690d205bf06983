"""Shared plumbing for the Table harnesses.

Every ``tableN.py`` exposes ``compute(...) -> list[dict]`` returning one
dict per reported cell group with both the paper's number and ours, and
``table_text``, which is ``render`` under the table's title: the
paper-vs-measured text block that the jobs print and EXPERIMENTS.md
records. What the tables share is stated here once: the evaluation task
(``task_m``) and the Monte-Carlo summary cells (``hours_cell``,
``mu_cell``).
"""
from __future__ import annotations

import os
from typing import Any

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig
from repro.core.variance import optimal_m
from repro.sim.mc import TrialsSummary


def n_trials(default: int = 1000) -> int:
    """Monte-Carlo repetitions per cell; REPRO_TRIALS overrides.

    The paper uses 1,000, as the table jobs and benchmarks do; the
    evolving benchmarks pass smaller defaults to stay inside the harness
    time budget (documented in EXPERIMENTS.md).
    """
    return int(os.environ.get("REPRO_TRIALS", default))


def task_m(pop: Population) -> int:
    """Eq 12's TWCS second-stage size m for the default task, ``EvalConfig()``
    (MoE <= 5% at 95% confidence), as the paper runs TWCS."""
    cfg = EvalConfig()
    return optimal_m(pop.sizes, pop.cluster_accuracies, alpha=cfg.alpha, eps=cfg.eps)


def hours_cell(s: TrialsSummary) -> str:
    """Annotation hours, mean ± sd over the trials."""
    return f"{s.hours_mean:.2f}±{s.hours_sd:.2f}"


def mu_cell(kg: str, s: TrialsSummary, *, digits: int = 1) -> str:
    """The accuracy estimate on ``kg``, mean ± sd over the trials. On YAGO,
    whose accuracy is capped at 100%, the mean and the empirical 95%
    interval instead, since mean ± sd misrepresents the distribution there
    (Table 5's footnote)."""
    if kg == "YAGO":
        return f"{100 * s.mu_mean:.1f}% ({100 * s.mu_p025:.1f}%-{100 * s.mu_p975:.1f}%)"
    return f"{100 * s.mu_mean:.{digits}f}%±{100 * s.mu_sd:.1f}%"


def render(title: str, rows: list[dict[str, Any]]) -> str:
    """Fixed-width text table of the row dicts, one column per key of the first."""
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "-" * len(header)
    body = "\n".join(
        "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns) for r in rows
    )
    return f"{title}\n{sep}\n{header}\n{sep}\n{body}\n{sep}"

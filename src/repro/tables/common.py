"""Shared plumbing for the Table harnesses.

Every ``tableN.py`` exposes ``compute(...) -> list[dict]`` returning one
dict per reported cell group with both the paper's number and ours, and
``render(rows) -> str`` producing the paper-vs-measured text block that
the jobs print and EXPERIMENTS.md records.
"""
from __future__ import annotations

import os
from typing import Any


def n_trials(default: int = 1000) -> int:
    """Monte-Carlo repetitions per cell; REPRO_TRIALS overrides.

    The paper uses 1,000; benchmarks pass smaller defaults to stay
    inside the harness time budget (documented per table in
    EXPERIMENTS.md).
    """
    return int(os.environ.get("REPRO_TRIALS", default))


def render(title: str, rows: list[dict[str, Any]], columns: list[str]) -> str:
    """Fixed-width text table of the given row dicts."""
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "-" * len(header)
    body = "\n".join(
        "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns) for r in rows
    )
    return f"{title}\n{sep}\n{header}\n{sep}\n{body}\n{sep}"

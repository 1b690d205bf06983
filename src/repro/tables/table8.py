"""Table 8 — Summary of existing work on KG accuracy evaluation.

A qualitative feature matrix (Sec 8); no measurement involved. Rendered
here so every numbered table in the paper has a harness, and asserted
in tests against the implemented capabilities: our framework provides
unbiased estimation with a guaranteed confidence interval, exploits
annotation-cost properties, and supports evolving KGs — KGEval and SRS
each lack some of these.
"""
from __future__ import annotations

from repro.tables.common import render

ROWS = [
    {"feature": "Unbiased estimation with CI guarantee", "SRS": "yes", "KGEval": "no", "Ours": "yes"},
    {"feature": "Exploits annotation-cost properties", "SRS": "no", "KGEval": "yes", "Ours": "yes"},
    {"feature": "Efficient evolving-KG evaluation", "SRS": "no", "KGEval": "no", "Ours": "yes"},
]


def compute() -> list[dict]:
    return [dict(r) for r in ROWS]


def table_text() -> str:
    return render(
        "Table 8: Summary of existing work on KG accuracy evaluation",
        compute(),
        ["feature", "SRS", "KGEval", "Ours"],
    )

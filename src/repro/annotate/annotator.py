"""Simulated human annotator (substitutes MTurk workers; see DESIGN.md).

The real pipeline sends each Evaluation Task — a group of sampled
triples sharing a subject — to human annotators who identify the entity
(cost c1) and validate each triple (cost c2 each), returning 0/1 labels.
Here the gold label is already carried by the synthetic KG; "annotation"
reveals it and charges the paper's fitted cost model via a CostLedger.

The annotator is the *only* component allowed to read the ``label``
column of a sample; samplers and estimators must treat it as hidden.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from repro.core.cost import CostLedger


@dataclass
class SimulatedAnnotator:
    """Reveals gold labels of sampled triples and accounts their cost."""

    ledger: CostLedger = field(default_factory=CostLedger)

    def annotate_tasks(self, sample: pd.DataFrame) -> pd.DataFrame:
        """Annotate a cluster-design sample: one Task per ``draw_id``.

        ``sample`` must have columns (draw_id, subject, label). Returns
        a copy with labels revealed; charges c1 per draw and c2 per
        triple.
        """
        pdf = sample.copy()
        for _, grp in pdf.groupby("draw_id"):
            self.ledger.charge_task(len(grp))
        return pdf

    def annotate_triples(self, sample: pd.DataFrame) -> pd.DataFrame:
        """Annotate an SRS sample of individual triples.

        Triples are grouped by subject across *all* batches seen so far,
        so a subject already identified in a previous batch is not
        charged c1 again (Sec 5.1 cost analysis).
        """
        pdf = sample.copy()
        self.ledger.charge_srs_batch(pdf["subject"].tolist())
        return pdf

    @property
    def hours(self) -> float:
        return self.ledger.hours

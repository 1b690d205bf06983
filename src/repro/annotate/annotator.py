"""Simulated human annotator (substitutes MTurk workers; see DESIGN.md).

The real pipeline sends each Evaluation Task — a group of sampled
triples sharing a subject — to human annotators who identify the entity
(cost c1) and validate each triple (cost c2 each), returning 0/1 labels.
Here the gold label is already carried by the synthetic KG; "annotation"
reveals it. The annotator keeps no cost: each ``draw`` step reports its
batch's entities and triples to ``core.framework.sample_until``, which
charges Eq 4 on their sums.

The annotator is the *only* component allowed to read the ``label``
column of a sample; samplers and estimators must treat it as hidden.
"""
from __future__ import annotations

import pandas as pd


class SimulatedAnnotator:
    """Reveals gold labels of sampled triples."""

    def annotate_tasks(self, sample: pd.DataFrame) -> pd.DataFrame:
        """Annotate a cluster-design sample: one Task per ``draw_id``.

        ``sample`` must have columns (draw_id, subject, label). Returns
        a copy with labels revealed.
        """
        return sample.copy()

    def annotate_triples(self, sample: pd.DataFrame) -> pd.DataFrame:
        """Annotate an SRS sample of individual triples.

        ``sample`` must have columns (subject, label); the sample pool
        groups them by subject into Tasks (Sec 5.1). Returns a copy with
        labels revealed.
        """
        return sample.copy()

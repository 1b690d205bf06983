"""Tests for the simulated annotator (MTurk substitute)."""
import pandas as pd
import pytest

from repro.annotate.annotator import SimulatedAnnotator
from repro.core.cost import CostLedger, CostParams


def _task_sample():
    return pd.DataFrame(
        {
            "draw_id": [0, 0, 0, 1, 1],
            "subject": [7, 7, 7, 9, 9],
            "label": [1, 0, 1, 1, 1],
        }
    )


class TestAnnotateTasks:
    def test_labels_passed_through(self):
        ann = SimulatedAnnotator()
        out = ann.annotate_tasks(_task_sample())
        assert out["label"].tolist() == [1, 0, 1, 1, 1]

    def test_cost_charged_per_draw(self):
        ann = SimulatedAnnotator()
        ann.annotate_tasks(_task_sample())
        assert ann.ledger.n_identifications == 2
        assert ann.ledger.n_validations == 5

    def test_custom_cost_params(self):
        ann = SimulatedAnnotator(ledger=CostLedger(params=CostParams(c1=100, c2=0)))
        ann.annotate_tasks(_task_sample())
        assert ann.hours == pytest.approx(200 / 3600)


class TestAnnotateTriples:
    def test_srs_identification_dedup(self):
        ann = SimulatedAnnotator()
        ann.annotate_triples(pd.DataFrame({"subject": [1, 2, 2], "label": [1, 1, 0]}))
        ann.annotate_triples(pd.DataFrame({"subject": [2, 3], "label": [1, 1]}))
        assert ann.ledger.n_identifications == 3
        assert ann.ledger.n_validations == 5

"""Tests for the simulated annotator (MTurk substitute)."""
import pandas as pd

from repro.annotate.annotator import SimulatedAnnotator


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


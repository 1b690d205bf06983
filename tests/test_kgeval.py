"""Tests for the KGEval baseline substitute (coupling + inference)."""
import pandas as pd
import pytest

from repro.kg.generator import nell_like, yago_like
from repro.kgeval.coupling import build_coupling
from repro.kgeval.kgeval import _components, kgeval_evaluate


@pytest.fixture(scope="module")
def nell_rows():
    return nell_like().to_pandas()


class TestCouplingGraph:
    def test_triple_ids_dense_and_unique(self, nell_rows):
        triples, _ = build_coupling(nell_rows, mean_group=8.0, seed=1)
        assert sorted(triples["tid"]) == list(range(len(nell_rows)))

    def test_rule_groups_mean_size(self, nell_rows):
        triples, _ = build_coupling(nell_rows, mean_group=8.0, seed=1)
        mean = triples.groupby("rule_group").size().mean()
        assert mean == pytest.approx(8.0, rel=0.25)

    def test_rejects_mean_below_one(self, nell_rows):
        with pytest.raises(ValueError):
            build_coupling(nell_rows, mean_group=0.5, seed=1)

    def test_edges_undirected_canonical_and_distinct(self, nell_rows):
        _, e = build_coupling(nell_rows, mean_group=8.0, seed=2)
        assert (e["src"] < e["dst"]).all()
        assert len(e) == len(e.drop_duplicates())

    def test_same_subject_predicate_triples_coupled(self):
        pdf = pd.DataFrame(
            {
                "subject": [1, 1, 2],
                "predicate": [7, 7, 8],
                "object": [10, 11, 12],
                "label": [1, 1, 0],
            }
        )
        ids, e = build_coupling(pdf, mean_group=1000.0, seed=3)
        t0, t1 = ids[ids["subject"] == 1]["tid"].tolist()
        assert ((e["src"] == min(t0, t1)) & (e["dst"] == max(t0, t1))).any()


class TestComponents:
    def test_union_find(self):
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        comp = _components(4, edges)
        assert comp[0] == comp[1] == comp[2]
        assert comp[3] != comp[0]


class TestKGEvalEvaluate:
    @pytest.fixture(scope="class")
    def nell_coupled(self, nell_rows):
        return build_coupling(nell_rows, mean_group=8.0, seed=3)

    @pytest.fixture(scope="class")
    def nell_result(self, nell_coupled):
        """One full NELL run shared by the tests that read it. The soft-label
        sweep changes no hard label and draws no random number, so these
        runs skip it (``n_prop_iters=0``); Table 6's machine time keeps it."""
        triples, edges = nell_coupled
        return kgeval_evaluate(triples, edges, seed=3, n_prop_iters=0)

    def test_full_coverage_and_reasonable_estimate(self, nell_coupled, nell_result):
        triples, _ = nell_coupled
        r = nell_result
        assert r.coverage == pytest.approx(1.0)
        gold = triples["label"].mean()
        assert abs(r.mu_hat - gold) < 0.05

    def test_annotation_count_near_table6(self, nell_result):
        """Calibration target: ~140 annotations on NELL (Table 6)."""
        r = nell_result
        assert 80 <= r.n_annotated <= 220

    def test_costs_scattered_per_annotation(self, nell_result):
        r = nell_result
        assert r.annotation_hours == pytest.approx(r.n_annotated * 70 / 3600)

    def test_perfect_fidelity_on_tiny_graph(self):
        triples = pd.DataFrame({"tid": [0, 1, 2], "label": [1, 1, 1]})
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        r = kgeval_evaluate(triples, edges, seed=6, fidelity=1.0)
        assert r.mu_hat == 1.0
        assert r.n_annotated == 1  # one control triple covers the component

    def test_partial_coverage_target(self):
        triples = pd.DataFrame({"tid": range(10), "label": [1] * 10})
        edges = pd.DataFrame({"src": [], "dst": []})
        r = kgeval_evaluate(triples, edges, seed=7, coverage_target=0.5)
        assert 5 <= r.n_annotated <= 6  # singleton components, half covered

    def test_machine_time_measured(self, nell_result):
        r = nell_result
        assert r.machine_seconds > 0

    def test_independent_of_row_order(self, nell_rows, nell_coupled, nell_result):
        """The graph, and so the estimate, depend only on the KG's content
        and the seed: shuffled input rows give the same evaluation."""
        shuffled = nell_rows.sample(frac=1.0, random_state=0, ignore_index=True)
        triples, edges = build_coupling(shuffled, mean_group=8.0, seed=3)
        pd.testing.assert_frame_equal(triples, nell_coupled[0])
        pd.testing.assert_frame_equal(edges, nell_coupled[1])
        r = kgeval_evaluate(triples, edges, seed=3, n_prop_iters=0)
        assert (r.mu_hat, r.n_annotated, r.coverage) == (
            nell_result.mu_hat,
            nell_result.n_annotated,
            nell_result.coverage,
        )

    def test_yago_annotation_count(self):
        """~204 annotations on YAGO (Table 6) with mean_group=6."""
        triples, edges = build_coupling(yago_like().to_pandas(), mean_group=6.0, seed=9)
        r = kgeval_evaluate(triples, edges, seed=9, n_prop_iters=0)
        assert 140 <= r.n_annotated <= 280

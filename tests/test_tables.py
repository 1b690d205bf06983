"""Smoke + shape tests for the table harnesses (paper-vs-measured rows).

Small scale factors / trial counts keep these fast; the shape assertions
(which method wins, roughly by how much) are the reproduction contract.
"""
from pathlib import Path

import numpy as np
import pytest

from repro.core.cluster_stats import Population
from repro.evolving.stratified_inc import StratifiedIncrementalEvaluator
from repro.kg import updates
from repro.kg.generator import movie_like
from repro.kg.updates import update_sequence
from repro.tables import evolving, table3, table4, table5, table6, table7, table8
from repro.tables.common import render


def _col(rows, kg, method, col):
    for r in rows:
        if r.get("KG", "").startswith(kg) and r["method"].startswith(method):
            return r[col]
    raise KeyError((kg, method))


def _hours(cell: str) -> float:
    return float(cell.split("±")[0])


def _pinned(name: str) -> str:
    """The text ``tests/pins/<name>.txt`` records, without its final newline."""
    return (Path(__file__).parent / "pins" / f"{name}.txt").read_text()[:-1]


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return table3.compute(spark, movie_sf=0.003, movie_full_sf=0.001)

    def test_all_four_kgs_reported(self, rows):
        assert [r["KG"].split(" ")[0] for r in rows] == [
            "NELL",
            "YAGO",
            "MOVIE",
            "MOVIE-FULL",
        ]

    def test_nell_yago_match_paper_counts(self, rows):
        assert rows[0]["entities (ours)"] == 817
        assert rows[1]["entities (ours)"] == 822

    def test_avg_cluster_sizes_shape(self, rows):
        assert abs(rows[2]["avg size (ours)"] - 9.2) / 9.2 < 0.15
        assert abs(rows[3]["avg size (ours)"] - 9.0) / 9.0 < 0.15

    def test_renders(self, rows):
        text = table3.table_text(rows)
        assert "NELL" in text and "MOVIE-FULL" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return table4.compute(spark, movie_sf=0.02, trials=20)

    def test_twcs_cheaper_than_srs(self, rows):
        srs = float(rows[0]["time h (ours)"])
        twcs = float(rows[1]["time h (ours)"])
        assert twcs < srs

    def test_estimates_near_90(self, rows):
        for r in rows:
            est = float(r["estimation (ours)"].split("%")[0])
            assert 80 <= est <= 100

    def test_renders(self, rows):
        assert "TWCS" in table4.table_text(rows)


class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self):
        return table5.compute(movie_sf=0.02, trials=25)

    def test_twcs_is_cheapest_on_movie_and_nell(self, rows):
        for kg in ("MOVIE", "NELL"):
            twcs = _hours(_col(rows, kg, "TWCS", "time h (ours)"))
            for other in ("SRS", "RCS", "WCS"):
                assert twcs <= _hours(_col(rows, kg, other, "time h (ours)")) * 1.15

    def test_rcs_is_by_far_the_worst(self, rows):
        for kg in ("MOVIE", "NELL", "YAGO"):
            rcs = _hours(_col(rows, kg, "RCS", "time h (ours)"))
            srs = _hours(_col(rows, kg, "SRS", "time h (ours)"))
            assert rcs > 2 * srs

    def test_estimates_unbiased(self, rows):
        gold = {"MOVIE": 90.0, "NELL": 90.7, "YAGO": 99.1}
        for kg, g in gold.items():
            for meth in ("SRS", "WCS", "TWCS"):
                est = float(_col(rows, kg, meth, "estimation (ours)").split("%")[0])
                assert abs(est - g) < 4.0

    def test_renders(self, rows):
        assert "Table 5" in table5.table_text(rows)

    def test_text_is_pinned(self, rows):
        assert table5.table_text(rows) == _pinned("table5")


class TestTable6:
    @pytest.fixture(scope="class")
    def rows(self):
        return table6.compute(trials=30)

    def test_twcs_beats_kgeval_on_annotation_cost(self, rows):
        for kg in ("NELL", "YAGO"):
            kge = _hours(_col(rows, kg, "KGEval", "annotation h (ours)"))
            twcs = _hours(_col(rows, kg, "TWCS", "annotation h (ours)"))
            assert twcs < kge

    def test_kgeval_machine_time_dominates(self, rows):
        for kg in ("NELL", "YAGO"):
            kge_s = float(_col(rows, kg, "KGEval", "machine time (ours)").split(" ")[0])
            twcs_ms = float(_col(rows, kg, "TWCS", "machine time (ours)").split(" ")[0])
            assert kge_s * 1000 > 50 * twcs_ms

    def test_renders(self, rows):
        assert "KGEval" in table6.table_text(rows)

    def test_text_is_pinned(self, rows):
        """Every cell but the measured machine times, which vary run to run."""
        masked = [{**r, "machine time (ours)": "masked"} for r in rows]
        assert table6.table_text(masked) == _pinned("table6")


class TestTable7:
    @pytest.fixture(scope="class")
    def rows(self):
        return table7.compute(movie_sf=0.02, trials=25)

    def test_oracle_strat_is_cheapest_twcs_variant(self, rows):
        for kg in ("NELL", "MOVIE-SYN"):
            oracle = _hours(_col(rows, kg, "TWCS oracle-strat", "cost h (ours)"))
            plain = _hours(_col(rows, kg, "TWCS (", "cost h (ours)"))
            assert oracle < plain * 1.05

    def test_size_strat_helps_on_movie_syn(self, rows):
        """BMM correlates accuracy with size, so size strata must help."""
        strat = _hours(_col(rows, "MOVIE-SYN", "TWCS size-strat", "cost h (ours)"))
        plain = _hours(_col(rows, "MOVIE-SYN", "TWCS (", "cost h (ours)"))
        assert strat < plain * 1.05

    def test_srs_is_most_expensive_on_movie_syn(self, rows):
        srs = _hours(_col(rows, "MOVIE-SYN", "SRS", "cost h (ours)"))
        for meth in ("TWCS (", "TWCS size-strat", "TWCS oracle-strat"):
            assert _hours(_col(rows, "MOVIE-SYN", meth, "cost h (ours)")) < srs

    def test_renders(self, rows):
        assert "stratification" in table7.table_text(rows)

    def test_text_is_pinned(self, rows):
        assert table7.table_text(rows) == _pinned("table7")


class TestTable8:
    def test_feature_matrix(self):
        rows = table8.compute()
        assert len(rows) == 3
        assert all(r["Ours"] == "yes" for r in rows)
        assert table8.table_text().count("yes") >= 5

    def test_text_is_pinned(self):
        assert table8.table_text() == _pinned("table8")


class TestEvolvingHarness:
    @pytest.fixture(scope="class")
    def single(self):
        return evolving.single_batch_rows(base_sf=0.02, trials=3)

    @pytest.fixture(scope="class")
    def sequence(self):
        return evolving.sequence_rows(base_sf=0.02, n_batches=3, trials=3)

    def test_single_batch_rows_shape(self, single):
        assert len(single) == 6
        for r in single:
            assert float(r["SS h"]) <= float(r["Baseline h"])

    def test_single_batch_rows_are_pinned(self, single):
        assert evolving.text(single, "Fig 8") == _pinned("fig8")

    def test_sequence_rows_are_pinned(self, sequence):
        assert evolving.text(sequence, "Fig 9-1") == _pinned("fig9")

    def test_corrupted_sequence_rows_are_pinned(self):
        rows = evolving.sequence_rows(base_sf=0.02, n_batches=3, trials=3, corrupt=0.75)
        assert evolving.text(rows, "Fig 9-2/3") == _pinned("fig9_corrupt")

    def test_sequence_rows_track_truth(self, sequence):
        last = sequence[-1]
        truth = float(last["truth"].rstrip("%"))
        for k in ("RS est", "SS est"):
            assert abs(float(last[k].rstrip("%")) - truth) < 5.0

    def test_sequence_truth_is_the_mean_over_trials(self):
        """Each trial draws its own update sequence (trial k of 2-update
        sequences starts at seed 77 + 31 (3k + 1)), so the truth column
        averages their accuracies as the estimates do."""
        base = Population.from_synthetic(movie_like(sf=0.002, seed=21))
        truth = np.zeros((3, 3))
        for k in range(3):
            deltas = update_sequence(
                n_batches=2, n_triples_each=int(base.n_triples * 0.1), accuracy=0.9,
                seed=77 + 31 * (3 * k + 1), subject_offset=10_000_000,
            )
            pops = [base] + [Population.from_synthetic(d) for d in deltas]
            truth[k] = [Population.concat(pops[: b + 1]).mu for b in range(3)]
        rows = evolving.sequence_rows(base_sf=0.002, n_batches=2, trials=3)
        assert [r["truth"] for r in rows] == [f"{100 * x:.1f}%" for x in truth.mean(axis=0)]


class TestEvolvingSeeds:
    """No two trials share an update batch, and no update batch shares its
    random stream with an evaluator's."""

    @pytest.fixture
    def seeds(self, monkeypatch):
        seen: dict[str, list[int]] = {"update": [], "evaluator": []}

        def recording(fn):
            def wrapper(**kw):
                seen["update"].append(kw["seed"])
                return fn(**kw)

            return wrapper

        # update_sequence draws each of its batches through updates.update_batch.
        monkeypatch.setattr(updates, "update_batch", recording(updates.update_batch))
        monkeypatch.setattr(evolving, "update_batch", recording(evolving.update_batch))
        initialise = StratifiedIncrementalEvaluator.initialise

        def recording_initialise(ev, pop, rng):
            seen["evaluator"].append(int(rng.bit_generator.seed_seq.entropy))
            return initialise(ev, pop, rng)

        monkeypatch.setattr(StratifiedIncrementalEvaluator, "initialise", recording_initialise)
        return seen

    def test_sequence_rows(self, seeds):
        evolving.sequence_rows(base_sf=0.002, n_batches=2, trials=3)
        assert len(set(seeds["update"])) == len(seeds["update"]) == 6
        assert len(set(seeds["evaluator"])) == 3
        assert not set(seeds["update"]) & set(seeds["evaluator"])

    def test_single_batch_rows(self, seeds):
        """Each of the six settings runs the same three trials."""
        evolving.single_batch_rows(base_sf=0.002, trials=3)
        assert len(seeds["update"]) == 18 and len(set(seeds["update"])) == 3
        assert len(set(seeds["evaluator"])) == 3
        assert not set(seeds["update"]) & set(seeds["evaluator"])


class TestRender:
    def test_fixed_width_alignment(self):
        text = render("T", [{"a": 1, "bb": "x"}, {"a": 22, "bb": "yyy"}])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:4]}) >= 1

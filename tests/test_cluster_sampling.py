"""Tests for RCS/WCS/TWCS samplers and estimators (Sec 5.2)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import cluster_sampling as cs
from repro.core.cluster_stats import Population
from repro.kg.generator import SyntheticKG, nell_like
from repro.oracle import assert_equivalent
from repro.sim import mc


@pytest.fixture(scope="module")
def nell():
    return nell_like()


@pytest.fixture(scope="module")
def nell_df(spark):
    return nell_like().to_spark(spark).cache()


@pytest.fixture(scope="module")
def pop(nell):
    return Population.from_synthetic(nell)


def pps_subjects(pop, n, *, seed):
    """Subjects of n PPS draws."""
    return pop.subjects[cs.weighted_cluster_draws(pop.cum_sizes, n, np.random.default_rng(seed))]


def sample(nell_df, subjects, m, *, seed):
    """The second-stage sample of ``subjects`` as an evaluation batch takes it."""
    triples = cs.draws_to_triples(nell_df, subjects)
    return cs.second_stage_sample(triples, subjects, m, np.random.default_rng(seed))


class TestWeightedDraws:
    def test_exact_draw_count_with_replacement(self, nell_df, pop):
        draws = sample(nell_df, pps_subjects(pop, 40, seed=1), None, seed=1)
        assert sorted(draws["draw_id"].unique()) == list(range(40))

    def test_pps_inclusion_frequencies(self, pop, nell):
        """Cluster selection frequency tracks M_i / M (Hansen-Hurwitz)."""
        draws = pd.Series(pps_subjects(pop, 3000, seed=2))
        merged = draws.groupby(draws).size()
        # Compare aggregate frequency of size-1 vs larger clusters.
        sizes = pd.Series(nell.sizes, index=nell.subjects())
        freq_by_size = merged.groupby(sizes.reindex(merged.index)).sum()
        n1 = int((sizes == 1).sum())
        expected_share_1 = n1 * 1 / nell.n_triples
        got_share_1 = freq_by_size.get(1, 0) / 3000
        assert got_share_1 == pytest.approx(expected_share_1, rel=0.15)

    def test_rejects_nonpositive_n(self, pop):
        with pytest.raises(ValueError):
            cs.weighted_cluster_draws(pop.cum_sizes, 0, np.random.default_rng(1))

    def test_same_kernel_as_mc(self, pop):
        """The Spark evaluation and the MC layer draw the same clusters."""
        a = mc._pps_draws(pop, 500, np.random.default_rng(3))
        b = cs.weighted_cluster_draws(pop.cum_sizes, 500, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


def distinct_subjects(pop, n, *, seed):
    """PPS draws with repeated subjects dropped: one draw per cluster."""
    return np.unique(pps_subjects(pop, n, seed=seed))


class TestDrawsToTriples:
    def test_full_clusters_recovered(self, nell_df, pop, nell):
        triples = cs.draws_to_triples(nell_df, distinct_subjects(pop, 10, seed=4))
        got = triples.groupby("subject").size().sort_index()
        sizes = pd.Series(nell.sizes, index=nell.subjects())
        assert (got == sizes.reindex(got.index)).all()

    def test_oracle_join_equivalence(self, spark, nell_df, pop, nell):
        subjects = distinct_subjects(pop, 8, seed=5)
        triples = cs.draws_to_triples(nell_df, subjects)
        got = spark.createDataFrame(triples.groupby("subject").size().reset_index(name="n"))
        assert_equivalent(
            got,
            "SELECT kg.subject AS subject, COUNT(*) AS n FROM kg "
            "JOIN draws ON kg.subject = draws.subject GROUP BY kg.subject",
            kg=nell.to_pandas(),
            draws=pd.DataFrame({"subject": subjects}),
        )


class TestFetchFilter:
    """``draws_to_triples`` sends its filter as one SQL expression."""

    @staticmethod
    def gateway_commands(spark, monkeypatch, fn):
        """py4j commands sent while ``fn`` runs, object releases not counted
        (those follow Python's garbage collector, not the call)."""
        client = spark.sparkContext._gateway._gateway_client
        send, sent = client.send_command, []

        def counting(command, *args, **kwargs):
            if not command.startswith("m\n"):
                sent.append(command)
            return send(command, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(client, "send_command", counting)
            fn()
        return len(sent)

    def test_command_count_does_not_grow_with_draws(self, spark, monkeypatch, nell_df, pop):
        counts = [
            self.gateway_commands(
                spark, monkeypatch, lambda: cs.draws_to_triples(nell_df, pop.subjects[:k])
            )
            for k in (2, 500)
        ]
        assert counts[0] == counts[1]

    def test_large_subject_ids_match_isin(self, spark):
        """Subjects past 2**31 are fetched as BIGINTs, as ``isin`` fetches them."""
        sizes, taus = np.array([3, 1, 4, 2]), np.array([2, 1, 4, 0])
        kg = SyntheticKG("offset", sizes, taus, 5, subject_offset=2**40)
        df = kg.to_spark(spark)
        wanted = kg.subjects()[[0, 2, 3]]
        got = cs.draws_to_triples(df, wanted[[2, 0, 1, 0]])
        want = (
            df.filter(F.col("subject").isin(wanted.tolist()))
            .select("subject", "predicate", "object", "label")
            .toPandas()
            .sort_values(["subject", "predicate", "object"], ignore_index=True)
        )
        assert len(got) == 9
        pd.testing.assert_frame_equal(got, want)

    def test_no_subjects_rejected(self, nell_df):
        with pytest.raises(ValueError, match="no subjects"):
            cs.draws_to_triples(nell_df, np.array([], dtype=np.int64))


class TestSecondStage:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_caps_per_draw_size(self, nell_df, pop, m):
        s = sample(nell_df, pps_subjects(pop, 30, seed=6), m, seed=7)
        per_draw = s.groupby("draw_id").size()
        assert (per_draw <= m).all()
        assert len(per_draw) == 30  # every draw yields >= 1 triple

    def test_takes_min_of_size_and_m(self, nell_df, pop, nell):
        m = 3
        subjects = pps_subjects(pop, 50, seed=8)
        s = sample(nell_df, subjects, m, seed=9)
        sizes = pd.Series(nell.sizes, index=nell.subjects())
        per_draw = s.groupby("draw_id").size()
        for did, cnt in per_draw.items():
            assert cnt == min(int(sizes.loc[subjects[did]]), m)

    def test_within_cluster_without_replacement(self, nell_df, pop):
        s = sample(nell_df, pps_subjects(pop, 20, seed=10), 5, seed=11)
        dup = s.groupby(["draw_id", "subject", "predicate", "object", "label"]).size()
        assert (dup == 1).all()


class TestEstimators:
    def test_rcs_estimator_formula(self):
        # v_k = (N/M) tau_k; Eq 7.
        e = cs.estimate_rcs(np.array([2, 0, 4]), n_clusters=10, n_triples=40, alpha=0.05)
        v = 0.25 * np.array([2.0, 0, 4])
        assert e.mu_hat == pytest.approx(v.mean())

    def test_cluster_means_estimator(self):
        e = cs.estimate_cluster_means(np.array([0.5, 1.0, 0.75]), alpha=0.05)
        assert e.mu_hat == pytest.approx(0.75)
        assert e.n_units == 3

    def test_empty_inputs(self):
        assert cs.estimate_cluster_means(np.array([]), alpha=0.05).moe == float("inf")
        assert (
            cs.estimate_rcs(np.array([]), n_clusters=5, n_triples=10, alpha=0.05).moe
            == float("inf")
        )

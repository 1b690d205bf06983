"""Tests for RCS/WCS/TWCS Spark samplers and estimators (Sec 5.2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import cluster_sampling as cs
from repro.core.cluster_stats import Population, cluster_stats_df
from repro.kg.generator import nell_like
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def nell():
    return nell_like()


@pytest.fixture(scope="module")
def nell_df(spark):
    return nell_like().to_spark(spark).cache()


@pytest.fixture(scope="module")
def clusters(nell_df):
    return cluster_stats_df(nell_df).cache()


class TestIntervals:
    def test_intervals_partition_the_triple_range(self, spark, clusters, nell):
        iv = cs._with_intervals(clusters).orderBy("subject").toPandas()
        assert iv["cum_start"].iloc[0] == 0
        assert iv["cum_end"].iloc[-1] == nell.n_triples
        # contiguity: next start == previous end
        assert (iv["cum_start"].to_numpy()[1:] == iv["cum_end"].to_numpy()[:-1]).all()
        assert ((iv["cum_end"] - iv["cum_start"]).to_numpy() == iv["size"].to_numpy()).all()


class TestWeightedDraws:
    def test_exact_draw_count_with_replacement(self, clusters):
        draws = cs.weighted_cluster_draws(clusters, 40, seed=1).toPandas()
        assert len(draws) == 40
        assert sorted(draws["draw_id"]) == list(range(40))

    def test_draw_id_offset(self, clusters):
        draws = cs.weighted_cluster_draws(clusters, 5, seed=1, draw_id_offset=100).toPandas()
        assert sorted(draws["draw_id"]) == list(range(100, 105))

    def test_pps_inclusion_frequencies(self, clusters, nell):
        """Cluster selection frequency tracks M_i / M (Hansen-Hurwitz)."""
        draws = cs.weighted_cluster_draws(clusters, 3000, seed=2).toPandas()
        merged = draws.groupby("subject").size()
        # Compare aggregate frequency of size-1 vs larger clusters.
        sizes = pd.Series(nell.sizes, index=nell.subjects())
        freq_by_size = merged.groupby(sizes.reindex(merged.index)).sum()
        n1 = int((sizes == 1).sum())
        expected_share_1 = n1 * 1 / nell.n_triples
        got_share_1 = freq_by_size.get(1, 0) / 3000
        assert got_share_1 == pytest.approx(expected_share_1, rel=0.15)

    def test_rejects_nonpositive_n(self, clusters):
        with pytest.raises(ValueError):
            cs.weighted_cluster_draws(clusters, 0, seed=1)


def distinct_draws(clusters, n, *, seed):
    """PPS draws with repeated subjects dropped: one draw per cluster."""
    return cs.weighted_cluster_draws(clusters, n, seed=seed).dropDuplicates(["subject"])


class TestDrawsToTriples:
    def test_full_clusters_recovered(self, spark, nell_df, clusters, nell):
        draws = distinct_draws(clusters, 10, seed=4)
        triples = cs.draws_to_triples(nell_df, draws).toPandas()
        got = triples.groupby("subject").size().sort_index()
        sizes = pd.Series(nell.sizes, index=nell.subjects())
        assert (got == sizes.reindex(got.index)).all()

    def test_oracle_join_equivalence(self, spark, nell_df, clusters, nell):
        draws = distinct_draws(clusters, 8, seed=5)
        got = (
            cs.draws_to_triples(nell_df, draws)
            .groupBy("subject")
            .count()
            .withColumnRenamed("count", "n")
        )
        assert_equivalent(
            got,
            "SELECT kg.subject AS subject, COUNT(*) AS n FROM kg "
            "JOIN draws ON kg.subject = draws.subject GROUP BY kg.subject",
            kg=nell.to_pandas(),
            draws=draws.toPandas(),
        )


class TestSecondStage:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_caps_per_draw_size(self, nell_df, clusters, m):
        draws = cs.weighted_cluster_draws(clusters, 30, seed=6)
        sample = cs.second_stage_sample(nell_df, draws, m, seed=7).toPandas()
        per_draw = sample.groupby("draw_id").size()
        assert (per_draw <= m).all()
        assert len(per_draw) == 30  # every draw yields >= 1 triple

    def test_takes_min_of_size_and_m(self, nell_df, clusters, nell):
        m = 3
        draws = cs.weighted_cluster_draws(clusters, 50, seed=8).toPandas()
        sample = cs.second_stage_sample(
            nell_df, nell_df.sparkSession.createDataFrame(draws), m, seed=9
        ).toPandas()
        sizes = pd.Series(nell.sizes, index=nell.subjects())
        per_draw = sample.groupby("draw_id").size()
        for did, cnt in per_draw.items():
            subj = draws.set_index("draw_id").loc[did, "subject"]
            assert cnt == min(int(sizes.loc[subj]), m)

    def test_within_cluster_without_replacement(self, nell_df, clusters):
        draws = cs.weighted_cluster_draws(clusters, 20, seed=10)
        sample = cs.second_stage_sample(nell_df, draws, 5, seed=11).toPandas()
        dup = sample.groupby(["draw_id", "subject", "predicate", "object", "label"]).size()
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

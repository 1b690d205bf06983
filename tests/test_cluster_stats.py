"""Tests for repro.core.cluster_stats, oracle-checked against DuckDB."""
import numpy as np
import pytest

from repro.core.cluster_stats import Population, cluster_stats_df
from repro.kg.generator import nell_like
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def nell_kg():
    return nell_like()


class TestClusterStatsDf:
    def test_oracle_equivalence(self, spark, nell_kg):
        """The Spark groupBy matches the same SQL evaluated by DuckDB."""
        pdf = nell_kg.to_pandas()
        df = spark.createDataFrame(pdf)
        got = cluster_stats_df(df)
        assert_equivalent(
            got,
            "SELECT subject, COUNT(*) AS size FROM kg GROUP BY subject",
            kg=pdf,
        )

    def test_oracle_detects_wrong_result(self, spark, nell_kg):
        """The oracle check has teeth: an off-by-one size is caught."""
        pdf = nell_kg.to_pandas()
        got = cluster_stats_df(spark.createDataFrame(pdf))
        wrong = got.withColumn("size", got["size"] + 1)
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT subject, COUNT(*) AS size FROM kg GROUP BY subject",
                kg=pdf,
            )

    def test_matches_generator_arrays(self, spark, nell_kg):
        got = cluster_stats_df(nell_kg.to_spark(spark)).toPandas().sort_values("subject")
        assert (got["subject"].to_numpy() == nell_kg.subjects()).all()
        assert (got["size"].to_numpy() == nell_kg.sizes).all()


class TestPopulation:
    def test_summary_properties(self):
        pop = Population(
            subjects=np.array([0, 1, 2]),
            sizes=np.array([2, 3, 5]),
            taus=np.array([1, 3, 5]),
        )
        assert pop.n_clusters == 3
        assert pop.n_triples == 10
        assert pop.mu == pytest.approx(0.9)
        assert np.allclose(pop.cluster_accuracies, [0.5, 1.0, 1.0])

"""Tests for the synthetic KG generators (Table 3 data characteristics)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cluster_stats import Population
from repro.core.framework import evaluate_static
from repro.kg.generator import (
    SyntheticKG,
    movie_full_like,
    movie_like,
    movie_syn,
    nell_like,
    yago_like,
)


class TestProfiles:
    def test_nell_matches_table3(self):
        kg = nell_like()
        assert kg.n_entities == 817
        assert kg.n_triples == pytest.approx(1860, rel=0.08)
        assert kg.avg_cluster_size == pytest.approx(2.3, rel=0.08)
        assert kg.accuracy == pytest.approx(0.91, abs=0.02)

    def test_nell_long_tail_shape(self):
        # Sec 7.2.2: >98% (we accept >=95%) of NELL clusters below size 5.
        kg = nell_like()
        assert (kg.sizes < 5).mean() >= 0.95

    def test_yago_matches_table3(self):
        kg = yago_like()
        assert kg.n_entities == 822
        assert kg.n_triples == pytest.approx(1386, rel=0.08)
        assert kg.avg_cluster_size == pytest.approx(1.7, rel=0.08)
        assert kg.accuracy == pytest.approx(0.99, abs=0.01)

    def test_movie_scales_with_sf(self):
        kg = movie_like(sf=0.01)
        assert kg.n_entities == round(288_770 * 0.01)
        assert kg.avg_cluster_size == pytest.approx(9.2, rel=0.1)
        assert kg.accuracy == pytest.approx(0.9, abs=0.02)

    def test_movie_has_heavy_tail(self):
        kg = movie_like(sf=0.1)
        assert kg.sizes.max() > 100  # "hundreds or even thousands" (Sec 5.2.3)

    def test_movie_syn_bmm_accuracy_band(self):
        # Paper reports gold accuracy 62% for c=0.01, sigma=0.1 (Table 7).
        kg = movie_syn(sf=0.05, c=0.01, sigma=0.1)
        assert 0.55 <= kg.accuracy <= 0.68

    def test_movie_full_profile(self):
        kg = movie_full_like(sf=0.01)
        assert kg.n_entities == round(14_495_142 * 0.01)
        assert kg.avg_cluster_size == pytest.approx(9.0, rel=0.1)

    @pytest.mark.parametrize("gen", [nell_like, yago_like])
    def test_deterministic_in_seed(self, gen):
        a, b = gen(seed=5), gen(seed=5)
        assert (a.sizes == b.sizes).all() and (a.taus == b.taus).all()
        c = gen(seed=6)
        assert not (a.taus == c.taus).all()


class TestSyntheticKGInvariants:
    def test_rejects_tau_above_size(self):
        with pytest.raises(ValueError):
            SyntheticKG("bad", np.array([2]), np.array([3]), 0)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            SyntheticKG("bad", np.array([0]), np.array([0]), 0)

    def test_cluster_accuracies(self):
        kg = SyntheticKG("t", np.array([2, 4]), np.array([1, 4]), 0)
        assert np.allclose(Population.from_synthetic(kg).cluster_accuracies, [0.5, 1.0])
        assert kg.accuracy == pytest.approx(5 / 6)

    def test_subject_offset_shifts_ids(self):
        kg = SyntheticKG("t", np.array([1, 1]), np.array([1, 0]), 0, subject_offset=100)
        assert (kg.subjects() == [100, 101]).all()


class TestPandasExpansion:
    def test_layout_matches_cluster_stats(self):
        kg = nell_like()
        pdf = kg.to_pandas()
        assert len(pdf) == kg.n_triples
        g = pdf.groupby("subject")["label"].agg(["count", "sum"]).sort_index()
        assert (g["count"].to_numpy() == kg.sizes).all()
        assert (g["sum"].to_numpy() == kg.taus).all()

    def test_labels_are_binary(self):
        pdf = yago_like().to_pandas()
        assert set(pdf["label"].unique()) <= {0, 1}

    def test_cluster_pdf_round_trip(self):
        kg = movie_like(sf=0.001)
        cl = kg.cluster_pdf()
        assert (cl["size"].to_numpy() == kg.sizes).all()
        assert (cl["tau"].to_numpy() == kg.taus).all()


class TestSparkMaterialisation:
    def test_small_kg_to_spark(self, spark):
        kg = yago_like()
        df = kg.to_spark(spark)
        assert df.count() == kg.n_triples
        acc = df.agg({"label": "avg"}).collect()[0][0]
        assert acc == pytest.approx(kg.accuracy, abs=1e-9)

    def test_distributed_path_matches_cluster_stats(self, spark):
        kg = movie_like(sf=0.002)
        df = kg.to_spark(spark)
        got = (
            df.groupBy("subject")
            .agg({"label": "sum", "*": "count"})
            .toPandas()
            .set_index("subject")
            .sort_index()
        )
        assert (got["count(1)"].to_numpy() == kg.sizes).all()
        assert (got["sum(label)"].to_numpy() == kg.taus).all()

    def test_never_expands_in_the_driver(self, spark, monkeypatch):
        def refuse(self):
            raise AssertionError("to_spark called to_pandas")

        monkeypatch.setattr(SyntheticKG, "to_pandas", refuse)
        kg = nell_like()
        assert kg.to_spark(spark).count() == kg.n_triples

    def test_agrees_with_to_pandas_per_cluster(self, spark):
        """The two materialisations share (subject, size, sum of labels)
        per cluster; predicate and object differ by design."""
        kg = movie_like(sf=0.002)
        want = (
            kg.to_pandas().groupby("subject")["label"].agg(["count", "sum"]).reset_index()
        )
        got = (
            kg.to_spark(spark)
            .groupBy("subject")
            .agg(F.count("*").alias("count"), F.sum("label").alias("sum"))
            .toPandas()
            .sort_values("subject", ignore_index=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_schema(self, spark):
        assert nell_like().to_spark(spark).dtypes == [
            ("subject", "bigint"),
            ("predicate", "int"),
            ("object", "bigint"),
            ("label", "int"),
        ]

    def test_distributed_path_independent_of_partitioning(self, spark, monkeypatch):
        """Every row's content is fixed by the seed, not by how Spark
        splits the entity table."""
        kg = movie_like(sf=0.002)
        cols = ["subject", "predicate", "object", "label"]

        def rows():
            pdf = kg.to_spark(spark).toPandas()
            return pdf.sort_values(cols, ignore_index=True)

        want = rows()
        create = spark.createDataFrame
        monkeypatch.setattr(
            spark, "createDataFrame", lambda *a, **kw: create(*a, **kw).repartition(7)
        )
        pd.testing.assert_frame_equal(rows(), want)


class TestLocalCheckpoint:
    """``to_spark`` checkpoints the entity table it builds from driver data."""

    def test_frame_holds_no_driver_data(self, spark):
        """A cached frame's tasks carry partition ids, not the driver's rows:
        no ``ParallelCollectionRDD`` is left in its lineage."""
        df = movie_like(sf=0.002).to_spark(spark).cache()
        try:
            df.count()
            lineage = df._jdf.queryExecution().toRdd().toDebugString()
        finally:
            df.unpersist()
        assert "ParallelCollectionRDD" not in lineage

    @pytest.mark.parametrize("sf", [0.02, 0.002])
    def test_checkpoint_moves_no_sample(self, spark, monkeypatch, sf):
        """SRS's rand(seed) prefix and TWCS's draws are the same on the
        checkpointed frame as on one built with ``localCheckpoint`` made a
        no-op."""
        kg = movie_like(sf=sf)

        def results(df):
            df = df.cache()
            try:
                return [
                    evaluate_static(df, design=design, m=m, seed=seed)
                    for design, m in (("srs", None), ("twcs", 10))
                    for seed in (1, 42)
                ]
            finally:
                df.unpersist()

        got = results(kg.to_spark(spark))
        monkeypatch.setattr(DataFrame, "localCheckpoint", lambda self, *a, **kw: self)
        assert got == results(kg.to_spark(spark))

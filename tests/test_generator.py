"""Tests for the synthetic KG generators (Table 3 data characteristics)."""
import hashlib

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
from repro.kg.updates import update_batch, update_sequence


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
        kg = movie_syn(sf=0.05)
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


def _digest(kg: SyntheticKG) -> str:
    """sha256 of a KG's name, seed, sizes, tau_i and subject ids."""
    h = hashlib.sha256(f"{kg.name}|{kg.seed}".encode())
    for a in (kg.sizes, kg.taus, kg.subjects()):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


class TestGoldenDraws:
    """Every profile, at its defaults and one other seed or sf, and update
    batches, pinned to the exact sizes, tau_i and subject ids they draw.
    Any change to the draw order or the profile constants changes them,
    and so would every table."""

    @pytest.mark.parametrize(
        "gen, kw, want",
        [
            (nell_like, {}, "be3c38fbbdc339cedc74042735f0df74d76abef238d88bf62808445075178327"),
            (nell_like, {"seed": 8}, "93570e8a6adc5133cd14f4de2787adc32ec7f41e4b8ec231215ac4b5bacfa90c"),
            (yago_like, {}, "6d795c860c0d320f3b34f13549e9883e1a35fb97032b7b1ea8f0e8c1b64ad319"),
            (yago_like, {"seed": 12}, "bd6acc0f5fff42a49e494b868636b7619b4852771940abd875bc35c9d1d69af3"),
            (movie_like, {}, "eb20a3c384c5856f03cf37fb9de78939f514ca39919727290e0b0fa8f0531cfc"),
            (movie_like, {"sf": 0.02, "seed": 21}, "d629033b2fef3d1a61203d54180995c42be84481cab2c203a6425c05f610bccd"),
            (movie_syn, {}, "d1dab2596fec98eee1f6caa7be8c4722d0de7e94152bbab08f1dd42aa5295156"),
            (movie_syn, {"sf": 0.05, "seed": 3}, "b1af4b7dcd7ded9ce79f4e06b545c23fe4b8bf60953db53ef9c8490d049f842d"),
            (movie_full_like, {}, "32615fb78e1339fb47ba76886f9e62a696336d210f255962d3d016d7f9a8911d"),
            (movie_full_like, {"sf": 0.01, "seed": 5}, "af005844c58b355d2370eacf3a61562de14af1429bdcca1eba283da6db29a52e"),
            (
                update_batch,
                {"n_triples": 5000, "accuracy": 0.9, "seed": 9, "subject_offset": 10_000_000},
                "3faab452c99f32ea210d0f90e93110b9393981eb631f22e1cc3f4c2fbd40295c",
            ),
            (
                update_batch,
                {"n_triples": 100, "accuracy": 0.9, "seed": 3, "subject_offset": 500},
                "d1d48b382d6cbbe4bee43e16e9f246721c751512eff162c2d26cad922a76131a",
            ),
            (
                update_batch,
                {"n_triples": 20_000, "accuracy": 0.7, "seed": 2, "subject_offset": 0, "name": "D"},
                "240f1fcb18dd79ae534e2901c2847a1c6903aff46dc35a8f1d9f0189a4e4f993",
            ),
        ],
        ids=lambda v: (
            v.__name__ if callable(v)
            else ",".join(f"{k}={x}" for k, x in v.items()) or "defaults" if isinstance(v, dict)
            else v[:8]
        ),
    )
    def test_kg(self, gen, kw, want):
        assert _digest(gen(**kw)) == want

    def test_update_sequence(self):
        seq = update_sequence(
            n_batches=4, n_triples_each=3000, accuracy=0.9, seed=77, subject_offset=10_000_000
        )
        got = hashlib.sha256("".join(_digest(d) for d in seq).encode()).hexdigest()
        assert got == "a55d3581a13df9817f37d3dfa115a5aa971de7155e2f95696d5f07ff205c6807"

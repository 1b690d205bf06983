"""Integration tests for the iterative static framework (Sec 4, Fig 2)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import framework
from repro.core.framework import EvalConfig, evaluate_static, sample_until
from repro.core.srs import srs_sample
from repro.core.stats import Estimate
from repro.kg.generator import nell_like, yago_like


@pytest.fixture(scope="module")
def nell_df(spark):
    return nell_like().to_spark(spark).cache()


@pytest.fixture(scope="module")
def yago_df(spark):
    return yago_like().to_spark(spark).cache()


class FakeSample:
    """``draw`` adds a batch of units, one entity per two triples, and
    reports (entities, triples); ``estimate`` reads MoE off a schedule."""

    def __init__(self, moe_after, *, batch=10, population=10**9):
        self.moe_after, self.batch, self.population = moe_after, batch, population
        self.n = self.entities = self.triples = 0

    def estimate(self):
        return Estimate(0.9, (self.moe_after(self.n) / 1.959964) ** 2, self.n, 0.05)

    def draw(self):
        if self.n >= self.population:
            return None
        added = min(self.batch, self.population - self.n)
        entities = (added + 1) // 2
        self.n += added
        self.entities += entities
        self.triples += added
        return entities, added


class TestSampleUntil:
    CFG = EvalConfig(eps=0.05, max_units=100)

    def run(self, f, min_units):
        """The loop's result, checking that its cost is Eq 4 of the batch sums."""
        res = sample_until(self.CFG, min_units, f.estimate, f.draw)
        assert (res.n_entities, res.n_triples) == (f.entities, f.triples)
        assert res.hours == pytest.approx((f.entities * 45 + f.triples * 25) / 3600)
        return res.stop_reason, res.n_batches, res.n_draws

    def test_stops_on_moe(self):
        f = FakeSample(lambda n: 0.2 if n < 30 else 0.04)
        assert self.run(f, 20) == ("moe", 3, 30)
        assert (f.entities, f.triples) == (15, 30)

    def test_min_units_guard(self):
        """A small MoE does not stop the loop before min_units units."""
        f = FakeSample(lambda n: 0.0)
        assert self.run(f, 45) == ("moe", 5, 50)

    def test_stops_at_max_units(self):
        f = FakeSample(lambda n: 0.2)
        assert self.run(f, 20) == ("max_units", 10, 100)

    def test_stops_when_population_exhausted(self):
        f = FakeSample(lambda n: 0.2, population=25)
        assert self.run(f, 20) == ("exhausted", 3, 25)
        assert (f.entities, f.triples) == (13, 25)  # batches of 10, 10 and 5

    def test_estimates_before_drawing(self):
        """A sample that already meets the rule draws, and charges, nothing."""
        f = FakeSample(lambda n: 0.0)
        f.n = 20
        assert self.run(f, 20) == ("moe", 0, 20)
        assert (f.entities, f.triples) == (0, 0)


class TestStoppingRule:
    @pytest.mark.parametrize("design,m", [("srs", None), ("twcs", 3), ("wcs", None)])
    def test_stops_at_moe_threshold(self, nell_df, design, m):
        res = evaluate_static(nell_df, design=design, m=m, seed=11)
        assert res.stop_reason == "moe"
        assert res.estimate.moe <= 0.05

    def test_wider_eps_needs_fewer_samples(self, nell_df):
        tight = evaluate_static(nell_df, design="twcs", m=3, seed=12)
        loose = evaluate_static(
            nell_df, design="twcs", m=3, seed=12, config=EvalConfig(eps=0.10)
        )
        assert loose.n_draws <= tight.n_draws

    def test_min_units_guard(self, yago_df):
        """YAGO stops almost immediately, but never below the CLT guard."""
        res = evaluate_static(yago_df, design="twcs", m=3, seed=13)
        assert res.n_draws >= EvalConfig().min_draws
        r2 = evaluate_static(yago_df, design="srs", seed=13)
        assert r2.n_triples >= EvalConfig().min_triples


class TestEstimates:
    @pytest.mark.parametrize("design,m", [("srs", None), ("twcs", 3)])
    def test_estimate_near_gold(self, nell_df, design, m):
        gold = nell_like().accuracy
        res = evaluate_static(nell_df, design=design, m=m, seed=14)
        # Single run: allow gold +/- (MoE + slack).
        assert abs(res.estimate.mu_hat - gold) <= res.estimate.moe + 0.05

    def test_cost_accounting_consistent(self, nell_df):
        res = evaluate_static(nell_df, design="twcs", m=3, seed=15)
        expect = (res.n_draws * 45 + res.n_triples * 25) / 3600
        assert res.hours == pytest.approx(expect)

    def test_srs_entities_at_most_triples(self, nell_df):
        res = evaluate_static(nell_df, design="srs", seed=16)
        assert res.n_entities <= res.n_triples


class TestClusterIndexMemo:
    """The cluster index is built once per cached KG DataFrame, and is
    rebuilt for an uncached or unpersisted one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = framework.cluster_stats_df

        def counting(kg):
            calls.append(kg)
            return build(kg)

        framework._cached_clusters.cache_clear()
        monkeypatch.setattr(framework, "cluster_stats_df", counting)
        yield calls
        framework._cached_clusters.cache_clear()

    def test_cached_frame_builds_once(self, nell_df, builds):
        for design, m in [("twcs", 3), ("wcs", None), ("rcs", None)]:
            evaluate_static(nell_df, design=design, m=m, seed=19)
        assert len(builds) == 1

    def test_uncached_frame_builds_every_time(self, nell_df, builds):
        df = nell_df.select("*")
        for _ in range(2):
            evaluate_static(df, design="twcs", m=3, seed=19)
        assert len(builds) == 2

    def test_unpersisted_frame_rebuilt(self, nell_df, builds):
        df = nell_df.select("*").cache()
        try:
            for _ in range(2):
                evaluate_static(df, design="twcs", m=3, seed=19)
            assert len(builds) == 1
        finally:
            df.unpersist()
        evaluate_static(df, design="twcs", m=3, seed=19)
        assert len(builds) == 2

    def test_memoised_result_equals_fresh(self, nell_df, builds):
        first, again = (evaluate_static(nell_df, design="twcs", m=3, seed=20) for _ in range(2))
        fresh = evaluate_static(nell_df.select("*"), design="twcs", m=3, seed=20)
        assert len(builds) == 2
        assert first == again == fresh

    def test_stale_index_raises(self, nell_df):
        """A drawn cluster that the KG no longer holds is an error, not a
        draw that silently drops out of the per-draw arrays."""
        pop = framework._SparkClusters(nell_df)
        pop.kg = nell_df.filter(F.col("subject") != int(pop.subjects[0]))
        with pytest.raises(ValueError, match="no longer matches its cluster index"):
            pop.second_stage(np.array([0]), 3, np.random.default_rng(0))


class TestSrsWithoutCount:
    def test_srs_runs_no_count(self, nell_df, monkeypatch):
        """SRS never counts the KG, also when its prefix has to grow, and
        its sample is the first n_draws rows of the rand(seed) ordering."""
        counts = []
        count = type(nell_df).count
        monkeypatch.setattr(type(nell_df), "count", lambda df: counts.append(df) or count(df))
        r = evaluate_static(nell_df, design="srs", seed=21, config=EvalConfig(eps=0.02))
        assert counts == []
        assert r.n_draws > 16 * EvalConfig().batch_triples  # the prefix grew
        monkeypatch.undo()
        pdf = srs_sample(nell_df, r.n_draws, seed=21).toPandas()
        assert r.mu_hat == pytest.approx(pdf["label"].mean(), rel=1e-12)
        assert r.n_entities == pdf["subject"].nunique()


class TestDeterminism:
    """A seed fixes the sample: partition layout and shuffle settings do not
    (ROADMAP item 3)."""

    @pytest.mark.parametrize("design,m", [("rcs", None), ("wcs", None), ("twcs", 3)])
    def test_same_result_across_partitioning(self, spark, nell_df, design, m):
        def run(df):
            return evaluate_static(df, design=design, m=m, seed=18)

        assert run(nell_df.repartition(1)) == run(nell_df.repartition(5))
        key = "spark.sql.shuffle.partitions"
        old = spark.conf.get(key)
        try:
            # Build the cluster index under each setting: a kept one would
            # make both runs read the same index.
            spark.conf.set(key, "8")
            framework._cached_clusters.cache_clear()
            few = run(nell_df)
            spark.conf.set(key, "64")
            framework._cached_clusters.cache_clear()
            many = run(nell_df)
        finally:
            spark.conf.set(key, old)
        assert few == many


class TestValidation:
    def test_unknown_design_rejected(self, nell_df):
        with pytest.raises(ValueError):
            evaluate_static(nell_df, design="nope")

    def test_twcs_requires_m(self, nell_df):
        with pytest.raises(ValueError):
            evaluate_static(nell_df, design="twcs")

    @pytest.mark.parametrize(
        "design,m", [("srs", None), ("rcs", None), ("wcs", None), ("twcs", 3)]
    )
    def test_empty_kg_rejected(self, nell_df, design, m):
        with pytest.raises(ValueError, match="KG has no triples"):
            evaluate_static(nell_df.limit(0), design=design, m=m)

    @pytest.mark.parametrize("field", ["batch_triples", "batch_clusters", "max_units"])
    def test_batch_size_below_one_rejected(self, field):
        """A batch of 0 draws nothing: RS's top-up would loop forever and
        the MC trials would stop "exhausted" after no draw. A max_units
        of 0 stops before the first draw."""
        with pytest.raises(ValueError, match=">= 1"):
            EvalConfig(**{field: 0})

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        """No z critical value exists, and the loop would learn it only at
        the first MoE, after a batch was annotated."""
        with pytest.raises(ValueError, match="alpha"):
            EvalConfig(alpha=alpha)

    @pytest.mark.parametrize("eps", [0.0, -0.05])
    def test_eps_not_positive_rejected(self, eps):
        """A MoE of at most 0 is never reached in general: the loop would
        run to max_units."""
        with pytest.raises(ValueError, match="eps"):
            EvalConfig(eps=eps)


class TestCensusEdgeCase:
    @pytest.mark.parametrize("design", ["srs", "rcs"])
    def test_tiny_kg_census_terminates(self, spark, design):
        """A tiny KG must end with a full census. SRS takes it in 3
        batches of 2 triples and identifies each subject once across
        them, so both designs charge Eq 4 for 3 entities and 6 triples."""
        from repro.kg.generator import SyntheticKG
        import numpy as np

        kg = SyntheticKG(
            "tiny",
            np.array([3, 2, 1]),
            np.array([3, 1, 0]),
            np.array([1.0, 0.5, 0.0]),
            0,
        )
        df = kg.to_spark(spark)
        res = evaluate_static(df, design=design, seed=17, config=EvalConfig(batch_triples=2))
        assert res.stop_reason == "exhausted"
        assert res.n_triples == 6
        assert res.n_entities == 3
        assert res.hours == pytest.approx((3 * 45 + 6 * 25) / 3600)
        if design == "srs":
            assert res.n_batches == 3
        assert res.estimate.mu_hat == pytest.approx(4 / 6)
        if design == "rcs":
            assert res.n_draws == 3  # every cluster once

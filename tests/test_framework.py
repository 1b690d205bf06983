"""Integration tests for the iterative static framework (Sec 4, Fig 2)."""
import pytest

from repro.annotate.annotator import SimulatedAnnotator
from repro.core.framework import EvalConfig, evaluate_static, sample_until
from repro.core.stats import Estimate
from repro.kg.generator import nell_like, yago_like


@pytest.fixture(scope="module")
def nell_df(spark):
    return nell_like().to_spark(spark).cache()


@pytest.fixture(scope="module")
def yago_df(spark):
    return yago_like().to_spark(spark).cache()


class FakeSample:
    """``draw`` adds a batch of units; ``estimate`` reads MoE off a schedule."""

    def __init__(self, moe_after, *, batch=10, population=10**9):
        self.moe_after, self.batch, self.population = moe_after, batch, population
        self.n = 0

    def estimate(self):
        return Estimate(0.9, (self.moe_after(self.n) / 1.959964) ** 2, self.n, 0.05)

    def draw(self):
        if self.n >= self.population:
            return False
        self.n = min(self.n + self.batch, self.population)
        return True


class TestSampleUntil:
    CFG = EvalConfig(eps=0.05, max_units=100)

    def test_stops_on_moe(self):
        f = FakeSample(lambda n: 0.2 if n < 30 else 0.04)
        est, n_batches, reason = sample_until(self.CFG, 20, f.estimate, f.draw)
        assert (reason, n_batches, est.n_units) == ("moe", 3, 30)

    def test_min_units_guard(self):
        """A small MoE does not stop the loop before min_units units."""
        f = FakeSample(lambda n: 0.0)
        est, n_batches, reason = sample_until(self.CFG, 45, f.estimate, f.draw)
        assert (reason, n_batches, est.n_units) == ("moe", 5, 50)

    def test_stops_at_max_units(self):
        f = FakeSample(lambda n: 0.2)
        est, n_batches, reason = sample_until(self.CFG, 20, f.estimate, f.draw)
        assert (reason, n_batches, est.n_units) == ("max_units", 10, 100)

    def test_stops_when_population_exhausted(self):
        f = FakeSample(lambda n: 0.2, population=25)
        est, n_batches, reason = sample_until(self.CFG, 20, f.estimate, f.draw)
        assert (reason, n_batches, est.n_units) == ("exhausted", 3, 25)

    def test_estimates_before_drawing(self):
        """A sample that already meets the rule draws nothing."""
        f = FakeSample(lambda n: 0.0)
        f.n = 20
        est, n_batches, reason = sample_until(self.CFG, 20, f.estimate, f.draw)
        assert (reason, n_batches, est.n_units) == ("moe", 0, 20)


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
        ann = SimulatedAnnotator()
        res = evaluate_static(nell_df, design="twcs", m=3, seed=15, annotator=ann)
        assert res.hours == pytest.approx(ann.hours)
        expect = (res.n_draws * 45 + res.n_triples * 25) / 3600
        assert res.hours == pytest.approx(expect)

    def test_srs_entities_at_most_triples(self, nell_df):
        res = evaluate_static(nell_df, design="srs", seed=16)
        assert res.n_entities <= res.n_triples


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
            spark.conf.set(key, "8")
            few = run(nell_df)
            spark.conf.set(key, "64")
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


class TestCensusEdgeCase:
    @pytest.mark.parametrize("design", ["srs", "rcs"])
    def test_tiny_kg_census_terminates(self, spark, design):
        """A KG smaller than one batch must end with a full census."""
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
        res = evaluate_static(df, design=design, seed=17)
        assert res.stop_reason == "exhausted"
        assert res.n_triples == 6
        assert res.estimate.mu_hat == pytest.approx(4 / 6)
        if design == "rcs":
            assert res.n_draws == 3  # every cluster once

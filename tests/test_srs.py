"""Tests for the SRS sampler/estimator (Sec 5.1)."""
import numpy as np
import pytest

from repro.core.framework import _shuffled_prefix
from repro.core.stats import estimate_srs
from repro.kg.generator import nell_like


@pytest.fixture(scope="module")
def nell_df(spark):
    return nell_like().to_spark(spark).cache()


class TestSrsSampler:
    def test_exact_sample_size(self, nell_df):
        assert len(_shuffled_prefix(nell_df, 50, seed=1)) == 50

    def test_without_replacement(self, nell_df):
        pdf = _shuffled_prefix(nell_df, 200, seed=2)
        assert len(pdf.drop_duplicates()) == len(pdf)

    def test_deterministic_in_seed(self, nell_df):
        a = _shuffled_prefix(nell_df, 30, seed=3).sort_values("object")
        b = _shuffled_prefix(nell_df, 30, seed=3).sort_values("object")
        assert (a["object"].to_numpy() == b["object"].to_numpy()).all()

    def test_different_seeds_differ(self, nell_df):
        a = set(_shuffled_prefix(nell_df, 30, seed=4)["object"])
        b = set(_shuffled_prefix(nell_df, 30, seed=5)["object"])
        assert a != b

    def test_uniformity_over_triples(self, nell_df):
        """Mean label over a large sample approximates mu(G)."""
        mu = nell_like().accuracy
        got = _shuffled_prefix(nell_df, 1200, seed=6)["label"].mean()
        assert got == pytest.approx(mu, abs=0.03)


class TestSrsEstimator:
    def test_point_estimate_is_sample_mean(self):
        e = estimate_srs(np.array([1, 1, 0, 1]), alpha=0.05)
        assert e.mu_hat == pytest.approx(0.75)
        assert e.n_units == 4

    def test_variance_formula(self):
        e = estimate_srs(np.ones(10) * 0.0 + np.arange(10) % 2, alpha=0.05)
        assert e.var_hat == pytest.approx(0.25 / 10)

    def test_empty_sample(self):
        assert estimate_srs(np.array([]), alpha=0.05).moe == float("inf")

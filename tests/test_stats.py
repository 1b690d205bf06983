"""Unit tests for repro.core.stats (CI/MoE machinery, Sec 2.2)."""
import math

import numpy as np
import pytest

from repro.core.cluster_sampling import estimate_cluster_means
from repro.core.stats import Estimate, cluster_var_hat, combine_stratified, estimate_srs, z_value


def srs_moe(mu_hat: float, n: int) -> float:
    """MoE of ``estimate_srs`` on n labels whose mean is ``mu_hat``."""
    k = round(mu_hat * n)
    return estimate_srs(np.r_[np.ones(k), np.zeros(n - k)], alpha=0.05).moe


def cluster_moe(v: np.ndarray) -> float:
    return estimate_cluster_means(v, alpha=0.05).moe


class TestZValue:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(0.05, 1.959964), (0.01, 2.575829), (0.10, 1.644854), (0.32, 0.994458)],
    )
    def test_known_critical_values(self, alpha, expected):
        assert z_value(alpha) == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_invalid_alpha(self, alpha):
        with pytest.raises(ValueError):
            z_value(alpha)

    def test_monotone_in_confidence(self):
        assert z_value(0.01) > z_value(0.05) > z_value(0.10)


class TestSrsMoe:
    def test_matches_closed_form(self):
        # MoE = z * sqrt(p(1-p)/n) from Sec 5.1.
        assert srs_moe(0.9, 100) == pytest.approx(
            1.959964 * math.sqrt(0.09 / 100), abs=1e-9
        )

    def test_zero_variance_at_extremes(self):
        assert srs_moe(1.0, 50) == 0.0
        assert srs_moe(0.0, 50) == 0.0

    def test_infinite_for_empty_sample(self):
        assert srs_moe(0.5, 0) == float("inf")

    def test_shrinks_with_n(self):
        assert srs_moe(0.5, 400) == pytest.approx(srs_moe(0.5, 100) / 2)


class TestClusterMoe:
    def test_matches_manual_computation(self):
        v = np.array([0.8, 0.9, 1.0, 0.7])
        n = 4
        s2 = ((v - v.mean()) ** 2).sum() / (n * (n - 1))
        assert cluster_moe(v) == pytest.approx(1.959964 * math.sqrt(s2))

    def test_identical_draws_give_zero(self):
        assert cluster_moe(np.array([0.9, 0.9, 0.9])) == 0.0

    def test_single_draw_is_infinite(self):
        assert cluster_moe(np.array([0.9])) == float("inf")

    def test_var_hat_consistent_with_moe(self):
        v = np.array([0.2, 0.5, 0.9, 0.4, 0.6])
        assert cluster_moe(v) == pytest.approx(
            1.959964 * math.sqrt(cluster_var_hat(v))
        )


class TestEstimate:
    def test_moe_and_ci(self):
        e = Estimate(mu_hat=0.9, var_hat=0.0004, n_units=50, alpha=0.05)
        assert e.moe == pytest.approx(1.959964 * 0.02)
        lo, hi = e.ci
        assert lo == pytest.approx(0.9 - e.moe) and hi == pytest.approx(0.9 + e.moe)

    def test_infinite_variance_propagates(self):
        e = Estimate(mu_hat=0.5, var_hat=float("inf"), n_units=1, alpha=0.05)
        assert e.moe == float("inf")


def _strata(mu_hats, var_hats, n_units, alpha=0.05):
    return [Estimate(mu, var, n, alpha) for mu, var, n in zip(mu_hats, var_hats, n_units)]


class TestCombineStratified:
    def test_weighted_mean_and_variance(self):
        e = combine_stratified(np.array([0.6, 0.4]), _strata([0.9, 0.7], [1e-4, 4e-4], [3, 4]))
        assert e.n_units == 7 and e.alpha == 0.05
        assert e.mu_hat == pytest.approx(0.6 * 0.9 + 0.4 * 0.7)
        assert e.var_hat == pytest.approx(0.36 * 1e-4 + 0.16 * 4e-4)

    def test_single_stratum_degenerates_to_plain(self):
        e = combine_stratified(np.array([1.0]), _strata([0.8], [1e-4], [3]))
        assert e.mu_hat == 0.8 and e.var_hat == pytest.approx(1e-4)

    def test_rejects_unnormalised_weights(self):
        with pytest.raises(ValueError):
            combine_stratified(np.array([0.5, 0.4]), _strata([0.9, 0.7], [0.0, 0.0], [2, 2]))

    def test_rejects_misaligned_shapes(self):
        with pytest.raises(ValueError):
            combine_stratified(np.array([0.5, 0.5]), _strata([0.9], [0.0], [2]))

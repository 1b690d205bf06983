"""Shared statistical helpers: Normal critical values, CIs, MoE.

The paper's estimators (Sec 2.2) all report a confidence interval of the
form ``mu_hat +/- z_{alpha/2} * sqrt(var_hat)`` where ``var_hat`` is an
estimate of the sampling variance of the point estimator. This module
centralises the z-value lookup (stdlib ``NormalDist`` — no scipy in the
container) and the small-n conventions used throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


def z_value(alpha: float) -> float:
    """Normal critical value with right-tail probability ``alpha/2``.

    E.g. ``z_value(0.05) == 1.959964...`` for a 95% CI.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def cluster_var_hat(cluster_means: np.ndarray) -> float:
    """Estimated variance of the cluster-sampling estimator itself.

    Var_hat[mu_hat] = sum (v_k - v_bar)^2 / (n (n-1)). Returned (not the
    MoE) so stratified combination (Eq 13) can weight variances.
    """
    v = np.asarray(cluster_means, dtype=np.float64)
    n = v.size
    if n < 2:
        return float("inf")
    return float(np.sum((v - v.mean()) ** 2)) / (n * (n - 1))


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its sampling-uncertainty summary.

    ``var_hat`` is the estimated variance of the *estimator* (already
    divided by n where applicable), so ``moe == z * sqrt(var_hat)``.
    ``n_units`` counts the primary sampling units behind the estimate
    (triples for SRS, cluster draws for CS designs).
    """

    mu_hat: float
    var_hat: float
    n_units: int
    alpha: float

    @property
    def moe(self) -> float:
        if not math.isfinite(self.var_hat):
            return float("inf")
        return z_value(self.alpha) * math.sqrt(max(self.var_hat, 0.0))

    @property
    def ci(self) -> tuple[float, float]:
        m = self.moe
        return (self.mu_hat - m, self.mu_hat + m)


def estimate_srs(labels: np.ndarray, *, alpha: float) -> Estimate:
    """Sample-mean estimator mu_hat_s (Eq 5) with Normal-approximation CI.

    Var_hat[mu_hat] = mu_hat (1 - mu_hat) / n, per Sec 5.1.
    """
    y = np.asarray(labels, dtype=np.float64)
    n = y.size
    if n == 0:
        return Estimate(mu_hat=0.0, var_hat=float("inf"), n_units=0, alpha=alpha)
    mu = float(y.mean())
    return Estimate(mu_hat=mu, var_hat=mu * (1.0 - mu) / n, n_units=n, alpha=alpha)


def combine_stratified(weights: np.ndarray, per_stratum: list[Estimate]) -> Estimate:
    """Stratified combination (Eq 13): mu = sum W_h mu_h, var = sum W_h^2 var_h.

    ``n_units`` is the draw count over all strata; ``alpha`` is the
    strata's common one.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(per_stratum),):
        raise ValueError("need one weight per stratum")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"strata weights must sum to 1, got {w.sum()}")
    mu = np.array([e.mu_hat for e in per_stratum])
    var = np.array([e.var_hat for e in per_stratum])
    return Estimate(
        mu_hat=float(np.dot(w, mu)),
        var_hat=float(np.dot(w**2, var)),
        n_units=sum(e.n_units for e in per_stratum),
        alpha=per_stratum[0].alpha,
    )

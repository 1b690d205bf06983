"""Theoretical TWCS variance (Eq 10) and optimal second-stage size m (Eq 12).

V(m) := n * Var(mu_hat_{w,m}) decomposes into a between-cluster term
(variance of cluster accuracies around mu, triple-weighted) and a
within-cluster term (finite-population-corrected binomial variance,
shrinking as 1/m; clusters with M_i <= m are enumerated exactly and
contribute nothing).

The cost objective (Eq 12) is  (V(m) z^2 / eps^2) * (c1 + m c2); the
optimal m comes from a linear search over the (small, discrete) m range,
as the paper suggests.
"""
from __future__ import annotations

import numpy as np

from repro.core.cost import CostParams
from repro.core.stats import z_value


def v_of_m(sizes: np.ndarray, mus: np.ndarray, m: int) -> float:
    """Per-draw variance V(m) of Eq 10/12 (so Var(mu_hat) = V(m) / n)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    M_i = np.asarray(sizes, dtype=np.float64)
    mu_i = np.asarray(mus, dtype=np.float64)
    M = M_i.sum()
    mu = float(np.dot(M_i, mu_i) / M)
    between = float(np.dot(M_i, (mu_i - mu) ** 2))
    big = M_i > m
    within = 0.0
    if np.any(big):
        Mb, mb = M_i[big], mu_i[big]
        within = float(np.sum((Mb - m) / (Mb - 1.0) * Mb * mb * (1.0 - mb))) / m
    return (between + within) / M


def required_n(
    sizes: np.ndarray, mus: np.ndarray, m: int, *, alpha: float, eps: float
) -> int:
    """n >= V(m) z^2 / eps^2 (the MoE constraint rewritten, Sec 5.2.3)."""
    z = z_value(alpha)
    return max(1, int(np.ceil(v_of_m(sizes, mus, m) * z * z / (eps * eps))))


def expected_cost_seconds(
    sizes: np.ndarray,
    mus: np.ndarray,
    m: int,
    *,
    alpha: float,
    eps: float,
    cost: CostParams = CostParams(),
) -> float:
    """Upper-bound cost objective (Eq 12): n(m) * (c1 + m c2)."""
    n = required_n(sizes, mus, m, alpha=alpha, eps=eps)
    return n * (cost.c1 + m * cost.c2)


def optimal_m(
    sizes: np.ndarray,
    mus: np.ndarray,
    *,
    alpha: float,
    eps: float,
    cost: CostParams = CostParams(),
) -> int:
    """Linear search for argmin_m of Eq 12 over m in 1..30."""
    costs = [
        expected_cost_seconds(sizes, mus, m, alpha=alpha, eps=eps, cost=cost)
        for m in range(1, 31)
    ]
    return int(np.argmin(costs)) + 1

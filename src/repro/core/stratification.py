"""Stratification over entity clusters (Sec 5.3).

Two strategies from the paper:

- **Size stratification**: strata over cluster sizes chosen by the
  Cumulative Square-root-of-Frequency rule (Dalenius & Hodges): build
  the size histogram, accumulate sqrt(frequency), and cut the cumulative
  curve into H equal intervals.
- **Oracle stratification**: strata by *true* cluster accuracy mu_i —
  the perfect-but-impractical reference whose cost lower-bounds what any
  stratification signal could achieve (Sec 7.2.3).

Both run in the driver on the population's cluster arrays.
``mc.run_trials`` splits the population by these labels once per call;
within each stratum ``mc.stratified_twcs_trial`` runs TWCS, and Eq 13
combines the per-stratum estimates with the weights W_h = M[h] / M that
it computes from the strata.
"""
from __future__ import annotations

import numpy as np


def np_cum_sqrt_f_boundaries(sizes: np.ndarray, n_strata: int) -> np.ndarray:
    """Upper size bounds (inclusive) per stratum from the cum-sqrt-F rule.

    Returns an increasing array of length ``n_strata``; the last entry is
    +inf. Degenerate cuts (fewer distinct sizes than strata) collapse to
    fewer, still-valid strata.
    """
    if n_strata < 1:
        raise ValueError("n_strata must be >= 1")
    vals, freq = np.unique(np.asarray(sizes), return_counts=True)
    cum = np.sqrt(freq.astype(np.float64)).cumsum()
    bounds: list[float] = []
    for h in range(1, n_strata):
        idx = min(int(np.searchsorted(cum, cum[-1] * h / n_strata)), len(vals) - 1)
        b = float(vals[idx])
        if not bounds or b > bounds[-1]:
            bounds.append(b)
    bounds.append(float("inf"))
    return np.asarray(bounds)


def np_assign_stratum_by_size(sizes: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Stratum index per cluster: the first boundary >= its size."""
    return np.searchsorted(boundaries, np.asarray(sizes, dtype=np.float64), side="left")


def np_assign_stratum_oracle(mus: np.ndarray, n_strata: int) -> np.ndarray:
    """Oracle strata: equal-width bins over true cluster accuracy mu_i."""
    return np.minimum((np.asarray(mus) * n_strata).astype(np.int64), n_strata - 1)

"""Cluster statistics (Table 2 notation).

The entity cluster G[e] is the set of triples sharing subject e
(Sec 2.1). All sampling designs consume the per-cluster sizes M_i; this
module computes them over a Spark KG with a Catalyst ``groupBy`` and
holds the driver-side ``Population`` (M_i, tau_i) that the Monte-Carlo
layer and the evolving evaluators sample from.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def cluster_stats_df(kg: DataFrame) -> DataFrame:
    """(subject, size): cluster size M_i per subject.

    Only the simulated annotator reads the hidden ``label`` column.
    """
    return kg.groupBy("subject").agg(F.count(F.lit(1)).alias("size"))


@dataclass(frozen=True)
class Population:
    """Driver-side snapshot of the cluster-level population.

    Arrays are ordered by subject id. This is what the Monte-Carlo
    trials, the design computations (V(m), optimal m) and the evolving
    evaluators sample from.
    """

    subjects: np.ndarray  # int64
    sizes: np.ndarray  # M_i
    taus: np.ndarray  # tau_i

    def __post_init__(self):
        if len(self.sizes) == 0:
            raise ValueError("KG has no triples")

    @property
    def n_clusters(self) -> int:
        return int(len(self.sizes))

    @cached_property  # read on every SS estimate, for each stratum
    def n_triples(self) -> int:
        return int(self.sizes.sum())

    @cached_property  # read by every PPS draw and SRS trial
    def cum_sizes(self) -> np.ndarray:
        return np.cumsum(self.sizes)

    @property
    def mu(self) -> float:
        return float(self.taus.sum() / self.sizes.sum())

    @property
    def cluster_accuracies(self) -> np.ndarray:
        return self.taus / self.sizes

    def second_stage(self, ci, m: int | None, rng) -> tuple[np.ndarray, np.ndarray]:
        """(s, good) of drawn clusters ``ci``: s = min(M_i, m) triples without
        replacement (all if ``m`` is None), good ~ Hypergeometric(tau_i, M_i - tau_i, s)."""
        sizes, taus = self.sizes[ci], self.taus[ci]
        if m is None:
            return sizes, taus
        s = np.minimum(sizes, m)
        return s, rng.hypergeometric(taus, sizes - taus, s)

    @classmethod
    def from_synthetic(cls, kg) -> "Population":
        """Directly from a SyntheticKG (bypasses triple materialisation)."""
        return cls(subjects=kg.subjects(), sizes=kg.sizes.copy(), taus=kg.taus.copy())

    @classmethod
    def concat(cls, pops: list["Population"]) -> "Population":
        """The evolved KG G + Delta^1 + ... as one cluster population."""
        if not pops:
            raise ValueError("need at least one population")
        return cls(
            subjects=np.concatenate([p.subjects for p in pops]),
            sizes=np.concatenate([p.sizes for p in pops]),
            taus=np.concatenate([p.taus for p in pops]),
        )

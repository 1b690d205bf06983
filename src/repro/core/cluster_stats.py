"""Cluster statistics over a triple-level KG DataFrame (Table 2 notation).

The entity cluster G[e] is the set of triples sharing subject e
(Sec 2.1). All sampling designs consume the per-cluster aggregate
(M_i, tau_i); this module computes it with a Catalyst ``groupBy`` and
exposes the population summaries (N, M, mu(G)) used everywhere else.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def cluster_stats_df(kg: DataFrame) -> DataFrame:
    """(subject, size, tau): cluster size M_i and correct count tau_i.

    ``tau`` aggregates the hidden gold label; the Spark samplers select
    only ``subject`` and ``size``, while ``tau`` feeds the Monte-Carlo
    ``Population`` and oracle stratification.
    """
    return kg.groupBy("subject").agg(
        F.count(F.lit(1)).alias("size"),
        F.sum("label").cast("long").alias("tau"),
    )


def kg_accuracy(kg: DataFrame) -> float:
    """Gold accuracy mu(G) = mean label, computed by Spark aggregation."""
    row = kg.agg(F.avg("label").alias("mu")).collect()[0]
    return float(row["mu"])


@dataclass(frozen=True)
class Population:
    """Driver-side snapshot of the cluster-level population.

    Arrays are ordered by subject id. This is the interface between the
    Spark layer (which aggregates the KG once) and both the samplers'
    design computations (V(m), optimal m) and the Monte-Carlo layer.
    """

    subjects: np.ndarray  # int64
    sizes: np.ndarray  # M_i
    taus: np.ndarray  # tau_i

    @property
    def n_clusters(self) -> int:
        return int(len(self.sizes))

    @property
    def n_triples(self) -> int:
        return int(self.sizes.sum())

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
    def from_kg(cls, kg: DataFrame) -> "Population":
        """Aggregate a triple-level Spark KG down to cluster arrays."""
        return cls.from_pandas(cluster_stats_df(kg).toPandas())

    @classmethod
    def from_pandas(cls, pdf: pd.DataFrame) -> "Population":
        pdf = pdf.sort_values("subject").reset_index(drop=True)
        return cls(
            subjects=pdf["subject"].to_numpy(np.int64),
            sizes=pdf["size"].to_numpy(np.int64),
            taus=pdf["tau"].to_numpy(np.int64),
        )

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

"""Synthetic knowledge graphs matching Table 3's data characteristics.

The paper's estimators depend on the KG only through the cluster-size
vector {M_i} and the per-cluster correct counts {tau_i} (Sec 5). Each
generator therefore first draws cluster-level arrays deterministically
in numpy (used directly by the Monte-Carlo layer), and expands them to a
triple-level Spark DataFrame with *exactly* tau_i correct triples per
cluster — so the Spark layer and the MC layer see the same population
and cross-validation tests can compare them exactly.

Profiles (paper dataset -> generator):

- NELL  (817 entities / 1,860 triples, avg 2.3, acc 91%)  -> nell_like
- YAGO  (822 / 1,386, avg 1.7, acc 99%)                  -> yago_like
- MOVIE (288,770 / 2,653,870, avg 9.2, acc ~90%)          -> movie_like(sf)
- MOVIE-SYN (MOVIE structure + BMM labels, Eq 15)          -> movie_syn(sf, c, sigma)
- MOVIE-FULL (14,495,142 / 130,591,799, avg 9.0)           -> movie_full_like(sf)

NELL/YAGO use shifted-Poisson cluster sizes (NELL: >98% of clusters
below size 5, matching Sec 7.2.2); MOVIE* use a heavy-tailed
lognormal (largest clusters in the thousands at sf=1, matching
Sec 5.2.3). Gold accuracies are pinned via ``labels.calibrate`` while
preserving the size-accuracy correlation of Fig 3.

Triple schema: (subject: long, predicate: int, object: long, label: int)
where ``label`` is the hidden ground-truth correctness — only the
simulated annotator may look at it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.kg import labels as L

_N_PREDICATES = 32


@dataclass(frozen=True)
class SyntheticKG:
    """Cluster-level description of a synthetic KG plus its gold labels."""

    name: str
    sizes: np.ndarray  # M_i per entity cluster, int64
    taus: np.ndarray  # tau_i correct triples per cluster, int64
    probs: np.ndarray  # p_i used to draw taus (kept for oracle stratification)
    seed: int
    subject_offset: int = 0  # shift subject ids (evolving-KG update batches)

    def __post_init__(self):
        if not (len(self.sizes) == len(self.taus) == len(self.probs)):
            raise ValueError("sizes/taus/probs must align")
        if np.any(self.taus > self.sizes) or np.any(self.taus < 0):
            raise ValueError("need 0 <= tau_i <= M_i")
        if np.any(self.sizes < 1):
            raise ValueError("cluster sizes must be >= 1")

    @property
    def n_entities(self) -> int:
        return int(len(self.sizes))

    @property
    def n_triples(self) -> int:
        return int(self.sizes.sum())

    @property
    def avg_cluster_size(self) -> float:
        return self.n_triples / self.n_entities

    @property
    def accuracy(self) -> float:
        """Gold accuracy mu(G) = sum tau_i / sum M_i."""
        return float(self.taus.sum() / self.sizes.sum())

    @property
    def cluster_accuracies(self) -> np.ndarray:
        """mu_i = tau_i / M_i."""
        return self.taus / self.sizes

    def subjects(self) -> np.ndarray:
        return np.arange(self.n_entities, dtype=np.int64) + self.subject_offset

    def cluster_pdf(self) -> pd.DataFrame:
        """Cluster statistics as pandas: (subject, size, tau)."""
        return pd.DataFrame(
            {"subject": self.subjects(), "size": self.sizes, "tau": self.taus}
        )

    def to_spark(self, spark: SparkSession, *, distributed: bool | None = None) -> DataFrame:
        """Materialise the triple-level KG as a Spark DataFrame.

        ``distributed=None`` auto-selects: the pandas path below 4M
        triples, else a Spark-native ``explode(sequence(...))`` expansion
        that never builds the triple table in the driver.
        """
        if distributed is None:
            distributed = self.n_triples >= 4_000_000
        return (
            self._to_spark_distributed(spark)
            if distributed
            else spark.createDataFrame(self.to_pandas())
        )

    def to_pandas(self) -> pd.DataFrame:
        """Triple-level expansion in the driver (small KGs and tests)."""
        sizes = self.sizes
        total = self.n_triples
        subj = np.repeat(self.subjects(), sizes)
        # Per-cluster line number 1..M_i: global index minus cluster start.
        starts = np.repeat(np.concatenate(([0], np.cumsum(sizes)[:-1])), sizes)
        line = np.arange(total, dtype=np.int64) - starts + 1
        label = (line <= np.repeat(self.taus, sizes)).astype(np.int32)
        g = np.random.default_rng(self.seed + 1000)
        return pd.DataFrame(
            {
                "subject": subj,
                "predicate": g.integers(0, _N_PREDICATES, total).astype(np.int32),
                "object": g.integers(0, 1 << 40, total),
                "label": label,
            }
        )

    def _to_spark_distributed(self, spark: SparkSession) -> DataFrame:
        """Driver holds only the entity table; triples come from explode().

        Predicate and object hash (seed, subject, line), so every row's
        content is fixed by the seed whatever the partitioning.
        """

        def hashed(k: int, modulus: int):
            return F.pmod(F.xxhash64(F.lit(self.seed + k), "subject", "_line"), F.lit(modulus))

        ent = spark.createDataFrame(self.cluster_pdf())
        return ent.select(
            F.col("subject"),
            F.explode(F.sequence(F.lit(1), F.col("size"))).alias("_line"),
            F.col("tau"),
        ).select(
            "subject",
            hashed(2000, _N_PREDICATES).cast("int").alias("predicate"),
            hashed(3000, 1 << 40).alias("object"),
            (F.col("_line") <= F.col("tau")).cast("int").alias("label"),
        )


def _lognormal_sizes(
    n: int, mean_target: float, *, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Heavy-tailed sizes: lognormal rescaled to the target mean, then
    rounded with a floor of 1 (largest clusters reach the thousands)."""
    x = rng.lognormal(0.0, sigma, size=n)
    x *= mean_target / x.mean()
    return np.maximum(1, np.rint(x)).astype(np.int64)


def _shifted_poisson_sizes(n: int, lam: float, *, rng: np.random.Generator) -> np.ndarray:
    """Sizes 1 + Poisson(lam): mean 1 + lam, right-skewed, thin tail.

    NELL/YAGO cluster-size moments are pinned jointly by Table 3 (mean
    size), Sec 7.2.2 (>98%% of NELL clusters below size 5) and the RCS
    costs of Table 5 (whose convergence point fixes Var(tau_i) ~ 1).
    A shifted Poisson is the simplest family matching all three; see
    EXPERIMENTS.md for the calibration arithmetic.
    """
    return 1 + rng.poisson(lam, size=n).astype(np.int64)


def nell_like(*, seed: int = 7) -> SyntheticKG:
    """NELL: 817 entities, ~1.9K triples, skewed small clusters, acc 91%."""
    rng = np.random.default_rng(seed)
    sizes = _shifted_poisson_sizes(817, 1.3, rng=rng)
    probs = L.calibrate(sizes, L.bmm_probs(sizes, c=0.1, sigma=0.05, k=1, rng=rng), 0.91)
    taus = L.draw_cluster_taus(sizes, probs, rng=rng)
    return SyntheticKG("NELL", sizes, taus, probs, seed)


def yago_like(*, seed: int = 11) -> SyntheticKG:
    """YAGO: 822 entities, ~1.4K triples, gold acc 99%."""
    rng = np.random.default_rng(seed)
    sizes = _shifted_poisson_sizes(822, 0.7, rng=rng)
    probs = L.calibrate(sizes, L.bmm_probs(sizes, c=0.1, sigma=0.02, k=1, rng=rng), 0.99)
    taus = L.draw_cluster_taus(sizes, probs, rng=rng)
    return SyntheticKG("YAGO", sizes, taus, probs, seed)


_MOVIE_ENTITIES = 288_770
_MOVIE_FULL_ENTITIES = 14_495_142


def movie_like(*, sf: float = 1.0, seed: int = 13) -> SyntheticKG:
    """MOVIE at scale factor sf (sf=1 -> 288,770 entities, ~2.65M triples).

    Labels: REM with error rate 0.1 (gold acc 90%), the paper's REM r=0.1
    wherever MOVIE needs synthetic labels."""
    rng = np.random.default_rng(seed)
    n = max(10, int(round(_MOVIE_ENTITIES * sf)))
    sizes = _lognormal_sizes(n, 9.2, sigma=1.4, rng=rng)
    probs = L.rem_probs(sizes, r_err=0.1)
    taus = L.draw_cluster_taus(sizes, probs, rng=rng)
    return SyntheticKG(f"MOVIE(sf={sf:g})", sizes, taus, probs, seed)


def movie_syn(
    *, sf: float = 1.0, c: float = 0.01, sigma: float = 0.1, k: int = 3, seed: int = 17
) -> SyntheticKG:
    """MOVIE-SYN: MOVIE cluster structure with BMM labels (Eq 15)."""
    rng = np.random.default_rng(seed)
    n = max(10, int(round(_MOVIE_ENTITIES * sf)))
    sizes = _lognormal_sizes(n, 9.2, sigma=1.4, rng=rng)
    probs = L.bmm_probs(sizes, c=c, sigma=sigma, k=k, rng=rng)
    taus = L.draw_cluster_taus(sizes, probs, rng=rng)
    return SyntheticKG(f"MOVIE-SYN(sf={sf:g},c={c:g},sigma={sigma:g})", sizes, taus, probs, seed)


def movie_full_like(*, sf: float = 0.1, seed: int = 19) -> SyntheticKG:
    """MOVIE-FULL at scale factor sf (sf=1 would be 14.5M entities / 130M
    triples; the Table 3 bench uses sf=0.1 — see DESIGN.md substitutions)."""
    rng = np.random.default_rng(seed)
    n = max(10, int(round(_MOVIE_FULL_ENTITIES * sf)))
    sizes = _lognormal_sizes(n, 9.0, sigma=1.4, rng=rng)
    probs = L.rem_probs(sizes, r_err=0.1)
    taus = L.draw_cluster_taus(sizes, probs, rng=rng)
    return SyntheticKG(f"MOVIE-FULL(sf={sf:g})", sizes, taus, probs, seed)

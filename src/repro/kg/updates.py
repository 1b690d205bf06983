"""Evolving-KG update batches (Sec 2.1 / Sec 6).

An update batch Delta is a set of triple insertions grouped by subject.
Per Sec 6.1, every per-subject insertion group Delta_e is treated as a
*new, independent cluster* even if the subject already exists in G (this
keeps reservoir weights constant), so an update batch is itself just a
SyntheticKG whose subject ids live in a fresh id range.

``update_batch`` draws a batch with a requested triple count and
accuracy, using the MOVIE-like lognormal cluster structure — the paper
draws its update batches from MOVIE-FULL (Sec 7.3).
"""
from __future__ import annotations

import numpy as np

from repro.kg import labels as L
from repro.kg.generator import SyntheticKG, _lognormal_sizes


def update_batch(
    *,
    n_triples: int,
    accuracy: float,
    seed: int,
    subject_offset: int,
    name: str | None = None,
) -> SyntheticKG:
    """Draw an insertion batch Delta with ~``n_triples`` triples.

    Cluster sizes follow the MOVIE-FULL lognormal profile (mean 9.0);
    the number of clusters is chosen so the expected triple total
    matches, then sizes are drawn and the realised total is within
    sampling noise of the request. Labels are REM at the requested accuracy.
    """
    if n_triples < 1:
        raise ValueError("n_triples must be >= 1")
    rng = np.random.default_rng(seed)
    n_clusters = max(1, int(round(n_triples / 9.0)))
    sizes = _lognormal_sizes(n_clusters, 9.0, sigma=1.4, rng=rng)
    probs = L.rem_probs(sizes, r_err=1.0 - accuracy)
    taus = L.draw_cluster_taus(sizes, probs, rng=rng)
    return SyntheticKG(
        name or f"DELTA(n~{n_triples},acc={accuracy:g})",
        sizes,
        taus,
        probs,
        seed,
        subject_offset=subject_offset,
    )


def update_sequence(
    *,
    n_batches: int,
    n_triples_each: int,
    accuracy: float,
    seed: int,
    subject_offset: int,
) -> list[SyntheticKG]:
    """A sequence Delta^1..Delta^n of similar-size batches (Sec 7.3.2)."""
    out = []
    offset = subject_offset
    for b in range(n_batches):
        d = update_batch(
            n_triples=n_triples_each,
            accuracy=accuracy,
            seed=seed + 31 * b,
            subject_offset=offset,
            name=f"DELTA^{b + 1}",
        )
        offset += d.n_entities
        out.append(d)
    return out

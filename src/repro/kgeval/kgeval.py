"""KGEval-style inference-based accuracy evaluation (baseline of Table 6).

Reimplementation of the *mechanism* of Ojha & Talukdar's KGEval (see
DESIGN.md for the substitution rationale): iteratively pick the
"control" triple whose annotation would propagate to the most
still-unlabelled triples, annotate it (human cost: one scattered triple
per selection, i.e. c1 + c2 each), and run a PSL-like soft label
propagation over the coupling graph until the whole KG carries a label.
One annotation labels its whole connected component, so the greedy
choice is always the largest remaining component: selection is one
sort. KG accuracy is then the mean over all labels, annotated and
inferred — no confidence interval is available, matching Table 8's
feature comparison.

Two deliberate fidelity choices:

- **Machine cost.** Each annotation re-runs the propagation fixed point
  over the whole graph, as the original system's inference does;
  machine time is measured and reported in the Table 6 harness (the
  paper's point is that it is orders of magnitude above TWCS's sampling
  time).
- **Propagation noise.** Coupling constraints are informative (a Horn
  rule ties triples of equal correctness), so inference recovers each
  covered triple's true label — but only with probability ``fidelity``:
  the probabilistic inference can propagate erroneously, which is
  exactly the bias the paper criticises (Sec 8). Estimates come out
  close to, but not provably centred on, the truth, and no confidence
  interval exists.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.cost import DEFAULT_COST


@dataclass(frozen=True)
class KGEvalResult:
    mu_hat: float
    n_annotated: int
    annotation_hours: float
    machine_seconds: float


def _components(adj: list[list[int]]) -> list[list[int]]:
    """Connected components of the coupling graph, each sorted by tid, in
    order of their lowest tid."""
    seen = np.zeros(len(adj), dtype=bool)
    comps = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        members, stack = [root], [root]
        while stack:
            for u in adj[stack.pop()]:
                if not seen[u]:
                    seen[u] = True
                    members.append(u)
                    stack.append(u)
        comps.append(sorted(members))
    return comps


def _propagation_sweep(
    adj: list[list[int]], beliefs: np.ndarray, anchored: np.ndarray, n_iter: int
) -> np.ndarray:
    """PSL-like fixed-point: repeatedly average neighbour beliefs, keeping
    annotated triples anchored at their observed labels."""
    b = beliefs.copy()
    for _ in range(n_iter):
        nxt = b.copy()
        for v, neigh in enumerate(adj):
            if anchored[v] or not neigh:
                continue
            nxt[v] = 0.5 * b[v] + 0.5 * float(np.mean([b[u] for u in neigh]))
        b = nxt
    return b


def kgeval_evaluate(
    triples: pd.DataFrame,
    edges: pd.DataFrame,
    *,
    seed: int,
    fidelity: float = 0.99,
    n_prop_iters: int = 8,
) -> KGEvalResult:
    """Run the select-annotate-propagate loop until every triple is labelled.

    ``triples`` needs (tid, label); ``edges`` needs (src, dst) over tids.
    """
    n = len(triples)
    if n == 0:
        raise ValueError("KG has no triples")
    rng = np.random.default_rng(seed)
    labels_true = triples.sort_values("tid")["label"].to_numpy(np.int64)

    adj: list[list[int]] = [[] for _ in range(n)]
    for s, d in zip(edges["src"].to_numpy(), edges["dst"].to_numpy()):
        adj[int(s)].append(int(d))
        adj[int(d)].append(int(s))

    inferred = np.full(n, -1.0)  # -1: unlabelled; else soft belief in [0,1]
    anchored = np.zeros(n, dtype=bool)
    t0 = time.perf_counter()

    # Greedy control selection: one annotation labels its whole component,
    # so the most still-unlabelled triples are always in the largest
    # remaining component. The stable sort breaks ties by lowest tid.
    comps = sorted(_components(adj), key=len, reverse=True)
    for members in comps:
        # Annotate the component's highest-degree triple (control triple).
        control = max(members, key=lambda v: len(adj[v]))
        obs = labels_true[control]
        inferred[control] = float(obs)
        anchored[control] = True

        # BFS propagation within the component. Real coupling constraints
        # (type consistency, Horn rules) are *informative*: a coupled
        # triple shares the annotated triple's correctness unless the
        # constraint (or the probabilistic inference) errs. We model this
        # as: each inferred triple receives its true label with
        # probability ``fidelity``, flipped otherwise — KGEval's
        # near-correct-but-biased estimates (Sec 8's criticism).
        frontier = [control]
        seen = {control}
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u in seen:
                        continue
                    seen.add(u)
                    lab = labels_true[u]
                    if rng.random() > fidelity:
                        lab = 1 - lab
                    inferred[u] = float(lab)
                    nxt.append(u)
            frontier = nxt

        # PSL-style fixed-point pass over the labelled region: computes
        # soft confidences for the hard labels above. This is the
        # deliberately expensive inference step whose wall-clock the
        # Table 6 harness reports; the hard inferred labels above stay
        # as the propagated verdicts.
        lab_mask = inferred >= 0
        beliefs = np.where(lab_mask, np.maximum(inferred, 0.0), 0.5)
        _propagation_sweep(adj, beliefs, anchored, n_prop_iters)

    machine_seconds = time.perf_counter() - t0
    return KGEvalResult(
        mu_hat=float((inferred >= 0.5).mean()),
        n_annotated=len(comps),
        annotation_hours=DEFAULT_COST.cost_hours(len(comps), len(comps)),
        machine_seconds=machine_seconds,
    )

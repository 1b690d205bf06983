"""Synthetic coupling constraints for the KGEval baseline (Sec 8, [26]).

KGEval exploits dependencies among triples — type consistency and
Horn-clause coupling constraints — to propagate correctness labels from
annotated triples to coupled ones. The real constraint sets come from
NELL's learned rules and are not available here, so we synthesise a
coupling graph with the two structural ingredients that matter:

1. **Type-consistency edges**: triples sharing (subject, predicate) are
   mutually coupled — a self-merge on the pair.
2. **Horn-rule cliques**: each triple is assigned to a hidden rule group
   drawn uniformly from M/mean_group groups; triples in a group are
   mutually coupled. The mean group size is the calibration knob that
   pins the number of human annotations KGEval needs to cover the KG
   (Table 6: ~140 for NELL, ~204 for YAGO).

The graph is built in pandas on the KG's triple rows, as KGEval's
inference is centralised: the paper measures it on KGs of under 2,000
triples (12-18 h machine time). Triple ids follow the (subject,
predicate, object) sort order and the edges are sorted, so the graph —
and the inference that walks it — depends only on the KG's content and
the seed, never on the order of the input rows.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _pairs_within(triples: pd.DataFrame, key_cols: list[str]) -> pd.DataFrame:
    """Undirected edges (src < dst) between all triples sharing the key columns."""
    keyed = triples[[*key_cols, "tid"]]
    pairs = keyed.merge(keyed, on=key_cols, suffixes=("_src", "_dst"))
    pairs = pairs[pairs["tid_src"] < pairs["tid_dst"]]
    return pd.DataFrame({"src": pairs["tid_src"], "dst": pairs["tid_dst"]})


def build_coupling(
    kg: pd.DataFrame, *, mean_group: float, seed: int
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(triples, edges) of the coupling graph over the KG's triple rows.

    ``kg`` holds (subject, predicate, object, label) rows, as from
    ``SyntheticKG.to_pandas()``. ``triples`` adds the dense ``tid`` and
    the hidden ``rule_group``, in tid order; ``edges`` holds the distinct
    undirected (src, dst) tid pairs, sorted.
    """
    if mean_group < 1.0:
        raise ValueError("mean_group must be >= 1")
    # The label only breaks ties between duplicate rows.
    triples = kg.sort_values(["subject", "predicate", "object", "label"], ignore_index=True)
    n = len(triples)
    n_groups = max(1, int(round(n / mean_group)))
    triples["tid"] = np.arange(n, dtype=np.int64)
    triples["rule_group"] = np.random.default_rng(seed).integers(0, n_groups, n)
    edges = (
        pd.concat(
            [_pairs_within(triples, ["subject", "predicate"]), _pairs_within(triples, ["rule_group"])]
        )
        .drop_duplicates()
        .sort_values(["src", "dst"], ignore_index=True)
    )
    return triples[["tid", "subject", "predicate", "rule_group", "label"]], edges

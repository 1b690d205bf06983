"""Table 6 — TWCS vs KGEval on NELL and YAGO.

Machine time for sample generation/inference, number of triples
annotated, annotation hours, and the accuracy estimate. KGEval is the
inference-propagation substitute (see DESIGN.md): its coupling graph is
built in pandas from the KG's triple rows, so its cells depend only on
the KG and the seed. Its machine time is the measured greedy-selection +
propagation loop on the coupled KG — the paper's point being that it
sits orders of magnitude above TWCS's sampling time and grows with KG
size, while TWCS stays sub-second. No Spark session is needed.
"""
from __future__ import annotations

import time

from repro.core.cluster_stats import Population
from repro.kg.generator import nell_like, yago_like
from repro.kgeval.coupling import build_coupling
from repro.kgeval.kgeval import kgeval_evaluate
from repro.sim import mc
from repro.tables.common import hours_cell, mu_cell, n_trials, render, task_m

PAPER = {
    ("NELL", "KGEval"): dict(machine="12.44 hours", annotated="140", hours="2.3", est="91.84%"),
    ("NELL", "TWCS"): dict(machine="<1 second", annotated="149±47", hours="1.85±0.6", est="91.63%±2.3%"),
    ("YAGO", "KGEval"): dict(machine="18.13 hours", annotated="204", hours="3.17", est="99.30%"),
    ("YAGO", "TWCS"): dict(machine="<1 second", annotated="32±5", hours="0.44±0.07", est="99.2% (96.7%-100%)"),
}

# Horn-rule mean group sizes calibrated so annotations-to-cover matches
# Table 6 (~140 on NELL, ~204 on YAGO); see kgeval.coupling.
_MEAN_GROUP = {"NELL": 9.5, "YAGO": 6.0}


def compute(*, trials: int | None = None) -> list[dict]:
    t = trials if trials is not None else n_trials(1000)
    seed = 3
    rows = []
    for name, gen in [("NELL", nell_like), ("YAGO", yago_like)]:
        kg = gen()
        pop = Population.from_synthetic(kg)

        # --- KGEval: coupling graph and inference in the driver (its
        # real-world scalability ceiling).
        triples, edges = build_coupling(kg.to_pandas(), mean_group=_MEAN_GROUP[name], seed=seed)
        kge = kgeval_evaluate(triples, edges, seed=seed)

        # --- TWCS: MC summary for costs + measured sampling time.
        m_opt = task_m(pop)
        t0 = time.perf_counter()
        s = mc.run_trials(pop, "twcs", m=m_opt, n_trials=t, seed=seed)
        twcs_machine = (time.perf_counter() - t0) / t  # per full evaluation

        p_k, p_t = PAPER[(name, "KGEval")], PAPER[(name, "TWCS")]
        rows.append(
            {
                "KG": name,
                "method": "KGEval",
                "machine time (paper)": p_k["machine"],
                "machine time (ours)": f"{kge.machine_seconds:.1f} s",
                "# annotated (paper)": p_k["annotated"],
                "# annotated (ours)": kge.n_annotated,
                "annotation h (paper)": p_k["hours"],
                "annotation h (ours)": f"{kge.annotation_hours:.2f}",
                "estimation (paper)": p_k["est"],
                "estimation (ours)": f"{100 * kge.mu_hat:.2f}%",
            }
        )
        rows.append(
            {
                "KG": name,
                "method": f"TWCS (m={m_opt})",
                "machine time (paper)": p_t["machine"],
                "machine time (ours)": f"{twcs_machine * 1e3:.1f} ms",
                "# annotated (paper)": p_t["annotated"],
                "# annotated (ours)": f"{s.triples_mean:.0f}±{s.triples_sd:.0f}",
                "annotation h (paper)": p_t["hours"],
                "annotation h (ours)": hours_cell(s),
                "estimation (paper)": p_t["est"],
                "estimation (ours)": mu_cell(name, s, digits=2),
            }
        )
    return rows


def table_text(rows: list[dict]) -> str:
    return render("Table 6: TWCS vs KGEval on NELL and YAGO (paper vs ours)", rows)

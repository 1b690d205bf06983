"""Benchmark of the KG accuracy-evaluation program.

    python3 perfbench/run.py --workload {spark-static,mc-static,evolving}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
The seed fixes every input: the KG generator seed, the per-operation
seeds and the update batches. Set-up (Spark session, KG materialisation,
strata, update batches, warm-up operations on seeds outside the measured
set) happens before timing and is reported as ``setup_s``. Then units run
back to back for ``--seconds`` seconds; evolving runs each unit in a
child forked from the set-up process, one at a time.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (see metrics.py). With ``--trace 1`` each unit runs
twice, untraced and traced (alternating which goes first); the JSON
carries the per-layer metrics from the traced runs and the tracing
overhead, and every span is written to
``.perfbench/spans-<workload>-seed<N>.jsonl``.

Every operation is checked (checks.py); ``failed`` counts those that
raised or failed a check, and ``correct`` is false if any did or if the
mean estimate over the run is off the truth by more than eps.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _in_child(fn):
    """``fn()`` in a forked child process; its result, or its exception."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            data = pickle.dumps((True, fn()))
        except BaseException as exc:  # handed to the parent to re-raise
            data = pickle.dumps((False, exc))
        with os.fdopen(write, "wb") as f:
            f.write(data)
        os._exit(0)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as f:
            data = f.read()
    finally:
        os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"unit process {pid} ended without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _unit(wl, i: int, ops: list, tracer) -> float:
    """Run unit ``i``, appending its operations to ``ops``; its wall seconds.

    A workload with ``fork_units`` runs each unit in a child forked from
    the set-up process (see workloads.Workload), and takes back its
    operations and spans.
    """

    def run():
        t = perf_counter()
        wl.unit(i, ops, tracer)
        return perf_counter() - t

    if not wl.fork_units:
        return run()
    n_ops = len(ops)
    n_spans = len(tracer.spans) if tracer is not None else 0

    def child():
        dt = run()
        if tracer is None:
            return dt, ops[n_ops:], [], 0
        return dt, ops[n_ops:], tracer.spans[n_spans:], tracer.next_op

    dt, new_ops, spans, next_op = _in_child(child)
    ops += new_ops
    if tracer is not None:
        tracer.spans += spans
        tracer.next_op = next_op
    return dt


def _measure(wl, seconds: float, tracer):
    """Run units for ``seconds`` of untraced time.

    Returns (untraced ops, (ops, wall s, s inside ops) of each untraced
    unit, traced ops, traced wall s).
    """
    ops, traced_ops, units = [], [], []
    wall = traced_wall = 0.0
    i = 0
    while wall < seconds:
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order if tracer is not None else (False,):
            if traced:
                first = len(tracer.spans)
                wl.install_layers(tracer)
                try:
                    traced_wall += _unit(wl, i, traced_ops, tracer)
                finally:
                    tracer.restore()
                tracer.resolve_jobs(tracer.spans[first:])
            else:
                first = len(ops)
                dt = _unit(wl, i, ops, None)
                units.append((len(ops) - first, dt, sum(op.seconds for op in ops[first:])))
                wall += dt
        i += 1
    return ops, units, traced_ops, traced_wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.checks import check_bias
    from perfbench.metrics import END_TO_END, PER_LAYER, end_to_end, per_layer, report_lines
    from perfbench.tracing import Tracer
    from perfbench.workloads import CONFIG, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench"
    scratch = out / f"tmp-{args.workload}-{args.seed}"
    wl = WORKLOADS[args.workload](args.seed, scratch)
    try:
        setup_s = wl.set_up()
        tracer = Tracer(wl.spark_context()) if args.trace else None
        ops, units, traced_ops, traced_wall = _measure(wl, args.seconds, tracer)
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.fork_units:  # the units ran in children (Spark's JVM never does)
        peak_rss_kb = max(peak_rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    peak_rss_mb = peak_rss_kb / 1024

    all_ops = ops + traced_ops
    failed = [op for op in all_ops if op.failures]
    bias = check_bias([op.outcome for op in ops if op.outcome], CONFIG.eps, wl.bias_per_design)
    e2e = end_to_end(wl, ops, units, setup_s, peak_rss_mb)
    unit_of = dict((name, unit) for name, unit, *_ in END_TO_END)
    print(f"{args.workload} seed {args.seed}: ops = {len(all_ops)}, failed_ops = {len(failed)}")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {unit_of[name]}")
    for line in report_lines(wl, ops, units):
        print(line)
    for op in failed[:10]:
        print(f"  FAILED {op.kind}: {'; '.join(op.failures)}")
    for msg in bias:
        print(f"  BIAS CHECK FAILED {msg}")

    if args.trace:
        wall = sum(seconds for _, seconds, _ in units)
        overhead = (traced_wall - wall) / wall
        layers = per_layer(wl, ops, traced_ops, tracer.spans, overhead)
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        for name, unit, _, moves in PER_LAYER:
            print(f"  {name} = {layers[name]:.6g} {unit}  -> {moves}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, *_ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit_of[name]} for name in unit_of}

    print(
        json.dumps(
            {
                "correct": not failed and not bias,
                "attempted": len(all_ops),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

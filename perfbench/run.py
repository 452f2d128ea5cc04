"""Benchmark of certified factorization and isometry decisions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, whose spans are written under ``perfbench/out/``.  Earlier
lines report the input digest, sample counts and failures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it
    rather than measure some other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "hermlat", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hermlat

    if os.path.dirname(os.path.abspath(hermlat.__file__)) != os.path.join(SRC, "hermlat"):
        sys.stderr.write(f"perfbench: imported hermlat from {hermlat.__file__}\n")
        raise SystemExit(2)


def _emit(record):
    print(json.dumps(record), flush=True)


def _result(samples, metrics):
    return {
        "correct": not any(s.wrong for s in samples),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.error is not None),
        "metrics": metrics,
    }


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics."""
    import harness
    import workloads

    specs = workloads.read_specs(workload) if workload in workloads.CATALOG_WORKLOADS else None
    setup_times, setup_walls = [], []
    lats = None
    for _ in range(harness.SETUP_REPEATS):
        built, error, normalized, wall = harness.timed(
            lambda: workloads.build(workload, specs))
        if error is not None:
            raise error
        setup_times.append(normalized)
        setup_walls.append(wall)
        lats = lats or built
    schedule = workloads.make_inputs(workload, lats, seed)
    _emit({"record": "inputs", "workload": workload, "seed": seed,
           "digest": workloads.digest(workload, lats, schedule),
           "lattices": [name for name, _ in lats],
           "factor_inputs": sum(1 for k, _ in schedule if k == "factor"),
           "decide_pairs": sum(1 for k, _ in schedule if k == "decide")})
    samples, passes = harness.run_passes(schedule, seconds)
    values = harness.end_to_end(samples, setup_times)
    walls = harness.end_to_end(samples, setup_walls, wall=True)
    for name, unit, better, bound in harness.END_TO_END:
        value, count = values[name]
        _emit({"record": "metric", "name": name, "value": value, "unit": unit,
               "better": better, "bound": bound, "samples": count, "wall": walls[name][0]})
    _emit(dict(record="failures", passes=passes, **harness.failure_summary(samples)))
    return _result(samples, {name: {"value": values[name][0], "unit": unit}
                             for name, unit, _, bound in harness.END_TO_END
                             if bound is not None})


def measure_traced(workload, seed, seconds, out_dir=OUT):
    """Traced run: per-layer metrics.  The first rounds of the schedule, a
    third of `seconds` of them, run once untraced and then once traced, so
    the overhead is measured on identical work."""
    import harness
    import tracer as tr
    import workloads

    specs = workloads.read_specs(workload) if workload in workloads.CATALOG_WORKLOADS else None
    tracer = tr.Tracer()
    with tracer:
        lats = workloads.build(workload, specs)
        tracer.phase = tracer.op = "inputs"
        schedule = workloads.make_inputs(workload, lats, seed)
    _emit({"record": "inputs", "workload": workload, "seed": seed,
           "digest": workloads.digest(workload, lats, schedule)})
    plain, n_ops = harness.run_rounds(schedule, 2 * len(lats), seconds / 3.0)
    tracer.phase = "loop"

    def on_op(index):
        tracer.op = index

    with tracer:
        traced = harness.run_pass(schedule[:n_ops], on_op=on_op)
    left = tr.wrapped_bindings()
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")
    base = sum(s.seconds for s in plain)
    overhead = sum(s.seconds for s in traced) / base - 1.0
    counts = {"op": len(traced),
              "factor": sum(1 for s in traced if s.kind == "factor"),
              "decide": sum(1 for s in traced if s.kind == "decide"),
              "input": sum(1 for k, _ in schedule if k == "factor")}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl")
    tracer.write(path)
    values = tr.layer_metrics(tracer, counts, overhead)
    for name, value in values.items():
        unit, better, per = tr.LAYER_METRICS[name][:3]
        _emit({"record": "layer", "name": name, "value": value, "unit": unit,
               "better": better, "per": per, "samples": counts.get(per, 1)})
    _emit(dict(record="failures", operations=n_ops, spans=len(tracer.spans),
               trace_file=path,
               **harness.failure_summary(plain + traced)))
    return _result(plain + traced, {name: {"value": value, "unit": tr.LAYER_METRICS[name][0]}
                                    for name, value in values.items()})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    run = measure_traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

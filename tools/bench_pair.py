"""Paired benchmark runs of a base revision against the checkout.

    python3 tools/bench_pair.py --rev HEAD~1 --workload ramified --seeds 1 2 3 --seconds 15

Run from the root of a checkout.  The revision ``--rev`` is exported with
``git archive`` into a temporary directory, so no worktree is registered,
and ``perfbench/run.py`` runs there ("base") and in the checkout ("head")
once per seed, alternating which side runs first, so that drift of the
host's speed falls on both sides alike.  The last line of each run is its
JSON result.  For every metric the script prints, per side, the median and
the quartiles over the seeds, and in how many of the pairs head did better
than base, in the direction ``BENCHMARK.json`` gives for the metric.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def better_directions(path=os.path.join(ROOT, "BENCHMARK.json")):
    """{metric: "lower" | "higher"} of the end-to-end metrics."""
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def export(rev, dest):
    """The files of rev, as ``git archive`` gives them, unpacked in dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)


def run_once(checkout, workload, seed, seconds):
    """The last line of ``perfbench/run.py`` in checkout, parsed."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, better):
    """One row per metric of the (base, head) result pairs: the metric, the
    median and quartiles of each side as (median, q1, q3), the number of
    pairs in which head did better, and the number of pairs.  ``better``
    maps a metric to "lower" or "higher"; metrics it does not name are
    left out."""
    rows = []
    for name in sorted(pairs[0][0]["metrics"]):
        if name not in better:
            continue
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        sign = -1 if better[name] == "lower" else 1
        wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
        rows.append((name,) + tuple((statistics.median(v),) + _quartiles(v)
                                    for v in (base, head)) + (wins, len(pairs)))
    return rows


def format_rows(rows):
    lines = [f"{'metric':24} {'base median [q1, q3]':>30} {'head median [q1, q3]':>30}  wins"]
    for name, base, head, wins, n in rows:
        cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for m, q1, q3 in (base, head)]
        lines.append(f"{name:24} {cells[0]:>30} {cells[1]:>30}  {wins}/{n}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True, help="base revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as base_dir:
        export(args.rev, base_dir)
        for i, seed in enumerate(args.seeds):
            sides = {}
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                checkout = base_dir if side == "base" else ROOT
                sides[side] = run_once(checkout, args.workload, seed, args.seconds)
                failed = sides[side]["failed"]
                print(f"seed {seed} {side}: {sides[side]['attempted']} ops, "
                      f"{failed} failed", flush=True)
            pairs.append((sides["base"], sides["head"]))
    print(format_rows(summarize(pairs, better_directions())))
    return 0


if __name__ == "__main__":
    sys.exit(main())

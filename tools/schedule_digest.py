"""Exact digests of every result of one benchmark schedule.

    python3 tools/schedule_digest.py --workload ramified --seed 3
    python3 tools/schedule_digest.py --workload ramified --seeds 1 2 3 --against HEAD~1

Run from the root of a checkout; the program is imported from ``src/`` and
the schedule from ``perfbench/workloads.py``, so the operations are the ones
``perfbench/run.py`` times at that seed.  Every operation runs once.

For each operation two SHA-256 digests are taken of what it returns:
``sha256`` over the exact representation ``(co, shift, ncap)`` of every
element, and ``value_sha256`` over every element reduced to the guaranteed
precision (``workloads._entry_key``, the form of the benchmark's input
digest).  The results are:

- ``factor``: each generator's kind, data and matrix, the residual
  precision, the kinds flag and the certificate of
  ``verify_factorization``;
- ``decide``: the verdict and trace of ``isometry_conditions``, the Jordan
  splitting of the second lattice (blocks and transform), its
  ``splits_hyperbolic`` witness and its ``classify`` record.

An operation that raises is hashed by its exception class and message.
Output is JSON lines: the benchmark's input digest, one line per operation
and, last, both digests of the whole schedule with the failure count.  Equal
lines on two commits show that they compute the same results on that
schedule; equal ``value_sha256`` alone, the same values with other
precision counts.

Several seeds print one such block each.  With ``--against REV`` the
revision is exported with ``git archive`` into a temporary directory, this
script and ``bench_pair.py`` are copied into it, so both sides hash alike,
and each seed's schedule is digested there ("base") and in the checkout
("head"), each in a fresh process.  One line per seed tells whether
``sha256`` and ``value_sha256`` of the whole schedule agree, names the
first operation whose digests differ and counts the differing operations
per lattice and operation kind; the exit status is 1 if any seed differs.

``exact_key`` is the one exact form of results; the golden digests of
``tests/test_kernel_identity.py`` use it too.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from bench_pair import export  # noqa: E402
from hermlat import classify, factorize  # noqa: E402
from hermlat.isometries import EichlerIsometry, matrix_of  # noqa: E402


def _keyed(obj, field_key):
    """JSON-able form: each field element through field_key, an algebra
    element as its two coordinates, containers element by element,
    everything else as is."""
    if hasattr(obj, "x0"):
        return [field_key(obj.x0), field_key(obj.x1)]
    if hasattr(obj, "co"):
        return field_key(obj)
    if isinstance(obj, dict):
        return [[str(k), _keyed(v, field_key)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [_keyed(v, field_key) for v in obj]
    return obj


def exact_key(obj):
    """The exact form: field elements as (co, shift, ncap)."""
    return _keyed(obj, lambda x: [list(x.co), x.shift, x.ncap])


def value_key(obj):
    """The value form: field elements reduced to the guaranteed precision."""
    return _keyed(obj, workloads._field_key)


def _error(ex):
    return {"error": [type(ex).__name__, str(ex)]}


def _generator(lat, g):
    if isinstance(g, EichlerIsometry):
        data = ["E", g.u, g.v, g.y, g.mu]
    else:
        data = ["S", g.s, g.sigma]
    return data + [matrix_of(lat, g)]


def factor_result(item):
    lat = item.lattice
    try:
        fac = factorize.factor_unitary(lat, item.phi)
        cert = factorize.verify_factorization(lat, item.phi, fac)
    except Exception as ex:  # noqa: BLE001 - a failure is a result too
        return _error(ex)
    return {"generators": [_generator(lat, g) for g in fac],
            "residual_precision": cert["residual_precision"],
            "symmetries_only": not fac.contains_eichler,
            "certificate": cert}


def decide_result(item):
    doc = {}
    try:
        doc["verdict"] = classify.isometry_conditions(item.lattice, item.other)
        split = item.other.jordan_split()
        doc["jordan"] = [[blk.scale_exp, blk.rank, blk.norm_exp, blk.normal,
                          blk.cols, blk.gram] for blk in split.blocks]
        doc["transform"] = split.transform
        doc["witness"] = classify.splits_hyperbolic(item.other)
        doc["record"] = workloads.classify_record(item.other)
    except Exception as ex:  # noqa: BLE001
        doc.update(_error(ex))
    return doc


RESULTS = {"factor": factor_result, "decide": decide_result}


def digests(doc):
    """(sha256, value_sha256) of a result: its top-level fields through
    ``exact_key`` and through ``value_key``."""
    out = []
    for key in (exact_key, value_key):
        blob = json.dumps({k: key(v) for k, v in doc.items()}, sort_keys=True,
                          separators=(",", ":"), default=repr)
        out.append(hashlib.sha256(blob.encode()).hexdigest())
    return tuple(out)


def schedule_records(schedule):
    """One record per ``(kind, item)`` of ``schedule``, then the schedule
    record; an item needs ``lattice``, ``lattice_name`` and ``phi`` (factor)
    or ``other`` (decide)."""
    whole, whole_value = hashlib.sha256(), hashlib.sha256()
    failed = 0
    for index, (kind, item) in enumerate(schedule):
        doc = RESULTS[kind](item)
        failed += "error" in doc
        sha, value_sha = digests(doc)
        whole.update(sha.encode())
        whole_value.update(value_sha.encode())
        line = {"record": "op", "index": index, "kind": kind,
                "lattice": item.lattice_name, "sha256": sha, "value_sha256": value_sha}
        if "error" in doc:
            line["error"] = doc["error"]
        yield line
    yield {"record": "schedule", "ops": len(schedule), "failed": failed,
           "sha256": whole.hexdigest(), "value_sha256": whole_value.hexdigest()}


DIGESTS = ("sha256", "value_sha256")


def compare(base, head):
    """How two runs of one schedule differ, given the records each printed:
    ``inputs`` (equal input digests), each of ``DIGESTS`` (equal digests of
    the whole schedule), ``failed`` (the failure count of each side),
    ``first``: None, or the first operation whose records differ (a missing
    one counts) as ``(index, kind, lattice, names of the differing
    digests)``, and ``differing``: how many operations differ, by
    ``(lattice, kind)``."""
    def parts(records):
        by_kind = {}
        for r in records:
            by_kind.setdefault(r["record"], []).append(r)
        return by_kind["inputs"][0], by_kind.get("op", []), by_kind["schedule"][0]

    (b_in, b_ops, b_all), (h_in, h_ops, h_all) = parts(base), parts(head)
    out = {"inputs": b_in["digest"] == h_in["digest"],
           "failed": (b_all["failed"], h_all["failed"]), "first": None,
           "differing": Counter()}
    out.update((k, b_all[k] == h_all[k]) for k in DIGESTS)
    for b, h in itertools.zip_longest(b_ops, h_ops, fillvalue={}):
        differ = [k for k in DIGESTS if b.get(k) != h.get(k)]
        if differ:
            op = b or h
            if out["first"] is None:
                out["first"] = (op["index"], op["kind"], op["lattice"], differ)
            out["differing"][op["lattice"], op["kind"]] += 1
    return out


def format_comparison(seed, cmp):
    words = [f"seed {seed}:"]
    if not cmp["inputs"]:
        words.append("inputs DIFFER,")
    words.append(", ".join(f"{k} {'equal' if cmp[k] else 'DIFFER'}" for k in DIGESTS))
    words.append("(failed %d base, %d head)" % cmp["failed"])
    if cmp["first"] is not None:
        index, kind, lattice, differ = cmp["first"]
        words.append(f"first differing op {index} ({kind} {lattice}): {', '.join(differ)};")
        words.append("differing ops: " + ", ".join(
            f"{lattice} {kind} {n}" for (lattice, kind), n in sorted(cmp["differing"].items())))
    return " ".join(words)


def run_records(checkout, workload, seed):
    """The records this script prints for one seed in checkout, in a fresh
    process."""
    out = subprocess.run([sys.executable, os.path.join("tools", "schedule_digest.py"),
                          "--workload", workload, "--seed", str(seed)],
                         cwd=checkout, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def against(rev, workload, seeds):
    """Compare each seed's schedule at rev with the checkout; True if every
    seed agrees on both digests and on its inputs."""
    same = True
    with tempfile.TemporaryDirectory(prefix="schedule-digest-") as base_dir:
        export(rev, base_dir)
        os.makedirs(os.path.join(base_dir, "tools"), exist_ok=True)
        for name in ("schedule_digest.py", "bench_pair.py"):
            shutil.copy(os.path.join(ROOT, "tools", name), os.path.join(base_dir, "tools"))
        for seed in seeds:
            cmp = compare(run_records(base_dir, workload, seed),
                          run_records(ROOT, workload, seed))
            same = same and cmp["inputs"] and all(cmp[k] for k in DIGESTS)
            print(format_comparison(seed, cmp), flush=True)
    return same


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seeds", "--seed", dest="seeds", type=int, nargs="+", required=True)
    ap.add_argument("--against", metavar="REV", help="compare with this revision")
    args = ap.parse_args(argv)

    if args.against:
        return 0 if against(args.against, args.workload, args.seeds) else 1
    for seed in args.seeds:
        lats = workloads.build(args.workload)
        schedule = workloads.make_inputs(args.workload, lats, seed)
        print(json.dumps({"record": "inputs", "workload": args.workload, "seed": seed,
                          "digest": workloads.digest(args.workload, lats, schedule)}),
              flush=True)
        for record in schedule_records(schedule):
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

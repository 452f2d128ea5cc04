"""Exact digests of every result of one benchmark schedule.

    python3 tools/schedule_digest.py --workload ramified --seed 3

Run from the root of a checkout; the program is imported from ``src/`` and
the schedule from ``perfbench/workloads.py``, so the operations are the ones
``perfbench/run.py`` times at that seed.  Every operation runs once.

For each operation a SHA-256 is taken over the exact representation
``(co, shift, ncap)`` of what it returns:

- ``factor``: each generator's kind, data and matrix, the residual
  precision, the kinds flag and the certificate of
  ``verify_factorization``;
- ``decide``: the verdict and trace of ``isometry_conditions``, the Jordan
  splitting of the second lattice (blocks and transform), its
  ``splits_hyperbolic`` witness and its ``classify`` record.

An operation that raises is hashed by its exception class and message.
Output is JSON lines: the benchmark's input digest, one line per operation
and, last, the digest of the whole schedule with the failure count.  Equal
lines on two commits show that they compute the same results on that
schedule.

``exact_key`` is the one exact form of results; the golden digests of
``tests/test_kernel_identity.py`` use it too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from hermlat import classify, factorize  # noqa: E402
from hermlat.isometries import EichlerIsometry, matrix_of  # noqa: E402


def exact_key(obj):
    """JSON-able exact form: algebra and field elements as (co, shift,
    ncap), containers element by element, everything else as is."""
    if hasattr(obj, "x0"):
        return [exact_key(obj.x0), exact_key(obj.x1)]
    if hasattr(obj, "co"):
        return [list(obj.co), obj.shift, obj.ncap]
    if isinstance(obj, dict):
        return [[str(k), exact_key(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [exact_key(v) for v in obj]
    return obj


def _error(ex):
    return {"error": [type(ex).__name__, str(ex)]}


def _generator(lat, g):
    if isinstance(g, EichlerIsometry):
        data = ["E", g.u, g.v, g.y, g.mu]
    else:
        data = ["S", g.s, g.sigma]
    return exact_key(data + [matrix_of(lat, g)])


def factor_result(item):
    lat = item.lattice
    try:
        fac = factorize.factor_unitary(lat, item.phi)
        cert = factorize.verify_factorization(lat, item.phi, fac)
    except Exception as ex:  # noqa: BLE001 - a failure is a result too
        return _error(ex)
    return {"generators": [_generator(lat, g) for g in fac],
            "residual_precision": fac.residual_precision,
            "symmetries_only": fac.symmetries_only,
            "certificate": exact_key(cert)}


def decide_result(item):
    doc = {}
    try:
        doc["verdict"] = exact_key(classify.isometry_conditions(item.lattice, item.other))
        split = item.other.jordan_split()
        doc["jordan"] = [[blk.scale_exp, blk.rank, blk.norm_exp, blk.normal,
                          exact_key(blk.cols), exact_key(blk.gram)] for blk in split.blocks]
        doc["transform"] = exact_key(split.transform)
        doc["witness"] = exact_key(classify.splits_hyperbolic(item.other))
        doc["record"] = exact_key(workloads.classify_record(item.other))
    except Exception as ex:  # noqa: BLE001
        doc.update(_error(ex))
    return doc


RESULTS = {"factor": factor_result, "decide": decide_result}


def _sha(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def schedule_records(schedule):
    """One record per ``(kind, item)`` of ``schedule``, then the schedule
    record; an item needs ``lattice``, ``lattice_name`` and ``phi`` (factor)
    or ``other`` (decide)."""
    whole = hashlib.sha256()
    failed = 0
    for index, (kind, item) in enumerate(schedule):
        doc = RESULTS[kind](item)
        failed += "error" in doc
        sha = _sha(doc)
        whole.update(sha.encode())
        line = {"record": "op", "index": index, "kind": kind,
                "lattice": item.lattice_name, "sha256": sha}
        if "error" in doc:
            line["error"] = doc["error"]
        yield line
    yield {"record": "schedule", "ops": len(schedule), "failed": failed,
           "sha256": whole.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    lats = workloads.build(args.workload)
    schedule = workloads.make_inputs(args.workload, lats, args.seed)
    print(json.dumps({"record": "inputs", "workload": args.workload, "seed": args.seed,
                      "digest": workloads.digest(args.workload, lats, schedule)}),
          flush=True)
    for record in schedule_records(schedule):
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()

"""The schedule digest of ``tools/schedule_digest.py``, the summary of
``tools/bench_pair.py`` and the ledger of ``tools/reach.py``.

The digest tool is run on a small schedule built here, not on a benchmark
schedule, so its records are checked without pinning
``perfbench/workloads.py``: one record per operation and a last schedule
record, the same output on every run, and an operation that raises recorded
as failed with its exception.  The value digest sees values, not precision
counts.  The comparison of two digest runs (``--against``) and the pair
summary are checked on canned records and result lines; no benchmark runs.
"""

import json
import os
import random
import sys
from types import SimpleNamespace

import hermlat
from hermlat import oracle
from hermlat.factorize import factor_unitary
from hermlat.isometries import matrix_of
from hermlat.etale import AlgElement
from hermlat.linalg import identity, mat_mul
from hermlat.localfield import FieldElement
from hermlat.specfile import parse_lattice

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
from bench_pair import format_rows, summarize  # noqa: E402
from reach import census, defined, ledger  # noqa: E402
from schedule_digest import (  # noqa: E402
    compare,
    digests,
    exact_key,
    format_comparison,
    schedule_records,
)


def _schedule():
    with open(hermlat.catalog_path("q2i-h.lat")) as fh:
        lat = parse_lattice(fh.read())
    rng = random.Random("schedule-digest")
    phi = identity(lat.alg, lat.n)
    for _ in range(2):
        phi = mat_mul(phi, matrix_of(lat, oracle.random_symmetry(lat, rng)))
    zero = tuple(tuple(lat.alg.zero for _ in range(lat.n)) for _ in range(lat.n))
    item = dict(lattice_name="q2i-h", lattice=lat)
    return [("factor", SimpleNamespace(phi=phi, **item)),
            ("decide", SimpleNamespace(other=lat, **item)),
            ("factor", SimpleNamespace(phi=zero, **item))]


def test_schedule_records_are_exact_and_repeatable():
    schedule = _schedule()
    records = list(schedule_records(schedule))
    assert records == list(schedule_records(schedule))
    ops, whole = records[:-1], records[-1]
    assert [r["record"] for r in ops] == ["op"] * 3 and whole["record"] == "schedule"
    assert [r["kind"] for r in ops] == ["factor", "decide", "factor"]
    assert len({r["sha256"] for r in ops}) == 3
    assert len({r["value_sha256"] for r in ops}) == 3 and "value_sha256" in whole
    assert "error" not in ops[0] and "error" not in ops[1]
    assert ops[2]["error"][0] == "HermlatError"
    assert whole["ops"] == 3 and whole["failed"] == 1


def test_reach_ledger_counts_one_operation():
    """One factor op on q2i-h: factor_unitary and verify_factorization run
    once each, every counted name is a defined one, nested moves are
    defined too, and a function the op does not reach is listed as never
    called; the op, two symmetries, is the reflection descent's, no pair
    is peeled, and the ledger says so with the word's length; the profile
    hook is gone afterwards."""
    counts, failed, routes = census(_schedule()[:1])
    names = defined()
    assert sys.getprofile() is None and failed == []
    assert counts["factorize", "factor_unitary"] == 1
    assert counts["factorize", "verify_factorization"] == 1
    assert set(counts) <= names
    assert ("factorize", "map_unit_vector.<locals>.push") in names
    assert ("factorize", "_transport_pair") not in counts
    assert routes == {("q2i-h", "descent"): [2]}
    assert ("factorize", "_peel_pair") not in counts
    lines = ledger(counts, names, [("op 0", ["UnsupportedCase", "stuck"])], routes)
    assert "       1  factorize.factor_unitary" in lines
    assert "  routes  q2i-h: descent 1 (mean 2.0), descent+pair 0, driver 0" in lines
    assert "   never  factorize._transport_pair" in lines
    assert lines[-1] == "  failed  op 0: UnsupportedCase: stuck"


def test_reach_routes_tell_the_driver_on_the_remainder_from_the_driver_alone():
    """A word whose descent stalls, so that a pair of the chain is peeled,
    is counted as ``descent+pair``; a split lattice's word, which the peel
    driver factors without a descent, as ``driver``; the census reads each
    word's length off its result."""
    ops = []
    for name, seed in (("q2i-h1h1", 2), ("split3", 0)):
        with open(hermlat.catalog_path(f"{name}.lat")) as fh:
            lat = parse_lattice(fh.read())
        phi = oracle.random_unitary(lat, 4, seed)[0]
        ops.append(("factor", SimpleNamespace(phi=phi, lattice_name=name, lattice=lat)))
    _, failed, routes = census(ops)
    h1h1, split3 = [len(factor_unitary(item.lattice, item.phi)) for _, item in ops]
    assert failed == []
    assert routes == {("q2i-h1h1", "descent+pair"): [h1h1], ("split3", "driver"): [split3]}


def test_exact_key_sees_the_precision_count():
    x = SimpleNamespace(co=(5,), shift=1, ncap=8)
    y = SimpleNamespace(co=(5,), shift=1, ncap=9)
    assert exact_key([x]) == [[[5], 1, 8]] and exact_key(x) != exact_key(y)


def test_value_digest_ignores_the_precision_count():
    """Two results equal in value, one entry kept to fewer digits: the same
    value_sha256, different sha256."""
    lat = _schedule()[0][1].lattice
    alg, K = lat.alg, lat.alg.base
    x = alg.from_int(5)
    y = AlgElement(alg, FieldElement(K, list(x.x0.co), x.x0.shift, K.precision), x.x1)
    assert x == y and x.x0.ncap != y.x0.ncap
    (sha_x, value_x), (sha_y, value_y) = (
        digests({"generators": [[e, alg.one]], "residual_precision": 64}) for e in (x, y))
    assert value_x == value_y and sha_x != sha_y


def _digest_run(ops, inputs="in", failed=0):
    """The records of one digest run: ops are (sha256, value_sha256) pairs;
    the schedule record's digests are joined from them."""
    records = [{"record": "inputs", "workload": "ramified", "seed": 1, "digest": inputs}]
    records += [{"record": "op", "index": i, "kind": "factor", "lattice": f"lat{i}",
                 "sha256": sha, "value_sha256": value} for i, (sha, value) in enumerate(ops)]
    records.append({"record": "schedule", "ops": len(ops), "failed": failed,
                    "sha256": "".join(s for s, _ in ops),
                    "value_sha256": "".join(v for _, v in ops)})
    return records


def test_digest_comparison_names_the_first_differing_op():
    base = _digest_run([("a", "A"), ("b", "B"), ("c", "C")])
    same = compare(base, _digest_run([("a", "A"), ("b", "B"), ("c", "C")]))
    assert same == {"inputs": True, "sha256": True, "value_sha256": True,
                    "failed": (0, 0), "first": None, "differing": {}}
    assert format_comparison(1, same) == (
        "seed 1: sha256 equal, value_sha256 equal (failed 0 base, 0 head)")

    # precision counts moved at op 1, values too at op 2
    moved = compare(base, _digest_run([("a", "A"), ("x", "B"), ("y", "Y")], failed=1))
    assert (moved["sha256"], moved["value_sha256"]) == (False, False)
    assert moved["failed"] == (0, 1) and moved["first"] == (1, "factor", "lat1", ["sha256"])
    assert format_comparison(2, moved).endswith(
        "first differing op 1 (factor lat1): sha256; "
        "differing ops: lat1 factor 1, lat2 factor 1")

    # an op missing on one side differs in both digests; other inputs are named
    short = compare(base, _digest_run([("a", "A"), ("b", "B")], inputs="other"))
    assert not short["inputs"] and short["first"] == (2, "factor", "lat2",
                                                      ["sha256", "value_sha256"])
    assert format_comparison(3, short).startswith("seed 3: inputs DIFFER, sha256 DIFFER")


def test_digest_comparison_counts_differing_ops_per_lattice_and_kind():
    """Six ops on two lattices, factor and decide in turn: the two factor
    ops of lattice a and both ops of b differ, and each (lattice, kind) is
    counted; the decide ops of a, all equal, are not named."""
    def run(shas):
        records = _digest_run([(sha, sha.upper()) for sha in shas])
        for op, (lattice, kind) in zip(records[1:-1], [("a", "factor"), ("a", "decide")] * 2
                                       + [("b", "factor"), ("b", "decide")]):
            op.update(lattice=lattice, kind=kind)
        return records

    cmp = compare(run("pqrstu"), run("PqRsTU"))
    assert cmp["differing"] == {("a", "factor"): 2, ("b", "factor"): 1, ("b", "decide"): 1}
    assert cmp["first"] == (0, "factor", "a", ["sha256"])
    assert format_comparison(4, cmp).endswith(
        "differing ops: a factor 2, b decide 1, b factor 1")


def _result_line(per_s, p90, rss):
    """A last line of ``perfbench/run.py``, as it prints it."""
    metrics = {"factor_per_s": {"value": per_s, "unit": "1/s"},
               "factor_s_p90": {"value": p90, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": True, "attempted": 40, "failed": 0, "metrics": metrics})


def test_bench_pair_summary_counts_wins_in_the_better_direction():
    pairs = [(json.loads(_result_line(*b)), json.loads(_result_line(*h)))
             for b, h in (((30.0, 0.060, 25.0), (36.0, 0.050, 25.0)),
                          ((31.0, 0.070, 25.0), (30.0, 0.050, 25.0)),
                          ((29.0, 0.065, 25.0), (35.0, 0.070, 25.0)))]
    better = {"factor_per_s": "higher", "factor_s_p90": "lower"}
    rows = summarize(pairs, better)
    assert [r[0] for r in rows] == ["factor_per_s", "factor_s_p90"]
    per_s, p90 = rows
    assert per_s[1] == (30.0, 29.5, 30.5) and per_s[2] == (35.0, 32.5, 35.5)
    assert per_s[3:] == (2, 3)
    assert p90[1] == (0.065, 0.0625, 0.0675) and p90[2][0] == 0.05
    assert p90[3:] == (2, 3)
    table = format_rows(rows).splitlines()
    assert len(table) == 3 and table[1].startswith("factor_per_s") and table[1].endswith("2/3")

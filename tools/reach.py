"""The reachability ledger of ``src/hermlat``: how often each function and
nested move runs on benchmark schedules and on a fixed list of lattices
outside the catalog, and which ones never run.

    python3 tools/reach.py --workload ramified --seeds 1 2 3
    python3 tools/reach.py --workload ramified unramified tower --seeds 1

Run from the root of a checkout; the program is imported from ``src/`` and
the schedules from ``perfbench/workloads.py``.  Every operation runs once,
as ``tools/schedule_digest.py`` runs it: a factor operation factors and
certifies, a decide operation computes the verdict, the splitting, the
witness and the classify record.  After the schedules, each lattice of
``out_of_catalog`` is factored at seeds 0-9 with
``phi = oracle.random_unitary(L, 1 + s % 6, s)``; the inputs are built
before counting starts.

A profile hook counts every entry into a frame whose code lies in
``src/hermlat``, keyed by module and ``co_qualname`` (Python 3.11 on), so a
nested move such as ``factorize._peel_normal.<locals>.steered`` has a count
of its own; a generator counts once per resume.  Lambdas and comprehensions
are neither counted nor listed.

Output: one line per function that ran, its count first; one ``never`` line
per named function of ``src/hermlat`` that did not run; one ``routes`` line
per lattice with factor operations, saying how many of them the reflection
descent finished and how many the peel driver did
(``factorize._factor_by_driver`` returned a word); one ``failed`` line per
operation that raised or whose input the oracle could not build.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import types
from collections import Counter

import schedule_digest  # puts src/ and perfbench/ on the path
import workloads  # noqa: E402
import hermlat  # noqa: E402
from hermlat import lattice, oracle  # noqa: E402
from hermlat.errors import HermlatError  # noqa: E402
from hermlat.etale import EtaleAlgebra  # noqa: E402
from hermlat.localfield import LocalField  # noqa: E402

SRC = os.path.dirname(os.path.abspath(hermlat.__file__))
EXTRA_SEEDS = range(10)


def out_of_catalog():
    """[(name, lattice)]: lattices that no catalog entry and no tower lattice
    is isometric to.  The first two reach the steered moves of the normal
    line and subnormal peels; the golden of ``peel_normal_dyadic`` is
    ``<1, 3>``; the last four fail at some seeds."""
    q2i = EtaleAlgebra.quadratic(LocalField(2), 2, 2)
    q2s = EtaleAlgebra.quadratic(LocalField(2), 0, -2)
    A, H, osum = lattice.standard_A, lattice.standard_H, lattice.orthogonal_sum
    diag13 = lattice.HermitianLattice(q2s, ((q2s.one, q2s.zero),
                                            (q2s.zero, q2s.from_int(3))))
    return [("Q_2(i) A(0,0)+H(3)", osum(A(q2i, 0, 0), H(q2i, 3))),
            ("Q_2(sqrt2) A(0,1)+H(2)", osum(A(q2s, 0, 1), H(q2s, 2))),
            ("Q_2(sqrt2) <1,3>", diag13),
            ("Q_2(sqrt2) A(0,0)+H(4)", osum(A(q2s, 0, 0), H(q2s, 4))),
            ("Q_2(sqrt2) A(1,1)+H(4)", osum(A(q2s, 1, 1), H(q2s, 4))),
            ("Q_2(sqrt2) A(0,1)+A(1,1)", osum(A(q2s, 0, 1), A(q2s, 1, 1))),
            ("Q_2(i) A(1,1)+A(2,1)", osum(A(q2i, 1, 1), A(q2i, 2, 1)))]


def extra_schedule():
    """The factor operations of ``out_of_catalog`` at ``EXTRA_SEEDS``, and
    (where, error) of each input the oracle could not build."""
    ops, skipped = [], []
    for name, lat in out_of_catalog():
        for s in EXTRA_SEEDS:
            k = 1 + s % 6
            try:
                phi, _ = oracle.random_unitary(lat, k, s)
            except HermlatError as ex:
                skipped.append((f"{name} seed {s} (oracle)", [type(ex).__name__, str(ex)]))
                continue
            ops.append(("factor", workloads.FactorInput(name, lat, k, s, phi)))
    return ops, skipped


def defined():
    """(module, co_qualname) of every named function of ``src/hermlat``,
    nested ones included."""
    names = set()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        with open(path, encoding="utf-8") as fh:
            todo = [compile(fh.read(), path, "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                names.add((fname[:-3], code.co_qualname))
    return names


DRIVER = ("factorize", "_factor_by_driver")


def census(ops):
    """Run each ``(kind, item)`` of ops once under the profile hook; returns
    the counts by (module, co_qualname), (index, error) of each operation
    that raised, and the factor operations that did not raise counted by
    (lattice name, ``"descent"`` or ``"driver"``): ``"driver"`` when the
    peel driver's factorization returned a word, ``"descent"`` otherwise."""
    counts, routes = Counter(), Counter()
    driven = []
    prefix = SRC + os.sep

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix) and not code.co_name.startswith("<"):
            key = os.path.basename(code.co_filename)[:-3], code.co_qualname
            if event == "call":
                counts[key] += 1
            elif event == "return" and key == DRIVER and arg is not None:
                # a frame that a raise unwinds returns None
                driven.append(key)

    failed = []
    for index, (kind, item) in enumerate(ops):
        driven.clear()
        sys.setprofile(hook)
        try:
            doc = schedule_digest.RESULTS[kind](item)
        finally:
            sys.setprofile(None)
        if "error" in doc:
            failed.append((index, doc["error"]))
        elif kind == "factor":
            routes[item.lattice_name, "driver" if driven else "descent"] += 1
    return counts, failed, routes


def ledger(counts, names, failed, routes):
    """The lines of the ledger (see the module docstring); failed holds
    (where, error) pairs, routes the counts ``census`` returns."""
    lines = [f"{counts[key]:>8}  {'.'.join(key)}" for key in sorted(counts)]
    lines += [f"{'never':>8}  {'.'.join(key)}" for key in sorted(names - set(counts))]
    lines += [f"{'routes':>8}  {name}: descent {routes[name, 'descent']}, "
              f"driver {routes[name, 'driver']}" for name in sorted({n for n, _ in routes})]
    lines += [f"{'failed':>8}  {where}: {': '.join(error)}" for where, error in failed]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, nargs="+", required=True)
    ap.add_argument("--seeds", "--seed", dest="seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)

    ops, where = [], []
    for workload in args.workload:
        for seed in args.seeds:
            schedule = workloads.make_inputs(workload, workloads.build(workload), seed)
            ops += schedule
            where += [f"{workload} seed {seed} op {i} ({kind})"
                      for i, (kind, _) in enumerate(schedule)]
    extra, skipped = extra_schedule()
    ops += extra
    where += [f"{item.lattice_name} seed {item.seed} (factor)" for _, item in extra]
    counts, failed, routes = census(ops)
    print(f"# {len(ops)} operations: {', '.join(args.workload)} at seeds "
          f"{' '.join(map(str, args.seeds))}; {len(extra)} out of catalog")
    print(f"# the descent finished {sum(routes[key] for key in routes if key[1] == 'descent')} "
          f"of {sum(routes.values())} factor operations")
    failed = [(where[index], error) for index, error in failed] + skipped
    for line in ledger(counts, defined(), failed, routes):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

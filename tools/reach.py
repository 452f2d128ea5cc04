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
nested function such as ``factorize.map_unit_vector.<locals>.push`` has a
count of its own; a generator counts once per resume.  Lambdas and comprehensions
are neither counted nor listed.

Output: one line per function that ran, its count first; one ``never`` line
per named function of ``src/hermlat`` that did not run; one ``routes`` line
per lattice with factor operations, saying how many of them took each route
and the mean length of their words; one ``failed`` line per operation that
raised or whose input the oracle could not build.  The route is read off
the counts: ``descent`` (the reflection descent finished the word, and no
pair peel ``factorize._peel_pair`` ran), ``descent+pair`` (a field kind
where a pair peel ran: the descent stalled, and the pairs of the lattice's
chain were peeled, each followed by the descent again) and ``driver``
(split kinds, which take the peel driver and no descent).
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import types
from collections import Counter, defaultdict

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
    is isometric to, each with an A-plane or ``<1, 3>`` as its first Jordan
    block, four of them beside a hyperbolic plane at a deeper scale; over
    Q_2(i) N(pi) = p, and over Q_2(√2) N(pi) = -p.  The oracle builds the
    last two at a few seeds only."""
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


def extra_schedule(lats=None, seeds=EXTRA_SEEDS):
    """The factor operations of the (name, lattice) pairs lats
    (``out_of_catalog`` for None) at seeds, and (where, error) of each
    input the oracle could not build."""
    ops, skipped = [], []
    for name, lat in out_of_catalog() if lats is None else lats:
        for s in seeds:
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


ROUTES = ("descent", "descent+pair", "driver")
PAIR_PEEL = ("factorize", "_peel_pair")


def census(ops):
    """Run each ``(kind, item)`` of ops once under the profile hook; returns
    the counts by (module, co_qualname), (index, error) of each operation
    that raised, and the word lengths of the factor operations that did not
    raise, listed by (lattice name, route) (see the module docstring)."""
    counts, routes = Counter(), defaultdict(list)
    prefix = SRC + os.sep

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix) \
                and not code.co_name.startswith("<"):
            counts[os.path.basename(code.co_filename)[:-3], code.co_qualname] += 1

    failed = []
    for index, (kind, item) in enumerate(ops):
        peels = counts[PAIR_PEEL]
        sys.setprofile(hook)
        try:
            doc = schedule_digest.RESULTS[kind](item)
        finally:
            sys.setprofile(None)
        if "error" in doc:
            failed.append((index, doc["error"]))
        elif kind == "factor":
            route = ("driver" if item.lattice.alg.kind == EtaleAlgebra.SPLIT else
                     "descent+pair" if counts[PAIR_PEEL] > peels else "descent")
            routes[item.lattice_name, route].append(len(doc["generators"]))
    return counts, failed, routes


def route_counts(routes, names):
    """``descent 3 (mean 2.0), descent+pair 0, driver 1 (mean 8.0)``: per
    route, the number of factor operations on the lattices ``names`` that
    took it and the mean length of their words."""
    out = []
    for route in ROUTES:
        lengths = [n for name in names for n in routes.get((name, route), ())]
        mean = f" (mean {sum(lengths) / len(lengths):.1f})" if lengths else ""
        out.append(f"{route} {len(lengths)}{mean}")
    return ", ".join(out)


def ledger(counts, names, failed, routes):
    """The lines of the ledger (see the module docstring); failed holds
    (where, error) pairs, routes the word lengths ``census`` returns."""
    lines = [f"{counts[key]:>8}  {'.'.join(key)}" for key in sorted(counts)]
    lines += [f"{'never':>8}  {'.'.join(key)}" for key in sorted(names - set(counts))]
    lines += [f"{'routes':>8}  {name}: {route_counts(routes, [name])}"
              for name in sorted({n for n, _ in routes})]
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
    names = sorted({n for n, _ in routes})
    print(f"# routes of the {sum(map(len, routes.values()))} factor operations: "
          f"{route_counts(routes, names)}")
    failed = [(where[index], error) for index, error in failed] + skipped
    for line in ledger(counts, defined(), failed, routes):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

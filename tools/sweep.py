"""The certification sweep: factor and certify seeded words on every
field-kind lattice the project knows.

    python3 tools/sweep.py

Run from the root of a checkout; the program is imported from ``src/``.  The
lattices (``lattices``) are the field-kind catalog lattices, each in the
standard basis and in the bases ``workloads.random_basis_change`` draws
from seeds 100-102, then the lattices of ``reach.out_of_catalog()`` and the
tower lattices of ``perfbench/workloads.py``.  Each lattice L is factored
at ``phi = oracle.random_unitary(L, 1 + s % 6, s)`` for s = 0-9:
``factor_unitary``, then ``verify_factorization``.  An input the oracle
cannot build is counted as not built; an input whose factoring
or certificate raises is counted as failed, with its message.

Output: the inputs built, not built, certified and failed; the mean and
the largest word length and the words that hold an Eichler factor, over the
certified inputs; the least residual precision of their certificates; one
``failed`` line per failure.
"""

from __future__ import annotations

import os
import random
import sys

import reach  # puts src/ and perfbench/ on the path
import workloads  # noqa: E402
import hermlat  # noqa: E402
from hermlat.errors import HermlatError  # noqa: E402
from hermlat.etale import EtaleAlgebra  # noqa: E402
from hermlat.factorize import factor_unitary, verify_factorization  # noqa: E402
from hermlat.specfile import parse_lattice  # noqa: E402

BASES = (100, 101, 102)
SEEDS = range(10)


def lattices():
    """[(name, lattice)] of the sweep (see the module docstring)."""
    out = []
    for path in hermlat.catalog_files():
        with open(path, encoding="utf-8") as fh:
            lat = parse_lattice(fh.read())
        if lat.alg.kind == EtaleAlgebra.SPLIT:
            continue
        name = os.path.basename(path)[:-len(".lat")]
        out.append((name, lat))
        out += [(f"{name} basis {b}", workloads.random_basis_change(lat, random.Random(b)))
                for b in BASES]
    return out + reach.out_of_catalog() + workloads.build("tower")


def sweep(lats, seeds=SEEDS):
    """Factor and certify each (name, lattice) of lats at each seed, print
    the summary lines and return them as a dict (see the module
    docstring)."""
    ops, not_built = reach.extra_schedule(lats, seeds)
    built, skipped = len(ops), len(not_built)
    lengths, eichler, precision, failed = [], 0, [], []
    for _, item in ops:
        try:
            f = factor_unitary(item.lattice, item.phi)
            cert = verify_factorization(item.lattice, item.phi, f)
        except HermlatError as ex:
            failed.append(f"{item.lattice_name} seed {item.seed}: {type(ex).__name__}: {ex}")
            continue
        lengths.append(len(f))
        eichler += f.contains_eichler
        precision.append(cert["residual_precision"])
    summary = {"built": built, "not_built": skipped, "certified": len(lengths),
               "failed": failed,
               "mean_length": sum(lengths) / len(lengths) if lengths else None,
               "max_length": max(lengths, default=None), "eichler_words": eichler,
               "min_precision": min(precision, default=None)}
    print(f"inputs: {built} built, {skipped} not built, {len(lengths)} certified, "
          f"{len(failed)} failed")
    if lengths:
        print(f"words: mean length {summary['mean_length']:.3f}, "
              f"max {summary['max_length']}, {eichler} with an Eichler factor")
    print(f"min residual precision: {summary['min_precision']}")
    for line in failed:
        print(f"failed  {line}")
    return summary


def main():
    return 1 if sweep(lattices())["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())

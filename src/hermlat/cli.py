"""Command-line front end.

Subcommands:
    classify   Jordan type and standard-form descriptors of a lattice
    jordan     Jordan splitting with the basis transform
    isometric  decide whether two lattices are isometric (condition trace)
    factor     factor a unitary matrix into symmetries / Eichler isometries
    selftest   run the enumeration oracles against the closed forms
    roundtrip  randomized factor-verify trials

Exit codes: 0 success, 1 verification failure, 2 input error or bad
argument, 3 unsupported case (including --symmetries-only with surviving
Eichler factors).  Only PrecisionLoss, the base field running out of
digits, is retried at doubled precision.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    HermlatError,
    PrecisionLoss,
    SpecFileError,
    UnsupportedCase,
    VerificationFailed,
)
from .etale import EtaleAlgebra
from .classify import (
    isometry_conditions,
    modular_standard_form,
    splits_hyperbolic,
)
from .factorize import factor_unitary, verify_factorization
from .isometries import Symmetry, det_of
from .lattice import HermitianLattice
from .localfield import LocalField
from .oracle import (
    enumerate_trace_image,
    norm_image_index,
    random_unitary,
)
from .specfile import _field_str, element_str, parse_lattice, parse_matrix

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


def _load_lattice(path, precision=None, algebra=None):
    with open(path) as fh:
        return parse_lattice(fh.read(), precision=precision, algebra=algebra)


def _emit(records, report_path):
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _element_record(e):
    alg = e.alg
    if alg.kind == EtaleAlgebra.SPLIT:
        return {"left": _field_str(e.x0), "right": _field_str(e.x1)}
    return element_str(e)


def _vector_record(vec):
    return [_element_record(c) for c in vec]


def _generator_record(lat, g, idx):
    if isinstance(g, Symmetry):
        return {
            "index": idx,
            "type": "symmetry",
            "s": _vector_record(g.s),
            "sigma": _element_record(g.sigma),
            "det": _element_record(det_of(lat, g)),
        }
    return {
        "index": idx,
        "type": "eichler",
        "u": _vector_record(g.u),
        "v": _vector_record(g.v),
        "y": _vector_record(g.y),
        "mu": _element_record(g.mu),
        "det": _element_record(det_of(lat, g)),
    }


def _jordan_records(lat):
    split = lat.jordan_split()
    blocks = []
    for blk in split.blocks:
        blocks.append({
            "rank": blk.rank,
            "scale_exp": blk.scale_exp,
            "norm_exp": blk.norm_exp,
            "normal": blk.normal,
        })
    return split, blocks


def cmd_classify(args):
    lat = _load_lattice(args.spec, args.precision)
    split, blocks = _jordan_records(lat)
    records = [{"record": "jordan_type", "blocks": blocks}]
    if lat.alg.kind == EtaleAlgebra.RAMIFIED:
        for bi, blk in enumerate(split.blocks):
            sub = HermitianLattice(lat.alg, blk.gram)
            desc = modular_standard_form(sub)
            desc["record"] = "standard_form"
            desc["block"] = bi
            records.append(desc)
    found = splits_hyperbolic(lat)
    records.append({"record": "hyperbolic",
                    "splits": found is not None,
                    "scale_exp": None if found is None else found[2]})
    _emit(records, args.report)
    return EXIT_OK


def cmd_jordan(args):
    lat = _load_lattice(args.spec, args.precision)
    split, blocks = _jordan_records(lat)
    transform = [[_element_record(e) for e in row] for row in split.transform]
    records = [{"record": "jordan", "blocks": blocks, "transform": transform}]
    _emit(records, args.report)
    return EXIT_OK


def cmd_isometric(args):
    m = _load_lattice(args.spec_a, args.precision)
    n = _load_lattice(args.spec_b, args.precision, algebra=m.alg)
    ok, failed, trace = isometry_conditions(m, n)
    rec = {"record": "isometric", "result": ok, "failed_condition": failed}
    if "jordan_type" in trace:
        rec["jordan_types"] = [list(map(list, t)) for t in trace["jordan_type"]]
    if "det_class" in trace:
        rec["det_classes"] = trace["det_class"]
    if "dual_norms" in trace:
        rec["dual_norms"] = trace["dual_norms"]
    _emit([rec], args.report)
    return EXIT_OK


def _with_retries(run, precision, attempts):
    """run(prec) from prec = precision (64 when unset), doubling prec after
    each PrecisionLoss; the PrecisionLoss of the last of `attempts` tries
    propagates."""
    prec = precision or 64
    for _ in range(attempts - 1):
        try:
            return run(prec)
        except PrecisionLoss:
            prec *= 2
    return run(prec)


def cmd_factor(args):
    def factor_at(prec):
        lat = _load_lattice(args.spec, prec)
        with open(args.isometry) as fh:
            phi = parse_matrix(lat.alg, fh.read())
        fac = factor_unitary(lat, phi)
        return lat, fac, verify_factorization(lat, phi, fac)

    lat, fac, cert = _with_retries(factor_at, args.precision, 5)
    if args.symmetries_only and fac.contains_eichler:
        records = [{"record": "factorization", "status": "eichler_remains",
                    "factors": len(fac.generators)}]
        _emit(records, args.report)
        return EXIT_UNSUPPORTED
    records = [_generator_record(lat, g, i) for i, g in enumerate(fac)]
    records.append({
        "record": "certificate",
        "factors": len(fac.generators),
        "symmetries_only": not fac.contains_eichler,
        "contains_eichler": fac.contains_eichler,
        "residual_precision": cert["residual_precision"],
        "det_consistent": cert["det_consistent"],
    })
    _emit(records, args.report)
    return EXIT_OK


def cmd_selftest(args):
    lat = _load_lattice(args.spec, args.precision) if args.spec else None
    algs = []
    if lat is not None:
        algs.append(("input", lat.alg))
    else:
        q2 = LocalField(2)
        q3 = LocalField(3)
        algs = [
            ("Q2(sqrt2)", EtaleAlgebra.quadratic(q2, 0, -2)),
            ("Q2(i)", EtaleAlgebra.quadratic(q2, 2, 2)),
            ("Q3(sqrt3)", EtaleAlgebra.quadratic(q3, 0, -3)),
        ]
    records = []
    status = EXIT_OK
    for name, alg in algs:
        if alg.kind != EtaleAlgebra.RAMIFIED:
            records.append({"record": "selftest", "algebra": name,
                            "skipped": "not ramified"})
            continue
        e = alg.e
        trace_ok = True
        for i in range(0, 2 * e + 3):
            got = enumerate_trace_image(alg, i, e + 3)
            want = alg.trace_ideal(i)
            if got != want:
                trace_ok = False
        idx = norm_image_index(alg, max(e, 1))
        u0 = alg.u0()
        coset_ok = alg.norm_class(alg.base.one + u0) == "NonNorm"
        rec = {"record": "selftest", "algebra": name, "e": e,
               "trace_ideal_ok": trace_ok, "norm_index": idx,
               "u0_nontrivial_coset": coset_ok}
        records.append(rec)
        if not (trace_ok and idx == 2 and coset_ok):
            status = EXIT_VERIFY
    _emit(records, args.report)
    return status


def cmd_roundtrip(args):
    trials = args.trials
    rng_seed = args.seed
    npass = 0
    failures = []
    # working precision -> the spec's lattice: the trials at one precision
    # share it, and with it its kept span, hyperbolic pair, pair chain and
    # factor plan
    lats = {}
    for t in range(trials):
        seed = rng_seed + t

        def trial_at(prec):
            if prec not in lats:
                lats[prec] = _load_lattice(args.spec, prec)
            lat = lats[prec]
            phi, _ = random_unitary(lat, 1 + (seed % args.generators), seed)
            fac = factor_unitary(lat, phi)
            verify_factorization(lat, phi, fac)
            return fac

        try:
            fac = _with_retries(trial_at, args.precision, 4)
        except HermlatError as ex:
            failures.append({"trial": t,
                             "error": f"{type(ex).__name__}: {ex}"})
            continue
        if args.symmetries_only and fac.contains_eichler:
            failures.append({"trial": t, "error": "eichler_remains"})
            continue
        npass += 1
    records = [{"record": "roundtrip", "trials": trials, "passed": npass,
                "seed": rng_seed, "failures": failures[:10]}]
    _emit(records, args.report)
    if failures and any("eichler" in f["error"] for f in failures):
        return EXIT_UNSUPPORTED
    return EXIT_OK if npass == trials else EXIT_VERIFY


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hermlat",
        description="hermitian lattices over local fields: classification "
                    "and unitary-group factorization")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--precision", type=int, default=None,
                       help="working precision override (valuation units)")
        p.add_argument("--report", default=None,
                       help="also write the report to this path")

    p = sub.add_parser("classify", help="Jordan type and standard forms")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("jordan", help="Jordan splitting with transform")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("isometric", help="decide isometry of two lattices")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    common(p)
    p.set_defaults(func=cmd_isometric)

    p = sub.add_parser("factor", help="factor a unitary matrix")
    p.add_argument("--spec", required=True)
    p.add_argument("--isometry", required=True,
                   help="path to the matrix file (expression entries)")
    p.add_argument("--symmetries-only", action="store_true",
                   help="exit 3 when Eichler factors survive reduction")
    common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("selftest", help="enumeration oracle suite")
    p.add_argument("--spec", default=None)
    common(p)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("roundtrip", help="randomized factor-verify trials")
    p.add_argument("--spec", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generators", type=int, default=6,
                   help="maximum word length of the sampled isometries")
    p.add_argument("--symmetries-only", action="store_true")
    common(p)
    p.set_defaults(func=cmd_roundtrip)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SpecFileError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedCase as ex:
        print(f"unsupported case: {ex}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except VerificationFailed as ex:
        print(f"verification failed: {ex}", file=sys.stderr)
        return EXIT_VERIFY
    except HermlatError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

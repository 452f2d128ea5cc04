"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.

The trial count for the round-trip criterion can be scaled down for quick
development runs via HERMLAT_ACCEPT_TRIALS; the shipped default is the full
100 seeded trials per catalog lattice.
"""

import json
import os
import random
import time

import pytest

import hermlat
from hermlat.classify import isometric, rearrange_jordan, splits_hyperbolic
from hermlat.etale import EtaleAlgebra, NONNORM
from hermlat.factorize import _word, factor_unitary, verify_factorization
from hermlat.isometries import (
    EichlerIsometry,
    Symmetry,
    det_of,
    in_unitary_group,
    make_eichler,
    matrix_of,
)
from hermlat.lattice import (
    HermitianLattice,
    orthogonal_sum,
    standard_A,
    standard_H,
    standard_Hik,
)
from hermlat.linalg import (
    basis_vector,
    identity,
    mat_det,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_vec,
)
from hermlat.oracle import (
    enumerate_norm_image,
    enumerate_trace_image,
    norm_image_index,
    random_eichler,
    random_symmetry,
    random_unitary,
)
from hermlat.specfile import parse_lattice

TRIALS = int(os.environ.get("HERMLAT_ACCEPT_TRIALS", "100"))
PRECISION_N = 64
GUARD_G = 16


def _report(num, ok, text):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _catalog():
    out = []
    for path in hermlat.catalog_files():
        with open(path) as fh:
            out.append((os.path.basename(path), parse_lattice(fh.read())))
    return out


@pytest.fixture(scope="module")
def catalog():
    return _catalog()


@pytest.fixture(scope="module")
def roundtrip_stats(catalog):
    """Criterion-1 trials, shared with criteria 2 and 8."""
    stats = {}
    t_start = time.time()
    for name, lat in catalog:
        entry = {"pass": 0, "fail": [], "eichler_after_reduction": 0,
                 "min_residual": None, "det_ok": True}
        for seed in range(TRIALS):
            k = 1 + seed % 6
            try:
                phi, _ = random_unitary(lat, k, seed)
                fac = factor_unitary(lat, phi)
                cert = verify_factorization(lat, phi, fac)
            except Exception as ex:  # noqa: BLE001 - collected for the report
                entry["fail"].append((seed, f"{type(ex).__name__}: {ex}"))
                continue
            entry["pass"] += 1
            if fac.contains_eichler:
                entry["eichler_after_reduction"] += 1
            res = cert["residual_precision"]
            entry["min_residual"] = res if entry["min_residual"] is None \
                else min(res, entry["min_residual"])
            if not cert["det_consistent"]:
                entry["det_ok"] = False
        stats[name] = entry
    stats["_elapsed"] = time.time() - t_start
    return stats


def test_criterion_1_roundtrip(catalog, roundtrip_stats):
    total = TRIALS * len(catalog)
    passed = sum(e["pass"] for n, e in roundtrip_stats.items()
                 if not n.startswith("_"))
    residuals = [e["min_residual"] for n, e in roundtrip_stats.items()
                 if not n.startswith("_") and e["min_residual"] is not None]
    min_res = min(residuals) if residuals else None
    ok = passed == total and min_res is not None \
        and min_res >= PRECISION_N - GUARD_G
    detail = "; ".join(f"{n}:{e['pass']}/{TRIALS}"
                       for n, e in roundtrip_stats.items()
                       if not n.startswith("_") and e["pass"] < TRIALS)
    _report(1, ok,
            f"round-trip {passed}/{total} trials over {len(catalog)} "
            f"catalog lattices, min residual precision {min_res} "
            f"(need >= {PRECISION_N - GUARD_G}), "
            f"{roundtrip_stats['_elapsed']:.0f}s"
            + (f"; failures: {detail}" if detail else ""))


def test_criterion_2_symmetries_only(catalog, roundtrip_stats):
    problems = []
    for name, lat in catalog:
        entry = roundtrip_stats[name]
        if lat.alg.kind in (EtaleAlgebra.SPLIT, EtaleAlgebra.INERT):
            if entry["eichler_after_reduction"]:
                problems.append(f"{name} emitted Eichler factors")
        if name == "f4ram.lat" and entry["eichler_after_reduction"]:
            problems.append("residue-F4 output kept Eichler factors")
    # hyperbolic-free ramified dyadic: raw output contains no Eichler factor
    a01 = dict(catalog)["q2sqrt2-a01.lat"]
    for seed in range(min(TRIALS, 25)):
        phi, _ = random_unitary(a01, 1 + seed % 6, seed)
        if any(isinstance(g, EichlerIsometry) for g in _word(a01, phi)):
            problems.append(f"A(0,1) raw output had an Eichler factor (seed {seed})")
            break
    _report(2, not problems,
            "symmetries-only guarantees (split/inert always; residue-F4 "
            "after reduction; hyperbolic-free raw)"
            + ("; ".join([""] + problems) if problems else ""))


def test_criterion_3_classification_iff(Q2sqrt2, Q2i):
    bad = []
    for alg in (Q2sqrt2, Q2i):
        e = alg.e
        for i in range(0, 5):
            for k in range((i + 1) // 2, (i + e) // 2 + 1):
                if not (i <= 2 * k <= i + e):
                    continue
                got = isometric(standard_Hik(alg, i, k), standard_H(alg, i))
                want = k == (i + e) // 2
                if got != want:
                    bad.append((alg.e, i, k, got))
    _report(3, not bad,
            f"H(i,k) = H(i) iff k = floor((i+e)/2), i in 0..4, "
            f"both dyadic algebras{'; bad: ' + str(bad) if bad else ''}")


def test_criterion_4_oracles(catalog):
    algs = {}
    for name, lat in catalog:
        if lat.alg.kind == EtaleAlgebra.RAMIFIED:
            algs[(lat.alg.base.p, lat.alg.base.q, lat.alg.e)] = lat.alg
    problems = []
    for alg in algs.values():
        e = alg.e
        for i in range(0, 2 * e + 3):
            got = enumerate_trace_image(alg, i, e + 3)
            want = alg.trace_ideal(i)
            if got != want:
                problems.append(f"trace ideal mismatch e={e} i={i}: "
                                f"{got} != {want}")
        if norm_image_index(alg, max(e, 1)) != 2:
            problems.append(f"norm image index != 2 for e={e}")
        image, units = enumerate_norm_image(alg, max(e, 1))
        key = alg.key_mod_p(alg.base.one + alg.u0(), max(e, 1))
        if key in image or key not in units:
            problems.append(f"1+u0 not in the nontrivial coset for e={e}")
    _report(4, not problems,
            f"trace/norm enumeration oracles on {len(algs)} ramified "
            f"algebras, i in 0..2e+2"
            + ("; ".join([""] + problems) if problems else ""))


def test_criterion_5_generator_laws(catalog):
    per_lattice = 100
    problems = []
    for name, lat in catalog:
        alg = lat.alg
        rng = random.Random(name)
        pair = splits_hyperbolic(lat)
        count = 0
        while count < per_lattice:
            count += 1
            g = random_symmetry(lat, rng)
            m = matrix_of(lat, g)
            # inverse law
            if not mat_eq(mat_mul(m, matrix_of(lat, g.inverse())),
                          identity(alg, lat.n)):
                problems.append(f"{name}: inverse law failed")
                break
            # determinant law
            qs = lat.inner(g.s, g.s)
            want = alg.one if qs.is_zero() else -(g.sigma.conj() / g.sigma)
            if not (det_of(lat, g) - want).is_zero():
                problems.append(f"{name}: symmetry determinant law failed")
                break
            # conjugation law on a subset (heavier)
            if count % 10 == 0:
                f, _ = random_unitary(lat, 2, rng.randrange(10 ** 9))
                lhs = mat_mul(mat_mul(f, m), mat_inv(f))
                moved = Symmetry(mat_vec(f, g.s), g.sigma)
                if not mat_eq(lhs, matrix_of(lat, moved)):
                    problems.append(f"{name}: conjugation law failed")
                    break
            # Eichler laws where a hyperbolic pair exists
            if pair is not None and count % 10 == 5:
                e1 = random_eichler(lat, rng)
                e2 = random_eichler(lat, rng)
                if e1 is None or e2 is None:
                    continue
                if not (det_of(lat, e1) - alg.one).is_zero():
                    problems.append(f"{name}: Eichler determinant != 1")
                    break
                from hermlat.isometries import compose_eichler, twist_by_skew
                from hermlat.errors import HermlatError

                try:
                    e12 = compose_eichler(lat, e1, e2)
                    om = (alg.special_skew(alg.e)
                          if alg.kind == EtaleAlgebra.RAMIFIED
                          else alg.eta())
                    e1t = twist_by_skew(lat, e1, om)
                except HermlatError as ex:
                    problems.append(f"{name}: composition law failed: {ex}")
                    break
                m1 = matrix_of(lat, e1)
                if not mat_eq(mat_mul(m1, matrix_of(lat, e2)), matrix_of(lat, e12)):
                    problems.append(f"{name}: composition identity failed")
                    break
                if not mat_eq(mat_mul(matrix_of(lat, Symmetry(e1.u, om)), m1),
                              matrix_of(lat, e1t)):
                    problems.append(f"{name}: skew twist identity failed")
                    break
        if problems:
            break
    _report(5, not problems,
            f"generator matrix laws, {per_lattice} instances per lattice"
            + ("; ".join([""] + problems) if problems else ""))


def _valid_hik(alg, i, k):
    return i + alg.e >= 2 * k >= i


def _valid_a(alg, i, k):
    return i <= 2 * k < i + alg.e


def test_criterion_6_rearrangement_relations(Q2sqrt2, Q2i):
    rng = random.Random(66)
    instances = []
    for alg in (Q2sqrt2, Q2i):
        e = alg.e
        for i in range(0, 4):
            for k in range(i // 2, i + e + 1):
                if not (_valid_hik(alg, i, k) or _valid_a(alg, i, k)):
                    continue
                for j in range(i + 1, i + 5):
                    for n in range(j // 2, j + e + 1):
                        if j - i > n - k:
                            continue
                        if _valid_hik(alg, j, n):
                            instances.append((alg, i, k, j, n, "H"))
                        if _valid_a(alg, j, n):
                            instances.append((alg, i, k, j, n, "A"))
    rng.shuffle(instances)
    chosen = instances[:20]
    assert len(chosen) == 20, f"only {len(instances)} admissible instances"
    problems = []
    for alg, i, k, j, n, kind in chosen:
        first = standard_Hik(alg, i, k) if _valid_hik(alg, i, k) \
            else standard_A(alg, i, k)
        if kind == "H":
            # relation (a): M ⟂ H(j,n) = M ⟂ H(j)
            lhs = orthogonal_sum(first, standard_Hik(alg, j, n))
            rhs = orthogonal_sum(first, standard_H(alg, j))
            if not isometric(lhs, rhs):
                problems.append(("a", alg.e, i, k, j, n))
            continue
        # relation (c): M ⟂ A(j,n) = M ⟂ A(j,n') with n' = j - i + k
        nprime = j - i + k
        if not _valid_a(alg, j, nprime):
            continue
        lhs = orthogonal_sum(first, standard_A(alg, j, n))
        rhs = orthogonal_sum(first, standard_A(alg, j, nprime))
        if not isometric(lhs, rhs):
            problems.append(("c", alg.e, i, k, j, n))
        # norm rearrangement as an explicit basis change
        try:
            new, _ = rearrange_jordan(lhs)
            if not isometric(lhs, new):
                problems.append(("rearrange", alg.e, i, k, j, n))
            if new.jordan_split().blocks[-1].norm_exp != nprime:
                problems.append(("rearrange-norm", alg.e, i, k, j, n))
        except Exception as ex:  # noqa: BLE001
            problems.append(("rearrange-error", alg.e, i, k, j, n, str(ex)[:60]))
    _report(6, not problems,
            f"Jordan rearrangement relations on {len(chosen)} randomized "
            f"admissible instances"
            + (f"; failures: {problems}" if problems else ""))


def _write_matrix(lat, m, path):
    from hermlat.specfile import element_str

    rows = []
    for row in m:
        rows.append(", ".join(element_str(e) for e in row))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def test_criterion_7_residue_two_flag(tmp_path):
    from hermlat.cli import main

    # fallthrough parity: pair scale not congruent to e mod 2
    cases = [
        ("q2sqrt2-h0h0.lat", 3),  # e odd, i = 0
        ("q2i-h1h1.lat", 2),      # e even, i = 1
    ]
    problems = []
    for name, e_exp in cases:
        with open(hermlat.catalog_path(name)) as fh:
            lat = parse_lattice(fh.read())
        alg = lat.alg
        u, v, w = (basis_vector(alg, 4, i) for i in (0, 1, 2))
        if e_exp % 2:
            mu = alg.special_skew(1)
        else:
            pair = lat.inner(u, v)
            mu = alg.special_skew(2) / pair  # valuation 1, trace-admissible
            assert (mu * pair).trace().is_zero()
        e = make_eichler(lat, u, v, w, mu)
        assert in_unitary_group(lat, e)
        mat_file = tmp_path / f"{name}.mat"
        _write_matrix(lat, matrix_of(lat, e), mat_file)
        rc = main(["factor", "--spec", hermlat.catalog_path(name),
                   "--isometry", str(mat_file), "--symmetries-only"])
        if rc != 3:
            problems.append(f"{name}: expected exit 3, got {rc}")
    # matching parity: the reduction succeeds and the flag does not trip
    with open(hermlat.catalog_path("q2sqrt2-h1h1.lat")) as fh:
        lat2 = parse_lattice(fh.read())
    u, v, w = (basis_vector(lat2.alg, 4, i) for i in (0, 1, 2))
    e2 = make_eichler(lat2, u, v, w)
    mat_file = tmp_path / "reducible.mat"
    _write_matrix(lat2, matrix_of(lat2, e2), mat_file)
    rc = main(["factor", "--spec", hermlat.catalog_path("q2sqrt2-h1h1.lat"),
               "--isometry", str(mat_file), "--symmetries-only"])
    if rc != 0:
        problems.append(f"reducible case: expected exit 0, got {rc}")
    _report(7, not problems,
            "residue-two flag: crafted irreducible Eichler inputs exit 3 "
            "under --symmetries-only; reducible ones exit 0"
            + ("; ".join([""] + problems) if problems else ""))


def test_criterion_8_determinant_consistency(catalog, roundtrip_stats):
    bad = [n for n, e in roundtrip_stats.items()
           if not n.startswith("_") and not e["det_ok"]]
    _report(8, not bad,
            "det(phi) equals the product of factor determinants on every "
            "accepted factorization"
            + (f"; bad: {bad}" if bad else ""))

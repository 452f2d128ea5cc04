"""Golden outputs of the scalar kernel.

For a few catalog lattices, one fixed seeded word of three generators
(symmetries, with the third an Eichler isometry where the lattice has a
hyperbolic pair) is factored, by ``factor_unitary`` and by the peel driver
alone, and certified.  A SHA-256 over the exact
representation ``(co, shift, ncap)`` of every entry of the input, of every
emitted generator's matrix and of the certificate must stay what it was when
these values were recorded: a change to the field arithmetic that alters any
digit, shift or precision count of a result shows up here.

The decide path is pinned the same way: for each of these lattices, a seeded
change of basis in GL_n(O) is Jordan split (block columns, Grams and the
transform), searched for a hyperbolic pair (the witness of
``splits_hyperbolic``) and compared with the original lattice (the verdict and
trace of ``isometry_conditions``).

Paths that no benchmark schedule reaches are pinned by hand: the norm-drop
witness of ``splits_hyperbolic`` on A(1,1) ⟂ <2> over Q_2(√2), the
split-kind duals and Jordan splitting of a rank-3 lattice over Q_3, the three
public single-step peels of ``factorize``, the steered-σ branch of the
subnormal peel, the split-slot fallback of ``lattice._complement`` for a line
and for a plane, ``rearrange_jordan`` and the split-vector Eichler rewrite.

Both use ``exact_key`` of ``tools/schedule_digest.py``, the exact form that
tool hashes whole benchmark schedules with.
"""

import hashlib
import json
import os
import random
import sys

import pytest

import hermlat
from hermlat import classify, factorize, isometries, lattice, oracle
from hermlat.classify import isometry_conditions, splits_hyperbolic
from hermlat.etale import EtaleAlgebra
from hermlat.factorize import factor_unitary, verify_factorization
from hermlat.isometries import EichlerIsometry, eichler_to_symmetries, make_eichler, matrix_of
from hermlat.lattice import (
    HermitianLattice,
    orthogonal_sum,
    standard_A,
    standard_H,
    standard_Hik,
)
from hermlat.linalg import basis_vector, cols_of, identity, mat_mul, vec_add, vec_scale
from hermlat.localfield import LocalField
from hermlat.specfile import parse_lattice

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
from schedule_digest import _generator, exact_key  # noqa: E402

K_GENERATORS = 3

# lattice name -> SHA-256 of the run below, recorded before the flat
# one-coordinate kernel replaced the generic element constructor
EXPECTED = {
    # (8f55ac08… before zeros kept at most mcap digits)
    "split3":
        "3ac9df7e79947de4e45e65a4122fdc1f258a164591265e31939f8ff0980a0e58",
    # (d52702fe… before zeros kept at most mcap digits)
    "inert3":
        "34b3124f828728d8e008c63d094eb5be99d2d861389ba80dde56048de22f2423",
    # re-recorded, with f4ram, when the driver began to apply each
    # generator through its update terms: the last emitted generator is
    # built from an image with other precision counts, equal in value
    # (bee6869a… before)
    # (d6ff8af8… before zeros kept at most mcap digits)
    "q2i-h":
        "84ad0891aa79b4143a1b601f073e5ce5f45f613619c91f39a71352082e01ac24",
    # (8d5f4dbc… before zeros kept at most mcap digits)
    "q2sqrt2-h0h0":
        "e2dd022895456486ddc6d857979de9292508b477df31c1f2a1ebac85482f6609",
    # (537bd9e8… before)
    # (8089fcd7… before zeros kept at most mcap digits)
    "f4ram":
        "9dbf50d7254717c7094fa9533a4b712a42d7a9e2cfdeb9ea46daad64b27c22d0",
}


def _digest(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _word(lat, rng, k):
    """Product of k generators from ``hermlat.oracle``; generator 2 (mod 3)
    is an Eichler isometry when the lattice has one, the rest symmetries."""
    phi = identity(lat.alg, lat.n)
    for pos in range(k):
        g = oracle.random_eichler(lat, rng) if pos % 3 == 2 else None
        if g is None:
            g = oracle.random_symmetry(lat, rng)
        phi = mat_mul(phi, matrix_of(lat, g))
    return phi


def run_digest(name, factor):
    with open(hermlat.catalog_path(name + ".lat")) as fh:
        lat = parse_lattice(fh.read())
    phi = _word(lat, random.Random(f"kernel-identity:{name}"), K_GENERATORS)
    fac = factor(lat, phi)
    cert = verify_factorization(lat, phi, fac)
    doc = {
        "input": exact_key(phi),
        "generators": [["E" if isinstance(g, EichlerIsometry) else "S",
                        exact_key(matrix_of(lat, g))] for g in fac],
        "residual_precision": cert["residual_precision"],
        "symmetries_only": not fac.contains_eichler,
        "certificate": cert,
    }
    return _digest(doc)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_factorization_is_bit_identical(name):
    """The peel driver's factorization, which ``factor_unitary`` returns
    where the reflection descent does not finish."""
    assert run_digest(name, factorize._factor_by_driver) == EXPECTED[name]


# lattice name -> SHA-256 of the run above through ``factor_unitary``: the
# reflection descent finishes the words of f4ram and inert3; the peel driver
# factors the other three, q2i-h and q2sqrt2-h0h0 because in their
# residue-two case it goes first for a word that is not one symmetry
EXPECTED_FACTOR = {
    "split3": EXPECTED["split3"],
    "inert3":
        "03da0edc510f49956bdaf5849b6e0f89d48b82a81285fb7c8e14d8f57e11d2c4",
    "q2i-h": EXPECTED["q2i-h"],
    "q2sqrt2-h0h0": EXPECTED["q2sqrt2-h0h0"],
    "f4ram":
        "9fba9c68a708d7e7ba8b2060ca55bf6a11f0f03b92921702fa28294f850264a5",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_FACTOR))
def test_factor_unitary_is_bit_identical(name):
    assert run_digest(name, factor_unitary) == EXPECTED_FACTOR[name]


# -- the decide path ---------------------------------------------------------

# lattice name -> SHA-256 of the decide run below, recorded before inner
# products shared one G·conj(y) across the vectors paired with the same y
EXPECTED_DECIDE = {
    "split3":
        "bee52ac5b06fa7ac22f103255cdfd8e0ecf008323f12dc3a6d47368dc9ae573f",
    "inert3":
        "8146c1819bf66e53e23f209cc669b82e8449fd49a5fbcd74f7776a02090b0ad5",
    # (9f7041eb… before zeros kept at most mcap digits)
    "q2i-h":
        "ca79d61bd68937e3a19471ce0d35bdad6e24843c3ab2e0fee2f3b53685464d7e",
    # (701bdd56… before zeros kept at most mcap digits)
    "q2sqrt2-h0h0":
        "5043d11315b039b6cf167765c94034f016ff294bb68f789431393a4ef46fafe2",
    # (23029f41… before zeros kept at most mcap digits)
    "f4ram":
        "9eafb4fd967c57421371b447e588accc8b32ef735dd9de0d537674a5ed5f9b29",
}


def _gl_n_O(lat, rng):
    """A seeded matrix of GL_n(O): a lower times an upper unitriangular
    matrix over O."""
    alg, n = lat.alg, lat.n

    def unitriangular(lower):
        entries = iter([c for _ in range(n) for c in oracle.random_vector(lat, rng)])
        return tuple(tuple(alg.one if i == j
                           else next(entries) if (i > j) == lower else alg.zero
                           for j in range(n)) for i in range(n))

    return mat_mul(unitriangular(True), unitriangular(False))


def _basis_change(lat, rng):
    """L in a seeded basis: the Gram of the columns of ``_gl_n_O``."""
    cols = cols_of(_gl_n_O(lat, rng))
    return HermitianLattice(lat.alg, tuple(tuple(lat.inner(a, b) for b in cols)
                                           for a in cols))


def decide_digest(name):
    with open(hermlat.catalog_path(name + ".lat")) as fh:
        lat = parse_lattice(fh.read())
    other = _basis_change(lat, random.Random(f"decide-identity:{name}"))
    split = other.jordan_split()
    doc = {
        "gram": exact_key(other.gram),
        "jordan": [[blk.scale_exp, blk.rank, blk.norm_exp, blk.normal,
                    exact_key(blk.cols), exact_key(blk.gram)] for blk in split.blocks],
        "transform": exact_key(split.transform),
        "witness": exact_key(splits_hyperbolic(other)),
        "verdict": exact_key(isometry_conditions(lat, other)),
    }
    return _digest(doc)


@pytest.mark.parametrize("name", sorted(EXPECTED_DECIDE))
def test_decision_is_bit_identical(name):
    assert decide_digest(name) == EXPECTED_DECIDE[name]


# -- paths no schedule reaches -----------------------------------------------

# path name -> SHA-256 of its run below, recorded before the Smith reductions,
# the peel steps and the norm-raising loops were each written once
EXPECTED_PATHS = {
    # (92f770ff… before zeros kept at most mcap digits)
    "norm_drop_witness":
        "2e0a0cd399eb29e99088295a1ab44f36b31ef0ef2ac6e9886fd85fbc020baed5",
    # (54b768ec… before zeros kept at most mcap digits)
    "split_duals":
        "15e6cbc27e3ee8ecd6fdaa77c571decb176a3500df2e38e7848d782df7fa4134",
    # recorded before the factor driver's alignment loops, fixed-vector
    # tests and step branches were each written once
    # re-recorded, with peel_subnormal_dyadic, when words were applied
    # through their generators' update terms: the returned φ₂ carries other
    # precision counts, equal in value; word and rest are unchanged
    # (9e30ec69… before)
    # (a170c49e… before zeros kept at most mcap digits)
    "peel_hyperbolic":
        "b699b239fef2abca684ab60a001c45e87a3c1dd533f3d2812d766e981185b5c7",
    "peel_normal_dyadic":
        "18da023dccffbaedb01d6292e9ed5b523853067c943700a0fcf16fdee5c060ac",
    # (d7564e9d… before)
    # (4ecfc9dd… before zeros kept at most mcap digits)
    "peel_subnormal_dyadic":
        "5414d98d07c837c512cef5b4a2fb05fd4e8f4e4ed41405b110d25f700571e34c",
    # (3dacaa59… before zeros kept at most mcap digits)
    "steered_subnormal":
        "2feb73ad1d8635a42928c06c4950260c44e51aa3fb2df2b3951e8bfc4af54345",
    # recorded before the four complement copies became lattice._complement
    "line_complement_slotwise":
        "15d54b102eb0144ed3b12202727789291dc7261bcf026e59f1cc13329e9e87a2",
    # (b0ca2286… before zeros kept at most mcap digits)
    "pair_complement_slotwise":
        "270ea0c4dcc24c17776691a99f9762851d0159d435a1fbed343abe1e098489b1",
    # re-recorded after the complement of the rearranged plane became
    # orthogonal to it: the parent's transposed solve left <c, z> = -2π
    # between each kept column c and z (65b1a02c… before)
    # (0bdfa209… before zeros kept at most mcap digits)
    "rearrange_jordan":
        "c6f1f4cc4801b32b498daf54138cfa1c945c350417e49f4ed474922f9bbad6b0",
    # (0a07ec62… before zeros kept at most mcap digits)
    "split_vector_reduction":
        "f684e26a12c990a9f3cce430021d22a4efe60dc11a87e18c5723b39890a06f24",
}


def _norm_drop_witness():
    """A(1,1) ⟂ <2> over Q_2(√2): a subnormal plane of norm p^1 next to a
    deeper line of the same norm, so the witness comes from
    ``cross_pair_norm_drop``."""
    alg = EtaleAlgebra.quadratic(LocalField(2), 0, -2)
    lat = orthogonal_sum(standard_A(alg, 1, 1),
                         HermitianLattice(alg, ((alg.from_int(2),),)))
    return {"witness": exact_key(splits_hyperbolic(lat))}


def _split_duals():
    """A rank-3 split lattice over Q_3 whose off-diagonal entries differ in
    the two slots: its Jordan splitting and the duals L^(P^a), a = 0..3,
    both through the slot-wise Smith reduction."""
    K = LocalField(3)
    alg = EtaleAlgebra.split(K)

    def el(a, b):
        return alg.element(K.from_int(a), K.from_int(b))

    lat = HermitianLattice(alg, ((alg.from_int(3), el(1, 2), el(0, 9)),
                                 (el(2, 1), alg.from_int(9), el(3, 6)),
                                 (el(9, 0), el(6, 3), alg.from_int(27))))
    split = lat.jordan_split()
    return {"jordan": [[blk.scale_exp, blk.rank, blk.norm_exp, blk.normal,
                        exact_key(blk.cols), exact_key(blk.gram)] for blk in split.blocks],
            "transform": exact_key(split.transform),
            "duals": [exact_key(lat.dual_sublattice(a)) for a in range(4)]}


def _q2sqrt2():
    return EtaleAlgebra.quadratic(LocalField(2), 0, -2)


def _peel_key(lat, peeled):
    word, rest, phi2 = peeled
    return {"word": exact_key([_generator(lat, g) for g in word]),
            "rest": exact_key(rest), "phi": exact_key(phi2)}


def _peel_hyperbolic():
    """H(0) ⟂ <2> over Q_2(√2): one pair transport."""
    alg = _q2sqrt2()
    lat = orthogonal_sum(standard_H(alg, 0), HermitianLattice(alg, ((alg.from_int(2),),)))
    u, v, _ = splits_hyperbolic(lat)
    phi, _ = oracle.random_unitary(lat, 3, 9)
    return _peel_key(lat, factorize.peel_hyperbolic(lat, phi, (u, v)))


def _peel_normal():
    """diag(1, 3) over Q_2(√2): two norm-attaining lines in the first block,
    so the normal-line peel has the second line beside x."""
    alg = _q2sqrt2()
    lat = HermitianLattice(alg, ((alg.one, alg.zero), (alg.zero, alg.from_int(3))))
    phi, _ = oracle.random_unitary(lat, 2, 4)
    return _peel_key(lat, factorize.peel_normal_dyadic(lat, phi))


def _peel_subnormal():
    """A(0,1) over Q_2(√2): one subnormal plane."""
    lat = standard_A(_q2sqrt2(), 0, 1)
    phi, _ = oracle.random_unitary(lat, 2, 4)
    return _peel_key(lat, factorize.peel_subnormal_dyadic(lat, phi))


def _steered_subnormal():
    """Criterion-1 trial 53 of q2sqrt2-sub, factored by the peel driver: the
    subnormal peel runs out of direct symmetries and emits a steered one."""
    with open(hermlat.catalog_path("q2sqrt2-sub.lat")) as fh:
        lat = parse_lattice(fh.read())
    phi, _ = oracle.random_unitary(lat, 1 + 53 % 6, 53)
    fac = factorize._factor_by_driver(lat, phi)
    cert = verify_factorization(lat, phi, fac)
    return {"generators": exact_key([_generator(lat, g) for g in fac]),
            "residual_precision": cert["residual_precision"],
            "certificate": cert}


def _split2h_mixed():
    """split2h (H(0) ⟂ <2> over Q_2 x Q_2), its standard basis, and
    x = (1,0)·e₀ + (0,1)·e₁: no coordinate of x is a unit, but slot 0 has
    one at e₀ and slot 1 one at e₁."""
    with open(hermlat.catalog_path("split2h.lat")) as fh:
        lat = parse_lattice(fh.read())
    alg, K = lat.alg, lat.alg.base
    cols = list(cols_of(identity(alg, 3)))
    x = vec_add(vec_scale(alg.element(K.one, K.zero), cols[0]),
                vec_scale(alg.element(K.zero, K.one), cols[1]))
    return lat, cols, x


def _line_complement_slotwise():
    """The complement of the line of x: the split-slot fallback."""
    lat, cols, x = _split2h_mixed()
    return {"rest": exact_key(lattice._complement(lat, cols, [x]))}


def _pair_complement_slotwise():
    """The complement of the plane (x, e₂): no unit 2x2 minor in E, unit
    ones at rows (0, 2) in slot 0 and (1, 2) in slot 1."""
    lat, cols, x = _split2h_mixed()
    return {"rest": exact_key(lattice._complement(lat, cols, [x, cols[2]]))}


def _rearrange_jordan():
    """The input of test_rearrange_jordan: H(0,0) ⟂ H(1,2) over Q_2(√2)."""
    alg = _q2sqrt2()
    new, t = classify.rearrange_jordan(
        orthogonal_sum(standard_Hik(alg, 0, 0), standard_Hik(alg, 1, 2)))
    return {"gram": exact_key(new.gram), "transform": exact_key(t)}


def _split_vector_reduction():
    """The Eichler isometry of test_eichler_reduction_f4 on H(0) ⟂ H(0)
    over F4ram: residue field F_4, so its rewrite splits y."""
    alg = EtaleAlgebra.quadratic(LocalField(2, unramified_poly=[1, 1]), 0, -2)
    lat = orthogonal_sum(standard_H(alg, 0), standard_H(alg, 0))
    u, v, w = (basis_vector(alg, 4, i) for i in (0, 1, 2))
    e = make_eichler(lat, u, v, w, alg.special_skew(1))
    return {"word": exact_key([_generator(lat, g) for g in eichler_to_symmetries(lat, e)])}


PATHS = {"norm_drop_witness": (_norm_drop_witness, classify, "cross_pair_norm_drop"),
         "split_duals": (_split_duals, lattice, "_dual_basis"),
         "peel_hyperbolic": (_peel_hyperbolic, factorize, "_transport_pair"),
         "peel_normal_dyadic": (_peel_normal, factorize, "_peel_normal"),
         "peel_subnormal_dyadic": (_peel_subnormal, factorize, "_peel_subnormal"),
         "steered_subnormal": (_steered_subnormal, factorize, "_steered_sigma"),
         "line_complement_slotwise": (_line_complement_slotwise, lattice, "_slotwise_keep"),
         "pair_complement_slotwise": (_pair_complement_slotwise, lattice, "_slotwise_keep"),
         "rearrange_jordan": (_rearrange_jordan, classify, "rearrange_columns"),
         "split_vector_reduction": (_split_vector_reduction, isometries,
                                    "_split_vector_reduction")}


@pytest.mark.parametrize("name", sorted(EXPECTED_PATHS))
def test_unscheduled_path_is_bit_identical(name, monkeypatch):
    run, module, attr = PATHS[name]
    calls = []
    original = getattr(module, attr)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, attr, spy)
    digest = _digest(run())
    assert calls, f"{attr} was not reached"
    assert digest == EXPECTED_PATHS[name]

import random
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import hermlat
from hermlat import classify, oracle
from hermlat.classify import (
    _norm_shift,
    isometric,
    isometry_conditions,
    modular_standard_form,
    rearrange_jordan,
    splits_hyperbolic,
)
from hermlat.errors import HermlatError, UnsupportedCase
from hermlat.etale import NONNORM
from hermlat.lattice import (
    HermitianLattice,
    orthogonal_sum,
    standard_A,
    standard_H,
    standard_Hik,
)
from hermlat.linalg import basis_vector, vec_scale
from hermlat.specfile import parse_lattice
from test_isometries import _catalog_lattice
from test_kernel_identity import _basis_change
from test_lattice import _unit_basis_change, transformed


def test_hik_iff_classification(Q2sqrt2, Q2i):
    for alg in (Q2sqrt2, Q2i):
        e = alg.e
        for i in range(0, 5):
            for k in range((i + 1) // 2, (i + e) // 2 + 1):
                if not (i <= 2 * k <= i + e):
                    continue
                got = isometric(standard_Hik(alg, i, k), standard_H(alg, i))
                assert got == (k == (i + e) // 2), (alg.e, i, k)


def test_isometric_reflexive_and_invariant(Q2sqrt2, inert3, split2):
    rng = random.Random(4)
    for alg, L in ((Q2sqrt2, standard_A(Q2sqrt2, 0, 1)),
                   (inert3, HermitianLattice(
                       inert3, ((inert3.one, inert3.zero),
                                (inert3.zero, inert3.from_int(3))))),
                   (split2, HermitianLattice(
                       split2, ((split2.one, split2.zero),
                                (split2.zero, split2.from_int(2)))))):
        assert isometric(L, L)
        for _ in range(3):
            assert isometric(L, transformed(L, _unit_basis_change(L, rng)))


def test_a01_matches_two_one_gram(Q2sqrt2):
    g = ((Q2sqrt2.from_int(2), Q2sqrt2.from_int(1)),
         (Q2sqrt2.from_int(1), Q2sqrt2.from_int(2)))
    assert isometric(HermitianLattice(Q2sqrt2, g), standard_A(Q2sqrt2, 0, 1))


def test_isometric_detects_rank_and_type(Q2sqrt2):
    a, b = standard_H(Q2sqrt2, 0), standard_H(Q2sqrt2, 1)
    ok, failed, _ = isometry_conditions(a, b)
    assert not ok and failed == 1


def test_modular_standard_form(Q2sqrt2):
    d = modular_standard_form(standard_H(Q2sqrt2, 2))
    assert d["parity"] == "even" and d["form"] == "H" and d["r"] == 0
    d = modular_standard_form(standard_A(Q2sqrt2, 0, 1))
    assert d["form"] == "A" and d["k"] == 1
    d = modular_standard_form(HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(3),),)))
    assert d["parity"] == "odd" and d["unit_class"] == "NonNorm"


def _check_pair(L, found):
    assert found is not None
    u, v, s = found
    assert L.q_value(u).is_zero()
    assert L.q_value(v).is_zero()
    assert L.inner(u, v) == L.alg.uniformizer_pow(s)
    return s


def test_splits_hyperbolic_positive(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0), standard_A(Q2sqrt2, 1, 1))
    s = _check_pair(L, splits_hyperbolic(L))
    assert s == 0
    L2 = orthogonal_sum(standard_H(Q2sqrt2, 1), standard_H(Q2sqrt2, 1))
    _check_pair(L2, splits_hyperbolic(L2))


def test_splits_hyperbolic_negative(Q2sqrt2):
    assert splits_hyperbolic(standard_A(Q2sqrt2, 0, 1)) is None
    one = HermitianLattice(Q2sqrt2, ((Q2sqrt2.one, Q2sqrt2.zero),
                                     (Q2sqrt2.zero, Q2sqrt2.from_int(-1))))
    assert splits_hyperbolic(one) is None


def test_splits_hyperbolic_cross_block(Q2sqrt2):
    # a deep piece of small norm next to a subnormal plane forces a plane
    L = orthogonal_sum(standard_Hik(Q2sqrt2, 1, 2),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    _check_pair(L, splits_hyperbolic(L))
    # determinant-flip shape from the deeper-block relations
    L2 = orthogonal_sum(standard_A(Q2sqrt2, 1, 1), standard_Hik(Q2sqrt2, 2, 2))
    _check_pair(L2, splits_hyperbolic(L2))


def test_each_lattice_object_is_split_once(monkeypatch):
    """Deciding L against M, searching M for a hyperbolic pair and deciding
    L against M2 split each of L, M and M2 once and take the dual of each
    of their blocks once.  Every other splitting is of a sub-span: one per
    deeper part of a cross-block attempt, and one per round of the pair
    search after the first (which reads M's own splitting), except a round
    whose columns are the deeper part the round before split: it reuses
    that split."""
    cat = _catalog_lattice("q2sqrt2-sub")  # shared with other tests
    lat = HermitianLattice(cat.alg, cat.gram)
    m1 = _basis_change(lat, random.Random("split-once:1"))
    m2 = _basis_change(lat, random.Random("split-once:2"))
    splits, duals = Counter(), Counter()
    sub_spans, rounds = [], []  # (caller, cols) of each sub-span split; cols of each round
    field, dual = HermitianLattice._jordan_split_field, HermitianLattice.dual_sublattice
    jcols, arrange = classify._jordan_cols, classify._arrange_first_block

    def count_split(self):
        splits[id(self)] += 1
        return field(self)

    def count_dual(self, a_exp):
        duals[id(self)] += 1
        return dual(self, a_exp)

    def count_sub_span(lat_, cols):
        sub_spans.append((sys._getframe(1).f_code.co_name, cols))
        return jcols(lat_, cols)

    def count_round(lat_, cols, groups):
        rounds.append(cols)
        return arrange(lat_, cols, groups)

    monkeypatch.setattr(HermitianLattice, "_jordan_split_field", count_split)
    monkeypatch.setattr(HermitianLattice, "dual_sublattice", count_dual)
    monkeypatch.setattr(classify, "_jordan_cols", count_sub_span)
    monkeypatch.setattr(classify, "_arrange_first_block", count_round)
    assert isometry_conditions(lat, m1)[0]
    assert splits_hyperbolic(m1) is None
    assert isometry_conditions(lat, m2)[0]
    mine = {id(x): x for x in (lat, m1, m2)}
    assert {k: splits[k] for k in mine} == dict.fromkeys(mine, 1)
    assert len(rounds) > 1
    deeper = [cols for name, cols in sub_spans if name == "deeper"]
    reused = [cols for cols in rounds[1:] if any(cols is d for d in deeper)]
    fresh = [cols for name, cols in sub_spans if name == "_next_round"]
    assert reused
    assert len(reused) + len(fresh) == len(rounds) - 1
    assert {name for name, _ in sub_spans} <= {"deeper", "_next_round"}
    assert sum(v for k, v in splits.items() if k not in mine) == len(sub_spans)
    assert duals == {k: len(x.jordan_split().blocks) for k, x in mine.items()}


def test_rearrange_jordan(Q2sqrt2):
    L = orthogonal_sum(standard_Hik(Q2sqrt2, 0, 0), standard_Hik(Q2sqrt2, 1, 2))
    new, t = rearrange_jordan(L)
    blocks = new.jordan_split().blocks
    assert blocks[1].norm_exp == 1  # j - i + k = 1
    assert isometric(L, new)
    # the new basis is the complement of the rearranged plane, then the plane
    assert all(new.gram[r][c].is_zero() for r in (0, 1) for c in (2, 3))


def test_rearrange_jordan_noop_depth(Q2sqrt2):
    # second block already at the target norm: rewrite keeps it isometric
    L = orthogonal_sum(standard_A(Q2sqrt2, 0, 1), standard_Hik(Q2sqrt2, 1, 2))
    new, t = rearrange_jordan(L)
    assert isometric(L, new)
    assert new.jordan_split().blocks[1].norm_exp == 2


def test_rearrange_jordan_hypotheses(Q2sqrt2):
    with pytest.raises(UnsupportedCase, match="at least two Jordan blocks"):
        rearrange_jordan(standard_A(Q2sqrt2, 0, 1))  # single block
    # deeper block too deep: j - i > n - k
    L = orthogonal_sum(standard_A(Q2sqrt2, 0, 1),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(8),),)))
    with pytest.raises(UnsupportedCase, match="0 < j-i <= n-k"):
        rearrange_jordan(L)


def test_isotropy_fallback_finds_the_pair():
    """A GL_4(O) change of basis of H(1) ⟂ H(1) over Q_2(√2) on which every
    round of ``isotropy_refine`` takes the norm-balanced step along the
    helper that is u itself: u shrinks toward 0 and Q(u) = 0 is never
    reached.  The closed-form fallback must find the hyperbolic pair.

    The change of basis is drawn from one seeded generator after the draws
    of a three-generator word (Eichler isometry, then two symmetries)."""
    with open(hermlat.catalog_path("q2sqrt2-h1h1.lat")) as fh:
        lat = parse_lattice(fh.read())
    rng = random.Random(161406199)
    if oracle.random_eichler(lat, rng) is None:
        oracle.random_symmetry(lat, rng)
    oracle.random_symmetry(lat, rng)
    oracle.random_symmetry(lat, rng)
    other = _basis_change(lat, rng)
    u, v, s = splits_hyperbolic(other)
    assert other.q_value(u).is_zero() and other.q_value(v).is_zero()
    assert other.inner(u, v) == other.alg.uniformizer_pow(s)
    ok, _, _ = isometry_conditions(lat, other)
    assert ok


RAMIFIED_CATALOG = ("f4ram", "q2i-diag", "q2i-h", "q2i-h0h0", "q2i-h1h1",
                    "q2sqrt2-a01", "q2sqrt2-h0h0", "q2sqrt2-h1h1", "q2sqrt2-sub", "ram3")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.sampled_from(RAMIFIED_CATALOG), st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
def test_norm_shift_cancels_the_leading_digits(name, seed, s):
    """``_norm_shift(lat, w, z, q, qz, window)`` along a basis column z of a
    seeded basis: None exactly when v(q) < v(qz); otherwise w + lam*z with
    v(q + Nr(lam) qz) >= v(q) + window, for every window 1..max(e-1, 1).
    The norm solve may fail only where no unit norm reaches the class."""
    rng = random.Random(seed)
    lat = _basis_change(_catalog_lattice(name), rng)
    alg = lat.alg
    j = rng.randrange(lat.n)
    z = basis_vector(alg, lat.n, j)
    w = vec_scale(alg.uniformizer_pow(s), oracle.random_vector(lat, rng))
    q, qz = lat.q_value(w), lat.q_value(z)
    assume(not q.is_zero() and not qz.is_zero())
    t = q.valuation() - qz.valuation()
    for window in range(1, max(alg.e - 1, 1) + 1):
        try:
            cand = _norm_shift(lat, w, z, q, qz, window)
        except HermlatError as ex:
            assert "no unit norm matches" in str(ex), ex
            tau = -q / (qz * alg.uniformizer_pow(t).norm())
            assert window == max(alg.e, 1) and alg.norm_class(tau) == NONNORM
            continue
        if t < 0:
            assert cand is None
            continue
        assert all(cand[i] == w[i] for i in range(lat.n) if i != j)
        lam = cand[j] - w[j]
        rest = q + lam.norm() * qz
        assert rest.is_zero() or rest.valuation() >= q.valuation() + window

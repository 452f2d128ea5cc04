import gc
import math
import operator
import random
import weakref

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from hermlat import etale, localfield
from hermlat.errors import HermlatError, UnsupportedCase
from hermlat.etale import INF, NONNORM, NORM, AlgElement, EtaleAlgebra
from hermlat.linalg import _dot
from hermlat.localfield import FieldElement, LocalField
from hermlat.oracle import enumerate_trace_image, norm_image_index
from conftest import tower_algebra
from test_localfield import kernel_elements


def test_split_structure(split2, Q2):
    x = split2.element(Q2.from_int(3), Q2.from_int(5))
    assert x.conj().x0 == 5 and x.conj().x1 == 3
    assert x.trace() == 8
    assert x.norm() == 15


def test_ramified_norm_example(Q2sqrt2):
    s2 = Q2sqrt2.gen()
    assert (Q2sqrt2.one + s2).norm() == -1
    assert Q2sqrt2.one.trace() == 2
    assert Q2sqrt2.one.norm() == 1


def test_valuation_P(Q2sqrt2, inert3, split2, Q2, Q3):
    assert Q2sqrt2.vP(Q2sqrt2.gen()) == 1
    assert inert3.vP(inert3.from_int(3)) == 1
    v = split2.valuation_P(split2.element(Q2.from_int(2), Q2.one))
    assert (v.a, v.b) == (1, 0)


def test_different_exponents(Q3sqrt3, Q2i, Q2sqrt2):
    assert Q3sqrt3.e == 1
    assert Q2i.e == 2
    assert Q2sqrt2.e == 3  # = 2 v(2) + 1
    with pytest.raises(HermlatError, match="u0 is defined for ramified"):
        EtaleAlgebra.split(Q3sqrt3.base).u0()


def test_trace_ideal_closed_form(Q2sqrt2, Q2i, Q3sqrt3):
    assert Q2sqrt2.trace_ideal(0) == 1
    assert Q2i.trace_ideal(1) == 1
    assert Q3sqrt3.trace_ideal(0) == 0


@pytest.mark.parametrize("alg_name", ["Q2sqrt2", "Q2i", "Q3sqrt3"])
def test_trace_ideal_vs_enumeration(alg_name, request):
    alg = request.getfixturevalue(alg_name)
    for i in range(0, alg.e + 2):
        assert enumerate_trace_image(alg, i, alg.e + 3) == alg.trace_ideal(i)


def test_rho(Q2sqrt2, Q2i, Q3sqrt3, inert2):
    for alg in (Q2sqrt2, Q2i, Q3sqrt3):
        rho = alg.rho()
        assert rho.trace() == 1
        assert alg.vP(rho) == 1 - alg.e
    # maximal different exponent: rho = 1/2 exactly
    assert Q2sqrt2.rho() == Q2sqrt2.from_K(Q2sqrt2.base.one / 2)
    # inert: a unit of trace one exists
    assert inert2.rho().is_unit()


def test_skew_elements(Q2sqrt2, Q2i, inert2):
    om = Q2sqrt2.special_skew(1)
    assert om.trace().is_zero() and Q2sqrt2.vP(om) == 1
    with pytest.raises(HermlatError, match="skew elements have valuation"):
        Q2sqrt2.special_skew(2)
    om2 = Q2i.special_skew(2)
    assert om2.trace().is_zero() and Q2i.vP(om2) == 2
    eta = inert2.eta()
    assert eta.trace().is_zero() and eta.is_unit()


def test_u0(Q2sqrt2, Q2i, F4ram, tower5, tower7):
    for alg in (Q2sqrt2, Q2i, F4ram, tower5, tower7):
        u0 = alg.u0()
        assert u0.valuation() == alg.e - 1
        assert alg.norm_class(alg.base.one + u0) == NONNORM


def test_norm_class(Q2sqrt2, split2, inert2):
    assert split2.norm_class(split2.base.from_int(7)) == NORM
    assert inert2.norm_class(inert2.base.from_int(3)) == NORM
    assert Q2sqrt2.norm_class(Q2sqrt2.base.from_int(-1)) == NORM
    assert Q2sqrt2.norm_class(Q2sqrt2.base.from_int(3)) == NONNORM


def test_key_mod_p_counts_in_the_maximal_ideal_of_K(tower5):
    # K = Q_2(t), t^2 = 2: keys are taken mod 𝔭^m, not mod p^m = 𝔭^(2m)
    K = tower5.base
    t3 = K.uniformizer_pow(3)
    assert tower5.key_mod_p(t3, 3) == tower5.key_mod_p(K.zero, 3)
    assert tower5.key_mod_p(t3, 4) != tower5.key_mod_p(K.zero, 4)
    assert len({tower5.key_mod_p(r, 3) for r in K.residue_system(3)}) == 8


@pytest.mark.parametrize("name", ["tower5", "tower7"])
def test_norms_are_norm_classes_over_towers(name, request):
    """Over an Eisenstein step the norm keys are taken mod 𝔭_K^e: every
    norm of a unit is a norm class, and the norms have index 2."""
    alg = request.getfixturevalue(name)
    K = alg.base
    rng = random.Random(alg.e)
    units = 0
    while units < 200:
        u = alg.element(*(K.from_coeffs([rng.randrange(-64, 64)
                                         for _ in range(K.nbasis)])
                          for _ in range(2)))
        if not u.is_unit():
            continue
        units += 1
        assert alg.norm_class(u.norm()) == NORM
    assert norm_image_index(alg, alg.e) == 2


@pytest.mark.parametrize("d", [None, 3], ids=["f4ram", "e7-tower"])
def test_norm_classes_build_no_large_residue_table(d):
    """u0, norm_class and solve_norm_unit hold no O-residue table larger
    than q^e: the norm keys come from a generated subgroup and the norm
    solve walks residues until its first hit."""
    if d is None:
        alg = EtaleAlgebra.quadratic(LocalField(2, unramified_poly=[1, 1]), 0, -2)
    else:
        alg = tower_algebra(d)
    K = alg.base
    alg.u0()
    alg.norm_class(K.from_int(3))
    a = (alg.one + alg.gen()).norm()
    assert alg.solve_norm_unit(a).norm() == a
    tables = list(alg._residues.values()) + list(alg._unit_residues.values())
    assert all(len(t) <= K.q ** alg.e for t in tables)


def test_norm_key_closure_checks_its_index():
    alg = EtaleAlgebra.quadratic(LocalField(2), 0, -2)
    alg.e -= 1  # mod 𝔭^(e-1) every unit is a norm: index 1, not 2
    with pytest.raises(UnsupportedCase, match="not half of"):
        alg.norm_class(alg.base.from_int(3))


def test_norm_class_coset_invariance(Q2sqrt2):
    rng = random.Random(5)
    K = Q2sqrt2.base
    for _ in range(10):
        a = K.from_int(2 * rng.randrange(0, 50) + 1)
        u = Q2sqrt2.element(K.from_int(2 * rng.randrange(0, 20) + 1),
                            K.from_int(rng.randrange(0, 20)))
        if not u.is_unit():
            continue
        assert Q2sqrt2.norm_class(a) == Q2sqrt2.norm_class(a * u.norm())


def test_normic_defect(Q2sqrt2):
    K = Q2sqrt2.base
    beta = Q2sqrt2.element(K.from_int(3), K.from_int(1))
    assert Q2sqrt2.normic_defect(beta.norm()) == INF
    u0 = Q2sqrt2.u0()
    assert Q2sqrt2.normic_defect(K.one + u0) == Q2sqrt2.e - 1 == 2
    assert Q2sqrt2.normic_defect(K.from_int(3)) == 2
    assert Q2sqrt2.normic_defect(K.from_int(-1)) == INF


def _defect_by_enumeration(alg, norms, a):
    """v(a) plus the largest v(unit - Nr(beta)), unit = a / Nr(pi)^v(a),
    over the norms of the units beta of O/P^(e+3); a difference is measured
    up to e + 2 digits, so a norm reads v(a) + e + 2."""
    v = a.valuation()
    unit = a / alg.uniformizer().norm() ** v
    measurable = alg.e + 2
    best = 0
    for nb in norms:
        diff = unit - nb
        dv = measurable if diff.is_zero() else min(diff.valuation(), measurable)
        best = max(best, dv)
    return v + best


@pytest.mark.parametrize("name", ["Q2sqrt2", "Q2i", "F4ram", "Q3sqrt3", "Q5sqrt5",
                                  "tower5", "tower7"])
def test_normic_defect_of_a_non_norm_is_read_off_the_conductor(name, request):
    """Every non-norm r * p^v (r a unit residue, v in {0, 1, 3}) has normic
    defect v(r * p^v) + e - 1, and that is the largest v(a - Nr(beta)) that
    an enumeration of unit residues beta finds."""
    alg = (EtaleAlgebra.quadratic(LocalField(5), 0, -5) if name == "Q5sqrt5"
           else request.getfixturevalue(name))
    K = alg.base
    norms = [beta.norm() for beta in alg.unit_residues_O(alg.e + 3)]
    checked = 0
    for r in K.unit_residues(min(alg.e + 2, 4)):
        for v in (0, 1, 3):
            a = r * K.ppow(v)
            if alg.in_E_norm_group(a):
                continue
            defect = alg.normic_defect(a)
            assert defect == a.valuation() + alg.e - 1
            assert defect == _defect_by_enumeration(alg, norms, a), (name, v)
            checked += 1
    assert checked


def test_solve_trace(Q2sqrt2, split2, inert2):
    alg = Q2sqrt2
    assert alg.solve_trace(alg.one, alg.base.zero).is_zero()
    c = split2.element(split2.base.one, split2.base.one)
    mu = split2.solve_trace(c, split2.base.from_int(7))
    assert (mu * c).trace() == 7
    mu2 = inert2.solve_trace(inert2.one, inert2.base.one)
    assert mu2.trace() == 1


def test_units_approximated_by_norms(Q2sqrt2, Q2i):
    # every unit is congruent to a unit norm modulo p^(e-1)
    rng = random.Random(3)
    for alg in (Q2sqrt2, Q2i):
        K = alg.base
        for _ in range(8):
            a = K.from_int(2 * rng.randrange(0, 100) + 1)
            eps = alg.solve_norm_approx(a, alg.e - 1)
            diff = a - eps.norm()
            assert diff.is_zero() or diff.valuation() >= alg.e - 1


def _norm_algebras():
    for prec, guard in ((8, 4), (64, 16)):
        Q2 = LocalField(2, precision=prec, guard=guard)
        Q3 = LocalField(3, precision=prec, guard=guard)
        F4 = LocalField(2, unramified_poly=[1, 1], precision=prec, guard=guard)
        yield EtaleAlgebra.split(Q2)
        for K, b, c in ((Q2, 1, 1),     # inert over Q_2
                        (Q2, 2, 2),     # Q_2(i)
                        (Q2, 0, -2),    # Q_2(sqrt 2)
                        (Q3, 0, -3),    # Q_3(sqrt 3)
                        (F4, 0, -2)):   # F_4-ramified
            yield EtaleAlgebra.quadratic(K, b, c)


NORM_ALGEBRAS = list(_norm_algebras())


@st.composite
def nonzero_elements(draw, alg):
    """x0 + x1*g with integral coordinates, times pi^k for any sign of k;
    split slots are drawn separately, so their valuations may differ."""
    K = alg.base

    def coord():
        return K.from_coeffs([draw(st.integers(-10 ** 6, 10 ** 6))
                              for _ in range(K.nbasis)])

    x = AlgElement(alg, coord(), coord())
    assume(not x.norm().is_zero())
    return x * alg.uniformizer_pow(draw(st.integers(-4, 8)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_norm_solves_every_norm(data):
    alg = data.draw(st.sampled_from(NORM_ALGEBRAS))
    a = data.draw(nonzero_elements(alg)).norm()
    assert alg.solve_norm(a).norm() == a


def test_residue_one_iff_norm_residue_one(Q2sqrt2):
    # alpha = 1 mod P iff Nr(alpha) = 1 mod p
    rng = random.Random(9)
    K = Q2sqrt2.base
    for _ in range(20):
        alpha = Q2sqrt2.element(K.from_int(rng.randrange(-20, 20)),
                                K.from_int(rng.randrange(-20, 20)))
        if alpha.is_zero():
            continue
        one_side = False
        d = alpha - Q2sqrt2.one
        lhs = d.is_zero() or Q2sqrt2.vP(d) >= 1
        n = alpha.norm() - K.one
        rhs = n.is_zero() or n.valuation() >= 1
        assert lhs == rhs


def test_conj_involution_random(Q2i):
    rng = random.Random(1)
    K = Q2i.base
    for _ in range(20):
        x = Q2i.element(K.from_int(rng.randrange(-30, 30)),
                        K.from_int(rng.randrange(-30, 30)))
        assert x.conj().conj() == x
        assert (x.trace() - (x + x.conj()).as_K()).is_zero()
        assert (x.norm() - (x * x.conj()).as_K()).is_zero()


def test_different_exponent_method(Q2sqrt2, split2):
    assert Q2sqrt2.different_exponent() == 3
    with pytest.raises(HermlatError, match="different exponent is for"):
        split2.different_exponent()


def test_filled_tables_let_a_dropped_algebra_go():
    """The residue and norm tables an algebra and its field fill on use are
    kept on them, not in a cache that holds them: once both are dropped,
    they are freed."""
    K = LocalField(2)
    alg = EtaleAlgebra.quadratic(K, 0, -2)
    alg.residue_system_O(2)
    assert alg.unit_residues_O(2) is alg.unit_residues_O(2)
    assert alg.norm_class(K.from_int(-1)) == NORM
    assert alg.norm_class(K.from_int(3)) == NONNORM
    assert alg.solve_norm_approx(K.from_int(5), 1) is alg.solve_norm_approx(K.from_int(5), 1)
    assert len(K.residue_system(3)) == 8
    refs = weakref.ref(alg), weakref.ref(K)
    del alg, K
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_mixed_algebras_are_rejected(Q2):
    a, b = EtaleAlgebra.split(Q2), EtaleAlgebra.split(Q2)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / y):
        with pytest.raises(HermlatError, match="different algebras"):
            op(a.one, b.one)


# ---------------------------------------------------------------------------
# the flat E kernel against the composed FieldElement path
# ---------------------------------------------------------------------------

FLAT_ALGEBRAS = [
    EtaleAlgebra.quadratic(LocalField(p, precision=prec, guard=guard), b, c)
    for p, b, c in ((2, 2, 2),     # Q_2(i): x^2 + 2x + 2, b != 0
                    (2, 0, -2),    # Q_2(sqrt 2)
                    (3, 0, -3),    # Q_3(sqrt 3)
                    (2, 1, 1))     # inert over Q_2: x^2 + x + 1
    for prec, guard in ((8, 4), (64, 16))
]


def _composed_mul(x, y):
    a = x.alg
    x0, x1, y0, y1 = x.x0, x.x1, y.x0, y.x1
    cross = x1 * y1
    new1 = x0 * y1 + x1 * y0
    if not a.b.is_zero():
        new1 = new1 - a.b * cross
    return AlgElement(a, x0 * y0 - a.c * cross, new1)


def _composed_sub(x, y):
    return AlgElement(x.alg, x.x0 + (-y.x0), x.x1 + (-y.x1))


def _composed_conj(x):
    a = x.alg
    if a.b.is_zero():
        return AlgElement(a, x.x0, -x.x1)
    return AlgElement(a, x.x0 - a.b * x.x1, -x.x1)


def _composed_trace(x):
    if x.alg.b.is_zero():
        return x.x0 * 2
    return x.x0 * 2 - x.alg.b * x.x1


def _composed_norm(x):
    a = x.alg
    if a.b.is_zero():
        return x.x0 * x.x0 + a.c * x.x1 * x.x1
    return x.x0 * x.x0 - a.b * x.x0 * x.x1 + a.c * x.x1 * x.x1


def _composed_dot(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        term = _composed_mul(x, y)
        acc = term if acc is None else AlgElement(x.alg, acc.x0 + term.x0,
                                                  acc.x1 + term.x1)
    return acc


def _triples(fn, *args):
    """The exact (co, shift, ncap) of a result, or the exception raised."""
    try:
        r = fn(*args)
    except HermlatError as ex:
        return type(ex).__name__, str(ex)
    if isinstance(r, AlgElement):
        return [(c.co, c.shift, c.ncap) for c in (r.x0, r.x1)]
    return r.co, r.shift, r.ncap


@st.composite
def kernel_alg_elements(draw, alg):
    """Elements whose coordinates are drawn like the K kernel's: units,
    p-content, zeros keeping extra digits, guard-level ncap, shifts of
    both signs.  A quarter of the draws is a zero of alg, whose two
    coordinates are zeros of their own shift and ncap (drawn with up to
    3*mcap digits), or ``alg.zero``."""
    K = alg.base
    if draw(st.integers(0, 3)) == 0:
        zero = kernel_elements(K, kinds=("zero",))
        return draw(st.one_of(st.just(alg.zero), st.builds(AlgElement, st.just(alg), zero, zero)))
    return AlgElement(alg, draw(kernel_elements(K)), draw(kernel_elements(K)))


def _assert_products_match(data, alg):
    """x*y, y*x and a dot product over alg equal the composed path's by
    exact triples; returns x and y."""
    x = data.draw(kernel_alg_elements(alg))
    y = data.draw(st.one_of(kernel_alg_elements(alg), st.just(x)))
    event(f"zero factor in x*y: {x.is_zero() or y.is_zero()}")
    assert _triples(operator.mul, x, y) == _triples(_composed_mul, x, y)
    assert _triples(operator.mul, y, x) == _triples(_composed_mul, y, x)
    n = data.draw(st.integers(1, 4))
    xs = tuple(data.draw(kernel_alg_elements(alg)) for _ in range(n))
    ys = tuple(data.draw(kernel_alg_elements(alg)) for _ in range(n))
    event(f"zero factor in a dot term: {any(a.is_zero() or b.is_zero() for a, b in zip(xs, ys))}")
    assert _triples(_dot, xs, ys) == _triples(_composed_dot, xs, ys)
    return x, y


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_flat_kernel_matches_composed_path(data):
    alg = data.draw(st.sampled_from(FLAT_ALGEBRAS))
    x, y = _assert_products_match(data, alg)
    assert _triples(operator.sub, x, y) == _triples(_composed_sub, x, y)
    assert _triples(operator.sub, y, x) == _triples(_composed_sub, y, x)
    for fast, composed in ((AlgElement.conj, _composed_conj),
                           (AlgElement.trace, _composed_trace),
                           (AlgElement.norm, _composed_norm)):
        assert _triples(fast, x) == _triples(composed, x)


def _nonflat_algebras():
    for prec, guard in ((8, 4), (64, 16)):
        F4 = LocalField(2, unramified_poly=[1, 1], precision=prec, guard=guard)
        T = LocalField(2, eisenstein_poly=[-2, 0], precision=prec, guard=guard)
        yield EtaleAlgebra.quadratic(F4, 0, -2)   # f4ram
        yield EtaleAlgebra.quadratic(F4, 2, 2)    # ramified, b != 0
        yield EtaleAlgebra.quadratic(F4, 1, F4.gen_unramified())  # inert: x^2 + x + w
        t = T.uniformizer()
        yield EtaleAlgebra.quadratic(T, t, t)     # ramified over a tower, b != 0
    yield tower_algebra(2)
    yield tower_algebra(3)


NONFLAT_ALGEBRAS = list(_nonflat_algebras())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nonflat_products_match_composed_path(data):
    """Field kinds over K = Q_2(w) and over Eisenstein towers: the zero
    branch of ``AlgElement.__mul__`` and the general one give the triples
    of the composed ``FieldElement`` formula."""
    _assert_products_match(data, data.draw(st.sampled_from(NONFLAT_ALGEBRAS)))


def _algebra_id(alg):
    K = alg.base
    b = "b0" if alg._b_zero else "b"
    return f"{alg.kind}-{b}-p{K.p}-f{K.f}-d{K.d}"


# the algebras at the default precision
@pytest.mark.parametrize("alg", FLAT_ALGEBRAS[1::2] + NONFLAT_ALGEBRAS[4:], ids=_algebra_id)
def test_a_zero_factor_multiplies_no_integers(alg, monkeypatch):
    """A product with a zero factor, and a dot product of a Gram row that
    holds zeros with a vector that is zero where the row is not, are worked
    out from precision data: they give the same triples while the integer
    products of K raise."""
    K = alg.base
    x = AlgElement(alg, K.from_int(3), K.from_int(6))
    wide = FieldElement(K, (0,) * K.nbasis, -3, K.mcap + 5)  # stored at its absolute precision
    z = AlgElement(alg, K.zero, wide)
    row, col = (x, alg.zero, z), (alg.zero, x, x)
    cases = ((operator.mul, alg.zero, x), (operator.mul, x, alg.zero),
             (operator.mul, z, x), (operator.mul, x, z), (_dot, row, col))
    expected = [_triples(fn, a, b) for fn, a, b in cases]

    def boom(*args):
        raise AssertionError("a product with a zero factor multiplied integers")

    monkeypatch.setattr(localfield, "_mul_raw", boom)
    monkeypatch.setattr(etale, "_mul_raw", boom)
    monkeypatch.setattr(LocalField, "_mul_co", boom)
    assert [_triples(fn, a, b) for fn, a, b in cases] == expected
    with pytest.raises(AssertionError, match="multiplied integers"):
        x * x

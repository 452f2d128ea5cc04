import os
import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

import hermlat
from hermlat import oracle
from hermlat.classify import splits_hyperbolic
from hermlat.errors import HermlatError
from hermlat.etale import EtaleAlgebra
from hermlat.isometries import (
    EichlerIsometry,
    Symmetry,
    _build,
    _reduce_eichler,
    _terms_integral,
    _two_symmetries,
    apply_generator,
    apply_word,
    compose_eichler,
    det_of,
    eichler_to_symmetries,
    gram_preserved,
    in_unitary_group,
    make_eichler,
    make_symmetry,
    matrix_of,
    twist_by_skew,
)
from hermlat.lattice import HermitianLattice, orthogonal_sum, standard_H
from hermlat.linalg import (
    _dot,
    basis_vector,
    identity,
    is_integral_matrix,
    mat_eq,
    mat_from_cols,
    mat_inv,
    mat_mul,
    mat_vec,
    vec_add,
    vec_eq,
    vec_scale,
    vec_sub,
)
from hermlat.localfield import LocalField
from hermlat.oracle import random_unitary, random_symmetry, random_vector
from hermlat.specfile import parse_lattice
from test_kernel_identity import _basis_change


def test_symmetry_action_examples(Q2sqrt2):
    H0 = standard_H(Q2sqrt2, 0)
    u, v = basis_vector(Q2sqrt2, 2, 0), basis_vector(Q2sqrt2, 2, 1)
    s = vec_add(u, v)
    g = make_symmetry(H0, s, Q2sqrt2.one)
    img = apply_generator(H0, g, u)
    assert all((a + b).is_zero() for a, b in zip(img, v))  # u -> -v
    # vectors orthogonal to s are fixed
    w = vec_sub(u, v)
    assert H0.inner(w, s).is_zero()
    assert all((a - b).is_zero()
               for a, b in zip(apply_generator(H0, g, w), w))


def test_eichler_action(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    u, v, w = (basis_vector(Q2sqrt2, 3, i) for i in range(3))
    e = make_eichler(L, u, v, w)
    assert all((a - b).is_zero() for a, b in zip(apply_generator(L, e, u), u))
    img = apply_generator(L, e, v)
    expect = vec_add(vec_add(vec_scale(e.mu, u), v), w)
    assert all((a - b).is_zero() for a, b in zip(img, expect))
    assert in_unitary_group(L, e)


def test_determinants(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    u, v, w = (basis_vector(Q2sqrt2, 3, i) for i in range(3))
    e = make_eichler(L, u, v, w)
    assert det_of(L, e) == 1
    # hermitian sigma on an anisotropic vector: det = -1
    g = make_symmetry(L, w, Q2sqrt2.one)
    assert det_of(L, g) == -1
    # isotropic s: det = 1
    om = Q2sqrt2.special_skew(1)
    gi = make_symmetry(L, u, om)
    assert det_of(L, gi) == 1


def test_symmetry_inverse_law(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    rng = random.Random(2)
    for _ in range(10):
        g = random_symmetry(L, rng)
        m = matrix_of(L, g)
        minv = matrix_of(L, g.inverse())
        assert mat_eq(mat_mul(m, minv), identity(Q2sqrt2, 3))


def test_conjugation_normality_law(Q2sqrt2):
    # f S_{s,sigma} f^{-1} = S_{f(s), sigma}
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    rng = random.Random(6)
    for _ in range(6):
        g = random_symmetry(L, rng)
        f, _ = random_unitary(L, 2, rng.randrange(10 ** 6))
        lhs = mat_mul(mat_mul(f, matrix_of(L, g)), mat_inv(f))
        from hermlat.linalg import mat_vec

        moved = Symmetry(mat_vec(f, g.s), g.sigma)
        assert mat_eq(lhs, matrix_of(L, moved))


def test_in_unitary_group_counterexample(Q2i):
    H0 = standard_H(Q2i, 0)
    u, v = basis_vector(Q2i, 2, 0), basis_vector(Q2i, 2, 1)
    s = vec_add(u, v)
    # Tr(sigma) = 2 = <s,s> but sigma sits deeper than <L,s>: non-integral map
    sigma = Q2i.element(Q2i.base.from_int(2), Q2i.base.one)
    assert sigma.trace() == 2
    assert Q2i.vP(sigma) > 0
    g = Symmetry(s, sigma)
    assert not in_unitary_group(H0, g)


def test_compose_and_twist(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2), Q2sqrt2.zero),
                                                  (Q2sqrt2.zero, Q2sqrt2.from_int(6)))))
    u, v = basis_vector(Q2sqrt2, 4, 0), basis_vector(Q2sqrt2, 4, 1)
    w1, w2 = basis_vector(Q2sqrt2, 4, 2), basis_vector(Q2sqrt2, 4, 3)
    e1 = make_eichler(L, u, v, w1)
    e2 = make_eichler(L, u, v, w2)
    prod = compose_eichler(L, e1, e2)
    assert mat_eq(mat_mul(matrix_of(L, e1), matrix_of(L, e2)),
                  matrix_of(L, prod))
    # identity composition
    e0 = EichlerIsometry(u, v, (Q2sqrt2.zero,) * 4, Q2sqrt2.zero)
    assert mat_eq(matrix_of(L, compose_eichler(L, e1, e0)), matrix_of(L, e1))
    # inverse through the composition formula
    inv = e1.inverse(L)
    prod2 = compose_eichler(L, e1, inv)
    assert all(c.is_zero() for c in prod2.y) and prod2.mu.is_zero()
    # skew twist: trace invariant of the new parameter is unchanged
    om = Q2sqrt2.special_skew(3)
    e3 = twist_by_skew(L, e1, om)
    assert mat_eq(mat_mul(matrix_of(L, Symmetry(u, om)), matrix_of(L, e1)),
                  matrix_of(L, e3))
    puv = L.inner(u, v)
    assert ((e3.mu * puv).trace() - (e1.mu * puv).trace()).is_zero()
    with pytest.raises(HermlatError, match="nonzero skew element"):
        twist_by_skew(L, e1, Q2sqrt2.zero)
    with pytest.raises(HermlatError, match="different hyperbolic pairs"):
        compose_eichler(L, e1, EichlerIsometry(w1, v, (Q2sqrt2.zero,) * 4,
                                               Q2sqrt2.zero))


def test_eichler_to_symmetries_unit_case(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    u, v, w = (basis_vector(Q2sqrt2, 3, i) for i in range(3))
    e = make_eichler(L, u, v, w)
    syms = eichler_to_symmetries(L, e)
    assert syms is not None and len(syms) == 2
    prod = identity(Q2sqrt2, 3)
    for g in syms:
        assert isinstance(g, Symmetry)
        assert in_unitary_group(L, g)
        prod = mat_mul(prod, matrix_of(L, g))
    assert mat_eq(prod, matrix_of(L, e))


def test_eichler_reduction_residue_two_fallthrough(Q2sqrt2, Q2i):
    # crafted irreducible inputs: parity of the pair scale differs from e
    L = orthogonal_sum(standard_H(Q2sqrt2, 0), standard_H(Q2sqrt2, 0))
    u, v, w = (basis_vector(Q2sqrt2, 4, i) for i in (0, 1, 2))
    e = make_eichler(L, u, v, w, Q2sqrt2.special_skew(1))
    assert in_unitary_group(L, e)
    assert eichler_to_symmetries(L, e) is None
    L2 = orthogonal_sum(standard_H(Q2i, 1), standard_H(Q2i, 1))
    u2, v2, w2 = (basis_vector(Q2i, 4, i) for i in (0, 1, 2))
    e2 = make_eichler(L2, u2, v2, w2)
    assert in_unitary_group(L2, e2)
    assert eichler_to_symmetries(L2, e2) is None


def test_eichler_reduction_f4(F4ram):
    L = orthogonal_sum(standard_H(F4ram, 0), standard_H(F4ram, 0))
    u, v, w = (basis_vector(F4ram, 4, i) for i in (0, 1, 2))
    e = make_eichler(L, u, v, w, F4ram.special_skew(1))
    syms = eichler_to_symmetries(L, e)
    assert syms is not None
    prod = identity(F4ram, 4)
    for g in syms:
        prod = mat_mul(prod, matrix_of(L, g))
    assert mat_eq(prod, matrix_of(L, e))


def test_form_preservation_random(Q2sqrt2, inert2):
    rng = random.Random(12)
    for alg in (Q2sqrt2, inert2):
        L = orthogonal_sum(standard_H(alg, 0),
                           HermitianLattice(alg, ((alg.from_int(2),),)))
        for _ in range(5):
            g = random_symmetry(L, rng)
            x, y = random_vector(L, rng), random_vector(L, rng)
            gx = apply_generator(L, g, x)
            gy = apply_generator(L, g, y)
            assert (L.inner(gx, gy) - L.inner(x, y)).is_zero()


def test_fast_path_implies_exact_membership(Q2sqrt2, inert2):
    # whenever the ideal-theoretic sufficient condition accepts a symmetry,
    # the exact matrix test must accept it too
    rng = random.Random(77)
    for alg in (Q2sqrt2, inert2):
        L = orthogonal_sum(standard_H(alg, 0),
                           HermitianLattice(alg, ((alg.from_int(2),),)))
        for _ in range(8):
            g = random_symmetry(L, rng)
            vs = alg.valuation_P(g.sigma)
            fast = True
            for i in range(L.n):
                e = L.inner(basis_vector(alg, L.n, i), g.s)
                if e.is_zero():
                    continue
                ve = alg.valuation_P(e)
                if ve.a < vs.a or ve.b < vs.b:
                    fast = False
                    break
            if fast:
                m = matrix_of(L, g)
                assert is_integral_matrix(m) and gram_preserved(L, m)


def test_matrix_is_built_once_per_lattice(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    g = random_symmetry(L, random.Random(3))
    m = matrix_of(L, g)
    assert in_unitary_group(L, g) and matrix_of(L, g) is m
    # another lattice object gets its own build, equal here since the Gram is
    L2 = HermitianLattice(Q2sqrt2, L.gram)
    m2 = matrix_of(L2, g)
    assert m2 is not m and mat_eq(m2, m) and matrix_of(L2, g) is m2


# -- membership from the generator's data ------------------------------------

# algebra name -> (p, unramified polynomial, b, c) of E = K[x]/(x^2 + bx + c);
# b None for the split algebra K x K
MEMBERSHIP_ALGEBRAS = {
    "Q2(i)": (2, None, 2, 2),
    "Q2(sqrt2)": (2, None, 0, -2),
    "Q3(sqrt3)": (3, None, 0, -3),
    "inert Q2": (2, None, 1, 1),
    "split2": (2, None, None, None),
    "F4-ramified": (2, (1, 1), 0, -2),
}


@lru_cache(maxsize=None)
def _membership_lattice(name, precision):
    """H(0) ⟂ <2> over the named algebra, at the given precision."""
    p, upoly, b, c = MEMBERSHIP_ALGEBRAS[name]
    K = LocalField(p, unramified_poly=upoly, precision=precision)
    alg = EtaleAlgebra.split(K) if b is None else EtaleAlgebra.quadratic(K, b, c)
    return orthogonal_sum(standard_H(alg, 0),
                          HermitianLattice(alg, ((alg.from_int(2),),)))


def _skew(alg, k):
    """A nonzero skew element, eta * p^k."""
    return alg.eta() * alg.from_K(alg.base.uniformizer_pow(k))


def _eichler_on_pair(lat, u, v, y):
    """E_y^mu on the pair (u, v), mu = -<y,y> rho / <u,v> (Tr(rho) = 1)."""
    mu = lat.alg.from_K(-lat.q_value(y)) * lat.alg.rho() / lat.inner(u, v)
    return make_eichler(lat, u, v, y, mu)


@st.composite
def perturbed_generators(draw):
    """(L, g) for L = H(0) ⟂ <2>: a symmetry on a random vector with a sigma
    of the right trace, a symmetry S_{u,omega} on the isotropic u of the
    hyperbolic pair with skew omega, or an Eichler isometry on that pair
    with y a multiple of a random vector of the complement; or one of these
    perturbed: sigma off by pi^k, s scaled by pi^-1, mu off by a unit, or y
    moved off u^perp (mu solved again, so that only <y,u> = 0 fails).
    None of them is filtered by a membership test."""
    lat = _membership_lattice(draw(st.sampled_from(sorted(MEMBERSHIP_ALGEBRAS))),
                              draw(st.sampled_from((8, 64))))
    alg = lat.alg
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(-2, 4))
    u, v, _ = splits_hyperbolic(lat)
    shape = draw(st.sampled_from(("symmetry", "isotropic", "eichler")))
    if shape == "eichler":
        raw = random_vector(lat, rng)
        gu, gv = lat.gram_conj(u), lat.gram_conj(v)
        y = vec_sub(raw, vec_add(vec_scale(_dot(raw, gu) / _dot(v, gu), v),
                                 vec_scale(_dot(raw, gv) / _dot(u, gv), u)))
        y = vec_scale(alg.uniformizer_pow(draw(st.integers(0, 2))), y)
        how = draw(st.sampled_from(("none", "mu", "y")))
        if how == "y":
            return lat, _eichler_on_pair(
                lat, u, v, vec_add(y, vec_scale(alg.uniformizer_pow(k), v)))
        e = _eichler_on_pair(lat, u, v, y)
        if how == "mu":
            units = [lam for lam in alg.base.residue_lifts() if not lam.is_zero()]
            e = EichlerIsometry(u, v, y, e.mu + alg.from_K(rng.choice(units)))
        return lat, e
    if shape == "isotropic":
        g = Symmetry(u, _skew(alg, k))
    else:
        s = random_vector(lat, rng)
        qs = lat.inner(s, s)
        assume(not qs.is_zero())
        g = Symmetry(s, rng.choice(list(oracle._sigma_candidates(lat, qs, rng))))
    how = draw(st.sampled_from(("none", "sigma", "s")))
    if how == "sigma":
        g = Symmetry(g.s, g.sigma + alg.uniformizer_pow(k))
    elif how == "s":
        g = Symmetry(vec_scale(alg.uniformizer_pow(-1), g.s), g.sigma)
    return lat, g


def _unbuilt(g):
    """The same generator, with no matrix built yet."""
    if isinstance(g, Symmetry):
        return Symmetry(g.s, g.sigma)
    return EichlerIsometry(g.u, g.v, g.y, g.mu)


def _outcome(test, lat, g):
    try:
        return test(lat, _unbuilt(g))
    except HermlatError as ex:
        return type(ex)


def _membership_by(lat, g):
    """in_unitary_group on an unbuilt copy of g, and which test decided the
    integrality of its matrix: its terms, or the matrix they fell back to."""
    g = _unbuilt(g)
    try:
        member = in_unitary_group(lat, g)
    except HermlatError as ex:
        return type(ex), "raised"
    return member, "terms" if g._built[1][0] is None else "matrix"


def _matrix_test(lat, g):
    m = matrix_of(lat, g)
    return is_integral_matrix(m) and gram_preserved(lat, m)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(perturbed_generators())
def test_membership_agrees_with_the_matrix_test(case):
    """in_unitary_group decides from the generator's identity and the
    integrality read off its terms, or its matrix when they may cancel,
    exactly what the O(n^3) test decides on the matrix, raised exceptions
    included."""
    lat, g = case
    want = _outcome(_matrix_test, lat, g)
    got, by = _membership_by(lat, g)
    event(f"{type(g).__name__}: {getattr(want, '__name__', want)} by {by}")
    assert got == want


def test_cancelling_eichler_terms_fall_back_to_the_matrix(Q2sqrt2):
    """E_y^mu on the pair (e1, e2) of H(0) ⟂ <2> with y = e1/2 and mu = sqrt2
    (skew): both terms have a denominator 2, but <x, y> = <x, e1>/2 and
    <u,v> = <v,u> = 1, so they cancel to x -> x + sqrt2 <x,e1> e1, which is
    integral.  The terms cannot decide, the matrix does, and the isometry is
    in U(L)."""
    L = _membership_lattice("Q2(sqrt2)", 64)
    alg = L.alg
    u, v = basis_vector(alg, 3, 0), basis_vector(alg, 3, 1)
    e = make_eichler(L, u, v, vec_scale(alg.one / alg.from_int(2), u), alg.gen())
    assert _terms_integral(alg, _build(L, e)[2]) is None
    assert _membership_by(L, e) == (True, "matrix")
    assert _matrix_test(L, e)


def test_eichler_data_on_an_anisotropic_u_are_rejected(Q2sqrt2):
    """u = e1 + 2 e3 on H(0) ⟂ <2>, y = e3 - 4 e2 and mu = -1: <y,u> = 0,
    Tr(mu <u,v>) = -<y,y> and the matrix is integral, but <u,u> = 8, so the
    map is no isometry."""
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    e1, e2, e3 = (basis_vector(Q2sqrt2, 3, i) for i in range(3))
    u = vec_add(e1, vec_scale(Q2sqrt2.from_int(2), e3))
    y = vec_sub(e3, vec_scale(Q2sqrt2.from_int(4), e2))
    e = make_eichler(L, u, e2, y, Q2sqrt2.from_int(-1))
    assert L.inner(y, u).is_zero() and is_integral_matrix(matrix_of(L, e))
    assert not gram_preserved(L, matrix_of(L, e))
    assert not in_unitary_group(L, e)


# -- the rewriting identities that are not re-checked at run time ------------

# catalog lattices with a hyperbolic pair in the seeded changes of basis
PAIR_LATTICES = ("f4ram", "inert2", "q2i-h", "q2i-h1h1", "q2sqrt2-h1h1",
                 "ram3", "split2h", "split3")


@lru_cache(maxsize=None)
def _catalog_lattice(name):
    with open(hermlat.catalog_path(name + ".lat")) as fh:
        return parse_lattice(fh.read())


@lru_cache(maxsize=None)
def _changed_basis(name, seed):
    """The catalog lattice in a seeded GL_n(O) basis, so that its hyperbolic
    pair is whatever the search finds there, not a standard one."""
    return _basis_change(_catalog_lattice(name),
                         random.Random(f"identities:{name}:{seed}"))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PAIR_LATTICES), st.integers(0, 2), st.integers(0, 2 ** 32 - 1),
       st.integers(-1, 3))
def test_eichler_rewrites_are_identities(name, basis, seed, k):
    """compose_eichler, twist_by_skew, the shear and two-symmetry rules and
    eichler_to_symmetries (on members of U(L)) return what they claim,
    matrix for matrix."""
    lat = _changed_basis(name, basis)
    alg = lat.alg
    rng = random.Random(seed)
    e1, e2 = oracle.random_eichler(lat, rng), oracle.random_eichler(lat, rng)
    assume(e1 is not None and e2 is not None)
    m1 = matrix_of(lat, e1)
    u, v = e1.u, e1.v
    puv, pvu = lat.inner(u, v), lat.inner(v, u)
    assert mat_eq(mat_mul(m1, matrix_of(lat, e2)),
                  matrix_of(lat, compose_eichler(lat, e1, e2)))
    omega = _skew(alg, k)
    assert mat_eq(mat_mul(matrix_of(lat, Symmetry(u, omega)), m1),
                  matrix_of(lat, twist_by_skew(lat, e1, omega)))
    mu = e1.mu
    if not (mu.x0.is_zero() or mu.x1.is_zero() if alg.kind == EtaleAlgebra.SPLIT
            else mu.is_zero()):
        assert mat_eq(apply_word(lat, _two_symmetries(e1, puv, pvu), identity(alg, lat.n)),
                      m1)
    shear = make_eichler(lat, u, v, (alg.zero,) * lat.n, omega / puv)
    (s,) = _reduce_eichler(lat, shear, 1)
    assert mat_eq(matrix_of(lat, s), matrix_of(lat, shear))
    for e in (e1, e2, shear):
        if not in_unitary_group(lat, e):
            continue
        syms = eichler_to_symmetries(lat, e)
        event(f"{name}: {'kept' if syms is None else 'rewritten'}")
        if syms is not None:
            assert mat_eq(apply_word(lat, syms, identity(alg, lat.n)), matrix_of(lat, e))


# -- one update form per generator -------------------------------------------

CATALOG = tuple(os.path.basename(path)[:-4] for path in hermlat.catalog_files())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CATALOG), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_update_terms_act_as_the_matrix(name, seed, k):
    """apply_generator and apply_word, which act through a generator's
    update terms, agree with its matrix on vectors and matrices over O, for
    random symmetries and, where the lattice has a pair, Eichler isometries."""
    lat = _catalog_lattice(name)
    rng = random.Random(seed)
    word = []
    for _ in range(k):
        g = oracle.random_eichler(lat, rng) if rng.random() < 0.5 else None
        word.append(g if g is not None else random_symmetry(lat, rng))
    event(f"{name}: {''.join(type(g).__name__[0] for g in word)}")
    x = random_vector(lat, rng)
    m = mat_from_cols([random_vector(lat, rng) for _ in range(lat.n)])
    for g in word:
        assert vec_eq(apply_generator(lat, g, x), mat_vec(matrix_of(lat, g), x))
        assert mat_eq(apply_word(lat, [g], m), mat_mul(matrix_of(lat, g), m))
    prod = identity(lat.alg, lat.n)
    for g in word:
        prod = mat_mul(prod, matrix_of(lat, g))
    assert mat_eq(apply_word(lat, word, identity(lat.alg, lat.n)), prod)

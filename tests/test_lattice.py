import gc
import itertools
import random
import weakref

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hermlat import classify, lattice
from hermlat.errors import HermlatError
from hermlat.etale import INF, NONNORM, NORM, EtaleAlgebra
from hermlat.lattice import (
    HermitianLattice,
    _complement,
    _gram_of,
    orthogonal_sum,
    standard_A,
    standard_H,
    standard_Hik,
)
from hermlat.linalg import (
    _dot,
    basis_vector,
    cols_of,
    identity,
    mat_det,
    mat_eq,
    mat_mul,
    mat_vec,
    smith,
)
from hermlat.localfield import FieldElement, LocalField
from test_isometries import CATALOG, _catalog_lattice
from test_kernel_identity import _basis_change, _gl_n_O, exact_key


def _unit_basis_change(lat, rng):
    """A random unimodular basis change (identity plus a nilpotent part)."""
    alg = lat.alg
    K = alg.base
    n = lat.n
    m = [[alg.one if i == j else alg.zero for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = alg.element(K.from_int(rng.randrange(-3, 4)),
                        K.from_int(rng.randrange(-3, 4)))
        for k in range(n):
            m[k][j] = m[k][j] + c * m[k][i]
    return tuple(tuple(row) for row in m)


def transformed(lat, t):
    g = mat_mul(mat_mul(tuple(zip(*t)), lat.gram),
                tuple(tuple(e.conj() for e in row) for row in t))
    return HermitianLattice(lat.alg, g)


def test_inner_examples(Q2sqrt2):
    H0 = standard_H(Q2sqrt2, 0)
    u, v = basis_vector(Q2sqrt2, 2, 0), basis_vector(Q2sqrt2, 2, 1)
    assert H0.inner(u, u).is_zero()
    assert H0.inner(u, v) == Q2sqrt2.one
    from hermlat.linalg import vec_add

    assert H0.q_value(vec_add(u, v)) == 2


def test_scale_norm(Q2sqrt2):
    H1 = standard_H(Q2sqrt2, 1)
    assert H1.scale_exp() == 1
    assert H1.norm_exp() == (1 + Q2sqrt2.e) // 2
    one = HermitianLattice(Q2sqrt2, ((Q2sqrt2.one,),))
    assert one.scale_exp() == 0 and one.norm_exp() == 0
    g = ((Q2sqrt2.from_int(2), Q2sqrt2.from_int(1)),
         (Q2sqrt2.from_int(1), Q2sqrt2.from_int(2)))
    L = HermitianLattice(Q2sqrt2, g)
    assert L.scale_exp() == 0 and L.norm_exp() == 1


def test_scale_norm_inclusions(Q2sqrt2, Q2i, Q3sqrt3):
    # scale * different <= norm * O <= scale
    a_params = {3: (0, 1), 2: (1, 1), 1: (0, 0)}
    for alg in (Q2sqrt2, Q2i, Q3sqrt3):
        ai, ak = a_params[alg.e]
        for L in (standard_H(alg, 0), standard_H(alg, 2),
                  standard_A(alg, ai, ak),
                  HermitianLattice(alg, ((alg.from_int(3),),))):
            s, n = L.scale_exp(), L.norm_exp()
            assert s + alg.e >= alg.vK_in_P(n) >= s


def test_dual(Q2sqrt2, inert3):
    one = HermitianLattice(Q2sqrt2, ((Q2sqrt2.one, Q2sqrt2.zero),
                                     (Q2sqrt2.zero, Q2sqrt2.one)))
    t, gram = one.dual_sublattice(0)
    assert mat_eq(gram, one.gram)
    D = HermitianLattice(inert3, ((inert3.one, inert3.zero),
                                  (inert3.zero, inert3.from_int(3))))
    t, gram = D.dual_sublattice(1)
    assert gram[0][0] == 9 and gram[1][1] == 3
    # A containing the scale gives back L
    t, gram = D.dual_sublattice(0)
    assert mat_eq(gram, D.gram)


def test_is_modular(Q2sqrt2, inert3):
    assert standard_H(Q2sqrt2, 2).is_modular(2)
    D = HermitianLattice(inert3, ((inert3.one, inert3.zero),
                                  (inert3.zero, inert3.from_int(3))))
    assert not D.is_modular(0)
    assert not D.is_modular(1)
    line = HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),))
    assert line.is_modular(2)


def test_jordan_examples(Q2sqrt2, inert3):
    D = HermitianLattice(inert3, ((inert3.one, inert3.zero),
                                  (inert3.zero, inert3.from_int(3))))
    js = D.jordan_split()
    assert js.jordan_type() == ((1, 0, True), (1, 1, True))
    H1 = standard_H(Q2sqrt2, 1)
    assert H1.jordan_split().jordan_type() == ((2, 1, False),)
    g = ((Q2sqrt2.from_int(2), Q2sqrt2.from_int(1)),
         (Q2sqrt2.from_int(1), Q2sqrt2.from_int(2)))
    js2 = HermitianLattice(Q2sqrt2, g).jordan_split()
    assert js2.jordan_type() == ((2, 0, False),)


@pytest.mark.parametrize("mk", [
    lambda alg: standard_H(alg, 1),
    lambda alg: orthogonal_sum(standard_H(alg, 0),
                               HermitianLattice(alg, ((alg.from_int(2),),))),
    lambda alg: orthogonal_sum(standard_A(alg, 1, 1),
                               HermitianLattice(alg, ((alg.from_int(8),),))),
])
def test_jordan_roundtrip(Q2sqrt2, mk):
    L = mk(Q2sqrt2)
    rng = random.Random(7)
    t = _unit_basis_change(L, rng)
    L2 = transformed(L, t)
    js = L2.jordan_split()
    tt = js.transform
    g = mat_mul(mat_mul(tuple(zip(*tt)), L2.gram),
                tuple(tuple(e.conj() for e in row) for row in tt))
    blocks = orthogonal_sum(*(HermitianLattice(L2.alg, b.gram) for b in js.blocks))
    assert mat_eq(g, blocks.gram)


def _split_key(lat):
    split = lat.jordan_split()
    return exact_key({"cols": [blk.cols for blk in split.blocks],
                      "grams": [blk.gram for blk in split.blocks],
                      "transform": split.transform,
                      "dual_norms": lat.dual_norms()})


@pytest.mark.parametrize("name", CATALOG)
def test_the_kept_splitting_equals_a_fresh_one(name):
    """The splitting a lattice keeps is one immutable object, equal bit for
    bit to the splitting of the same Gram built afresh, also after the
    lattice has been decided and searched for a hyperbolic pair; and the
    column groups of its blocks are what ``_jordan_cols`` computes for the
    standard basis, the shortcut of the first arrangement and plan step 0."""
    base = _catalog_lattice(name)
    for lat in [base] + [_basis_change(base, random.Random(f"kept-split:{name}:{k}"))
                         for k in range(3)]:
        split = lat.jordan_split()
        assert lat.jordan_split() is split
        assert isinstance(split.blocks, tuple)
        kept = _split_key(lat)
        classify.isometry_conditions(lat, base)
        classify.splits_hyperbolic(lat)
        assert lat.jordan_split() is split
        assert _split_key(lat) == kept
        assert _split_key(HermitianLattice(lat.alg, lat.gram)) == kept
        ident = list(cols_of(identity(lat.alg, lat.n)))
        assert (exact_key(classify._jordan_cols(lat, ident))
                == exact_key([list(blk.cols) for blk in split.blocks]))


def test_det_class(Q2sqrt2):
    H0 = standard_H(Q2sqrt2, 0)
    v, cls = H0.det_class()
    assert v == 0 and cls == NORM  # det = -1, and -1 is a norm here
    one2 = HermitianLattice(Q2sqrt2, ((Q2sqrt2.one, Q2sqrt2.zero),
                                      (Q2sqrt2.zero, Q2sqrt2.one)))
    assert one2.det_class() == (0, NORM)
    A = standard_A(Q2sqrt2, 0, 1)
    v, cls = A.det_class()
    assert v == 0 and cls == NONNORM  # -(1 + u0) with -1 a norm


def test_det_class_basis_invariance(Q2sqrt2, Q2i):
    rng = random.Random(21)
    for alg in (Q2sqrt2, Q2i):
        for L in (standard_H(alg, 1),
                  orthogonal_sum(standard_H(alg, 0),
                                 HermitianLattice(alg, ((alg.from_int(3),),)))):
            base = L.det_class()
            for _ in range(5):
                assert transformed(L, _unit_basis_change(L, rng)).det_class() \
                    == base


def test_standard_forms(Q2sqrt2):
    H0 = standard_H(Q2sqrt2, 0)
    assert H0.gram[0][0].is_zero() and H0.gram[0][1] == 1
    Hik = standard_Hik(Q2sqrt2, 1, 2)
    assert Hik.gram[0][0] == 4
    assert Hik.gram[1][1].is_zero()
    A = standard_A(Q2sqrt2, 0, 1)
    corner = A.gram[1][1].as_K()
    assert corner.valuation() == Q2sqrt2.e - 1 - 1  # v(u0 p^{-1}) = 1
    with pytest.raises(HermlatError, match=r"A\(0,2\) needs"):
        standard_A(Q2sqrt2, 0, 2)
    with pytest.raises(HermlatError, match=r"H\(0,4\) needs"):
        standard_Hik(Q2sqrt2, 0, 4)


def test_rescale(Q2sqrt2):
    H0 = standard_H(Q2sqrt2, 0)
    assert mat_eq(H0.rescale(1).gram, H0.gram)
    Lp = H0.rescale(2)
    assert Lp.scale_exp() == H0.scale_exp() + Q2sqrt2.vK_in_P(1)
    # unit rescale keeps scale and normality
    Lu = H0.rescale(3)
    assert Lu.scale_exp() == H0.scale_exp()
    assert Lu.is_normal() == H0.is_normal()


def test_normal_flag(Q2sqrt2):
    assert HermitianLattice(Q2sqrt2, ((Q2sqrt2.one,),)).is_normal()
    assert not standard_H(Q2sqrt2, 0).is_normal()
    assert not standard_A(Q2sqrt2, 0, 1).is_normal()


def test_primitive(Q2sqrt2, split2):
    H0 = standard_H(Q2sqrt2, 0)
    u = basis_vector(Q2sqrt2, 2, 0)
    assert H0.is_primitive(u)
    from hermlat.linalg import vec_scale

    assert not H0.is_primitive(vec_scale(Q2sqrt2.gen(), u))
    Ls = HermitianLattice(split2, ((split2.one, split2.zero),
                                   (split2.zero, split2.from_int(2))))
    e1 = basis_vector(split2, 2, 0)
    assert Ls.is_primitive(e1)
    assert not Ls.is_primitive(
        vec_scale(split2.element(split2.base.from_int(2), split2.base.one), e1))


# -- one functional per vector -------------------------------------------------

_Q2 = LocalField(2)
_F4 = LocalField(2, unramified_poly=[1, 1])
HOIST_ALGEBRAS = [
    EtaleAlgebra.split(_Q2),
    EtaleAlgebra.quadratic(_Q2, 1, 1),    # inert
    EtaleAlgebra.quadratic(_Q2, 2, 2),    # Q_2(i)
    EtaleAlgebra.quadratic(_Q2, 0, -2),   # Q_2(sqrt 2)
    EtaleAlgebra.quadratic(_F4, 0, -2),   # over Q_2(w), nbasis 2
]


@st.composite
def _base_elements(draw, fld):
    """Elements of K with p-content, exact zeros, shifts of both signs and
    digit counts from just above the guard to the cap."""
    ncap = draw(st.integers(fld.guard_digits + 1, fld.mcap))
    if draw(st.integers(0, 5)) == 0:
        co = (0,) * fld.nbasis
    else:
        k = draw(st.integers(0, 4))
        co = tuple(draw(st.integers(0, 2 ** 20)) * fld.p ** k for _ in range(fld.nbasis))
    return FieldElement(fld, co, draw(st.integers(-3, 3)), ncap)


@st.composite
def _alg_elements(draw, alg):
    return alg.element(draw(_base_elements(alg.base)), draw(_base_elements(alg.base)))


def _triple(e):
    return [(x.co, x.shift, x.ncap) for x in (e.x0, e.x1)]


def _inner_reference(lat, x, y):
    """<x, y> as inner() computed it before it shared gram_conj(y): the
    functional inline, then a left-to-right sum of the products."""
    gy = mat_vec(lat.gram, tuple(c.conj() for c in y))
    acc = None
    for a, b in zip(x, gy):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_functional_is_bit_identical(data):
    alg = data.draw(st.sampled_from(HOIST_ALGEBRAS))
    n = data.draw(st.integers(1, 3))
    el = _alg_elements(alg)
    upper = {(i, j): data.draw(el) for i in range(n) for j in range(i, n)}
    # hermitian: K-valued diagonal, conjugate-symmetric off the diagonal
    gram = tuple(tuple(alg.from_K(upper[i, i].x0) if i == j
                       else upper[i, j] if i < j else upper[j, i].conj()
                       for j in range(n)) for i in range(n))
    lat = HermitianLattice(alg, gram, _skip_checks=True)
    cols = [tuple(data.draw(el) for _ in range(n))
            for _ in range(data.draw(st.integers(1, 3)))]
    g = _gram_of(lat, cols)
    for i, a in enumerate(cols):
        for j, b in enumerate(cols):
            assert _triple(g[i][j]) == _triple(lat.inner(a, b))
            assert _triple(_dot(a, lat.gram_conj(b))) == _triple(_inner_reference(lat, a, b))


MEMO_LATTICES = ("split2", "inert2", "q2i-h", "q2sqrt2-h0h0", "f4ram")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(MEMO_LATTICES), st.data())
def test_memoised_functional_is_exact(name, data):
    """gram_conj returns the functional that G conj(y) computes, triple for
    triple, on repeated calls, on vectors rebuilt equal in value, and on calls
    interleaved between L and L.rescale(pi): same vectors, another Gram."""
    lat = _catalog_lattice(name)
    alg = lat.alg
    lats = [lat, lat.rescale(alg.base.uniformizer_pow(1))]
    el = _alg_elements(alg)
    vecs = [tuple(data.draw(el) for _ in range(lat.n))
            for _ in range(data.draw(st.integers(1, 4)))]
    for _ in range(data.draw(st.integers(1, 12))):
        m = data.draw(st.sampled_from(lats))
        y = data.draw(st.sampled_from(vecs))
        if data.draw(st.booleans()):
            y = tuple(alg.element(c.x0, c.x1) for c in y)
        want = mat_vec(m.gram, tuple(c.conj() for c in y))
        assert exact_key(m.gram_conj(y)) == exact_key(want)
        assert len(lattice._FUNCTIONALS) <= lattice._FUNCTIONALS_BOUND


def test_functional_memo_is_bounded(Q2sqrt2):
    lat = standard_H(Q2sqrt2, 0)
    for k in range(3 * lattice._FUNCTIONALS_BOUND):
        lat.gram_conj((Q2sqrt2.from_int(k), Q2sqrt2.one))
        assert len(lattice._FUNCTIONALS) <= lattice._FUNCTIONALS_BOUND
    assert len(lattice._FUNCTIONALS) == lattice._FUNCTIONALS_BOUND


def test_functional_memo_lets_a_dropped_lattice_go(Q2sqrt2):
    lat = standard_H(Q2sqrt2, 1)
    for k in range(3):
        lat.gram_conj((Q2sqrt2.one, Q2sqrt2.from_int(k)))
    ref = weakref.ref(lat)
    del lat
    gc.collect()
    assert ref() is None


def test_a_split_lattice_goes_without_the_collector(Q2sqrt2):
    """The splitting and dual norms a lattice keeps refer to its algebra,
    not to the lattice, so dropping a lattice that was split, decided and
    searched for a hyperbolic pair frees it at once, with the cyclic
    collector off."""
    other = _catalog_lattice("q2sqrt2-sub")
    lat = _basis_change(other, random.Random("freed-split"))
    gc.collect()
    gc.disable()
    try:
        lat.jordan_split()
        assert classify.isometry_conditions(lat, other)[0]
        assert lat.dual_norms() == other.dual_norms()
        classify.splits_hyperbolic(lat)
        ref = weakref.ref(lat)
        del lat
        assert ref() is None
    finally:
        gc.enable()


# -- the Smith reduction ---------------------------------------------------------

_Q3 = LocalField(3)
SMITH_RINGS = [
    (_Q2, FieldElement.valuation),
    (_Q3, FieldElement.valuation),
] + [(alg, alg.vP) for alg in (
    EtaleAlgebra.quadratic(_Q2, 1, 1),    # inert
    EtaleAlgebra.quadratic(_Q2, 2, 2),    # Q_2(i)
    EtaleAlgebra.quadratic(_Q2, 0, -2),   # Q_2(sqrt 2)
    EtaleAlgebra.quadratic(_Q3, 0, -3),   # Q_3(sqrt 3)
    EtaleAlgebra.quadratic(_F4, 0, -2),   # over Q_2(w), nbasis 2
)]


@st.composite
def _smith_entries(draw, ring):
    """Zero, or a small integer (or a pair of them over E) times a power of
    the uniformizer."""
    if draw(st.integers(0, 4)) == 0:
        return ring.zero
    if isinstance(ring, LocalField):
        c = ring.from_int(draw(st.integers(-40, 40)))
    else:
        K = ring.base
        c = ring.element(K.from_int(draw(st.integers(-40, 40))),
                         K.from_int(draw(st.integers(-40, 40))))
    return c * ring.uniformizer_pow(draw(st.integers(0, 4)))


def _leibniz_det(t):
    """det t by the Leibniz expansion, for entries of K as well as of E."""
    acc = None
    for perm in itertools.permutations(range(len(t))):
        term = t[0][perm[0]]
        for i in range(1, len(t)):
            term = term * t[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(len(t)) for j in range(i + 1, len(t)))
        if inversions % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_smith_diagonalizes_with_unimodular_transforms(data):
    ring, val = data.draw(st.sampled_from(SMITH_RINGS))
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a = tuple(tuple(data.draw(_smith_entries(ring)) for _ in range(m)) for _ in range(n))
    d, u, w = smith(ring, a, val)
    uaw = mat_mul(mat_mul(u, a), w)
    for i in range(n):
        for j in range(m):
            assert (uaw[i][j] - d[i][j]).is_zero()
            assert i == j or d[i][j].is_zero()
    diag = [INF if d[k][k].is_zero() else val(d[k][k]) for k in range(min(n, m))]
    assert diag == sorted(diag)
    for t in (u, w):
        det = _leibniz_det(t)
        assert not det.is_zero() and val(det) == 0


def test_mat_det_leaves_no_garbage():
    """mat_det keeps its memo of minors in a call frame, not in a closure
    that refers to itself, so the cyclic collector finds nothing after it."""
    gram = _catalog_lattice("q2sqrt2-h0h0").gram
    gc.collect()
    gc.disable()
    try:
        det = mat_det(gram)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert (det - _leibniz_det(gram)).is_zero()


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.sampled_from(CATALOG), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_complement_is_orthogonal_to_the_piece(name, k, seed):
    """_complement of the first k columns of a seeded GL_n(O) basis inside
    the standard basis: n - k vectors, each orthogonal to every vector of
    the piece.  The two vectors of a piece need not pair symmetrically:
    in general <u,v> != <v,u>."""
    lat = _catalog_lattice(name)
    alg = lat.alg
    piece = list(cols_of(_gl_n_O(lat, random.Random(seed))))[:k]
    det = mat_det(_gram_of(lat, piece))
    assume(not (det.x0.is_zero() or det.x1.is_zero()) if alg.kind == EtaleAlgebra.SPLIT
           else not det.is_zero())
    rest = _complement(lat, list(cols_of(identity(alg, lat.n))), piece)
    assert len(rest) == lat.n - k
    assert all(lat.inner(c, p).is_zero() for c in rest for p in piece)

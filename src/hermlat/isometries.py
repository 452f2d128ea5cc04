"""Generators of unitary groups: symmetries and rescaled Eichler isometries.

A symmetry S_{s,sigma} maps x to x - <x,s> sigma^{-1} s and requires
Tr(sigma) = <s,s>.  A rescaled Eichler isometry E_y^mu is attached to a
hyperbolic pair (u, v) splitting the lattice, a vector y in the orthogonal
complement of the pair with <L,y> inside <u,v>O, and mu with
Tr(mu <u,v>) = -<y,y>.

Membership in U(L) is decided from a generator's data in O(n^2).  The
defect <gx,gz> - <x,z> is the residual of the defining identity times a
rank-one form,

    -<x,s><s,z> (Tr(sigma) - <s,s>) / N(sigma)               for S,
    <x,u><u,z> (Tr(mu <u,v>) + <y,y>) / N(<v,u>)   for E with <u,u> = <y,u> = 0,

and an integral isometry has a unit determinant (N(det) = 1), so its inverse
is integral too.  Data that break an identity are rejected, also in the
degenerate cases where the rank-one form vanishes or, for y = 0 and
<u,u> != 0, the matrix is still an isometry.  ``gram_preserved``, O(n^3),
is for bare matrices.

A generator is I + sum w r^T over its update terms (w, r), one for a
symmetry and two for an Eichler isometry (``_build``).  Its action on
vectors (``apply_generator``) and on matrices (``apply_word``) comes from
these terms, made once per lattice and kept with its functionals and, once
decided, its membership verdict (a generator is not changed after
construction).  Its matrix is built from the terms only when
``matrix_of`` asks for it, and then kept too; no word is multiplied out as
matrices.  The integrality half of membership is read off the terms: the
matrix is integral when min v(w) + min v(r) >= 0 for every term (slot by
slot when E is split), since valuations of products add.  For one nonzero
term that is exact both ways; only two terms that fail it, whose products
may cancel, fall back to the matrix.  The rewriting identities
(``compose_eichler``, ``twist_by_skew``) are exact, and
``eichler_to_symmetries`` checks each rewrite once where it is made: each
symmetry's membership, and the word applied to the identity against the
Eichler isometry's matrix.  In the factor driver only the reduction pass
calls it, so every Eichler factor is rewritten there.

Over a split E, U(L) is a congruence subgroup of GL_n(O_K) in the Smith
basis of L, and each invertible rank-one update of I in it is one symmetry;
``eliminate_split`` factors an element by Gaussian elimination over O_K with
them, at most one per column.  It rewrites a split Eichler isometry that no
skew twist brings to a unit mu (residue field F_2), from its matrix.
"""

from __future__ import annotations

from .errors import HermlatError, UnsupportedCase
from .etale import EtaleAlgebra
from .lattice import _project_off
from .linalg import (
    _dot,
    basis_vector,
    cols_of,
    identity,
    is_integral_matrix,
    mat_eq,
    mat_from_cols,
    mat_mul,
    mat_vec,
    vec_add,
    vec_eq,
    vec_scale,
    vec_sub,
)


class Symmetry:
    """Carrier for (s, sigma); the invariant Tr(sigma) = <s,s> is checked by
    make_symmetry, which knows the lattice.  ``_built`` keeps what
    ``_build`` made, with its lattice."""

    __slots__ = ("s", "sigma", "_built")

    def __init__(self, s, sigma):
        self.s = tuple(s)
        self.sigma = sigma
        self._built = None

    def inverse(self):
        return Symmetry(self.s, self.sigma.conj())

    def __repr__(self):
        return f"Symmetry(sigma={self.sigma.str_pair()})"


class EichlerIsometry:
    __slots__ = ("u", "v", "y", "mu", "_built")

    def __init__(self, u, v, y, mu):
        self.u = tuple(u)
        self.v = tuple(v)
        self.y = tuple(y)
        self.mu = mu
        self._built = None

    def inverse(self, lat):
        pair = lat.inner(self.u, self.v)
        qy = lat.inner(self.y, self.y)
        mu2 = -self.mu - (qy / pair)
        return EichlerIsometry(self.u, self.v,
                               tuple(-c for c in self.y), mu2)

    def __repr__(self):
        return f"EichlerIsometry(mu={self.mu.str_pair()})"


def make_symmetry(lat, s, sigma):
    """Symmetry with the invariant Tr(sigma) = <s,s> verified against lat."""
    qs = lat.inner(s, s).as_K()
    if not (sigma.trace() - qs).is_zero():
        raise HermlatError("Tr(sigma) != <s,s>")
    if sigma.is_zero():
        raise HermlatError("sigma = 0")
    return Symmetry(s, sigma)


def apply_generator(lat, g, x):
    """g(x) = x + sum (r.x) w over the update terms (w, r) of g; every
    coefficient is read from the x given."""
    terms = _build(lat, g)[2]
    coeffs = [_dot(x, r) for _, r in terms]
    for c, (w, _) in zip(coeffs, terms):
        x = vec_add(x, vec_scale(c, w))
    return x


def apply_word(lat, word, m):
    """word * m for the word g_1 ... g_k (g_k acts first), one column of m
    at a time through ``apply_generator``."""
    cols = []
    for x in cols_of(m):
        for g in reversed(word):
            x = apply_generator(lat, g, x)
        cols.append(x)
    return mat_from_cols(cols)


def matrix_of(lat, g):
    """The matrix of g on the basis of lat, built from its update terms on
    the first call and kept with them."""
    built = _build(lat, g)
    if built[0] is None:
        m = identity(lat.alg, lat.n)
        for w, r in built[2]:
            m = tuple(tuple(e + rj * wi for e, rj in zip(row, r))
                      for row, wi in zip(m, w))
        built[0] = m
    return built[0]


def _build(lat, g):
    """[matrix, functionals, terms, member] of g on lat, made once per
    lattice and kept in g; ``matrix`` is None until ``matrix_of`` builds it
    and ``member`` until ``in_unitary_group`` decides it.  g is
    I + sum w r^T over its update terms (w, r): (s, -c) for a symmetry,
    c = G conj(s)/sigma; (y, a) and (u, b) for an Eichler isometry,
    a = G conj(u)/<v,u> and b = mu a - G conj(y)/<u,v>.  The functionals
    are G conj(s) of a symmetry, and (G conj(u), G conj(y), <u,v>) of an
    Eichler isometry."""
    if isinstance(g, (Symmetry, EichlerIsometry)) and g._built is not None \
            and g._built[0] is lat:
        return g._built[1]
    alg = lat.alg
    if isinstance(g, Symmetry):
        f = gs = lat.gram_conj(g.s)
        sinv = alg.one / g.sigma
        terms = ((g.s, tuple(-(e * sinv) for e in gs)),)
    elif isinstance(g, EichlerIsometry):
        gu = lat.gram_conj(g.u)
        gy = lat.gram_conj(g.y)
        by_pvu = alg.divider(_dot(g.v, gu))
        puv = lat.inner(g.u, g.v)
        a = tuple(by_pvu(e) for e in gu)
        by_puv = alg.divider(puv)
        b = tuple(g.mu * aj - by_puv(ej) for aj, ej in zip(a, gy))
        f = (gu, gy, puv)
        terms = ((g.y, a), (g.u, b))
    else:
        raise HermlatError(f"not a generator: {g!r}")
    g._built = (lat, [None, f, terms, None])
    return g._built[1]


def det_of(lat, g):
    alg = lat.alg
    if isinstance(g, EichlerIsometry):
        return alg.one
    qs = lat.inner(g.s, g.s)
    if qs.is_zero():
        return alg.one
    return -(g.sigma.conj() / g.sigma)


def gram_preserved(lat, m):
    mt = tuple(zip(*m))
    mc = tuple(tuple(e.conj() for e in row) for row in m)
    return mat_eq(mat_mul(mat_mul(mt, lat.gram), mc), lat.gram)


def in_unitary_group(lat, g_or_matrix):
    """Membership in U(L).  A generator is tested from its data, in O(n^2),
    once per lattice: the integrality of its matrix, from its terms, and its
    defining identity (see the module docstring).  A bare matrix gets the
    exact test: integral, and preserving the Gram."""
    g = g_or_matrix
    if not isinstance(g, (Symmetry, EichlerIsometry)):
        return is_integral_matrix(g) and gram_preserved(lat, g)
    built = _build(lat, g)
    if built[3] is None:
        integral = _terms_integral(lat.alg, built[2])
        if integral is None:
            integral = is_integral_matrix(matrix_of(lat, g))
        built[3] = integral and _defect_vanishes(g, built[1])
    return built[3]


def _terms_integral(alg, terms):
    """Whether I + sum w r^T is integral, read off the valuations of its
    terms: True when min v(w) + min v(r) >= 0 for every term, per slot when
    E is split; False when exactly one term fails it; None when more do,
    as their products may cancel.  A product of nonzero elements is nonzero
    with the sum of their valuations, so the least valuation of w r^T is
    min v(w) + min v(r), and neither I nor integral terms can lift a
    negative one."""
    split = alg.kind == EtaleAlgebra.SPLIT
    failed = 0
    for w, r in terms:
        if split:
            vw, vr = _least_slots(alg, w), _least_slots(alg, r)
            failed += (vw is not None and vr is not None
                       and (vw[0] + vr[0] < 0 or vw[1] + vr[1] < 0))
        else:
            vw = min((alg.vP(x) for x in w if not x.is_zero()), default=None)
            vr = min((alg.vP(x) for x in r if not x.is_zero()), default=None)
            failed += vw is not None and vr is not None and vw + vr < 0
    if failed > 1:
        return None
    return not failed


def _least_slots(alg, vec):
    """The least valuation in each slot over the nonzero entries of vec
    (INF for a slot that is zero throughout), or None when vec is zero."""
    vals = [alg.valuation_P(x) for x in vec if not x.is_zero()]
    if not vals:
        return None
    return min(v.a for v in vals), min(v.b for v in vals)


def _defect_vanishes(g, f):
    """Whether <gx,gz> = <x,z> for all x, z, by the defect formulas of the
    module docstring; f are g's functionals from ``_build``."""
    if isinstance(g, Symmetry):
        return (g.sigma.trace() - _dot(g.s, f).as_K()).is_zero()
    gu, gy, puv = f
    # <v,u> is invertible in E (nonzero, and no zero divisor when E is
    # split), or the matrix, which divides by it, could not have been
    # built; so <x,u><u,z> is not the zero form
    return (_dot(g.u, gu).is_zero() and _dot(g.y, gu).is_zero()
            and ((g.mu * puv).trace() + _dot(g.y, gy).as_K()).is_zero())


def reflection_data(lat, x, target):
    """(s, sigma) = (x - target, <x, s>): when <x,x> = <target,target> and
    sigma is nonzero, S_{s,sigma} maps x to target."""
    s = vec_sub(x, target)
    return s, lat.inner(x, s)


def compose_eichler(lat, e1, e2):
    """E1 ∘ E2 for Eichler isometries on the same hyperbolic pair."""
    if not (vec_eq(e1.u, e2.u) and vec_eq(e1.v, e2.v)):
        raise HermlatError("different hyperbolic pairs")
    puv = lat.inner(e1.u, e1.v)
    mu = e1.mu + e2.mu - lat.inner(e2.y, e1.y) / puv
    return EichlerIsometry(e1.u, e1.v, vec_add(e1.y, e2.y), mu)


def twist_by_skew(lat, e, omega):
    """S_{u,omega} ∘ E_y^mu = E_y^(mu - <v,u>/omega) for skew omega."""
    if omega.is_zero() or not omega.trace().is_zero():
        raise HermlatError("omega must be a nonzero skew element")
    return EichlerIsometry(e.u, e.v, e.y, e.mu - lat.inner(e.v, e.u) / omega)


def make_eichler(lat, u, v, y, mu=None):
    """Eichler isometry on the pair (u, v); solves for mu when not given."""
    alg = lat.alg
    puv = lat.inner(u, v)
    qy = lat.inner(y, y).as_K()
    if mu is None:
        mu = alg.solve_trace(puv, -qy)
    tri = (mu * puv).trace() + qy
    if not tri.is_zero():
        raise HermlatError("Tr(mu <u,v>) != -<y,y>")
    return EichlerIsometry(u, v, y, mu)


def _pair_scale(alg, puv):
    v = alg.valuation_P(puv)
    if v.a != v.b:
        raise HermlatError("pair product ideal is not conjugation-stable")
    return v.a


def eliminate_split(lat, phi, emit):
    """Reduce phi in U(L), E = K x K, to the identity by elimination in the
    Smith basis t_1..t_n of L (the columns of its Jordan transform), one
    symmetry per column at most: ``emit(g, phi)`` takes each symmetry g and
    returns g*phi, and the phi left is returned.

    The basis is orthogonal with <t_i, t_i>.x0 = d_i, so slot 0 of U(L) is
    the congruence group of the P in GL_n(O_K) with D^-1 P^-T D integral,
    D = diag(d), and slot 1 follows from slot 0.  Column j of phi has
    Smith coordinates x_i = <phi t_j, t_i>.x0 / d_i.  Unless x = e_j, the
    symmetry acting on slot 0 as I + (e_j - x) r^T takes x to e_j and fixes
    e_i for i < j: r = e_j / x_j, or r = (e_j + e_k) / (x_j + x_k) when x_j
    is not a unit, x_k a unit with k > j and v(d_k) = v(d_j).  Such a k
    exists because the diagonal blocks of the group are invertible mod p,
    and either r keeps the symmetry in the group.  With den = x_j, or
    x_j + x_k in the second case, its data in Smith coordinates are
    s = (e_j - x, e_j [+ (d_j / d_k) e_k]) and sigma = (-d_j den, d_j)."""
    alg, n = lat.alg, lat.n
    t = lat.jordan_split().transform
    basis = cols_of(t)
    fs = [lat.gram_conj(b) for b in basis]
    ds = [_dot(b, f).x0 for b, f in zip(basis, fs)]
    for j, tj in enumerate(basis):
        img = mat_vec(phi, tj)
        ej = [alg.base.one if i == j else alg.base.zero for i in range(n)]
        x = [_dot(img, f).x0 / d for f, d in zip(fs, ds)]
        s0 = [e - xi for e, xi in zip(ej, x)]
        if all(c.is_zero() for c in s0):
            continue
        s1, den = ej, x[j]
        if not den.is_unit():
            vj = ds[j].valuation()
            k = next((k for k in range(j + 1, n)
                      if x[k].is_unit() and ds[k].valuation() == vj), None)
            if k is None:
                raise UnsupportedCase("no unit pivot in the column's Jordan block")
            den = den + x[k]
            s1[k] = ds[j] / ds[k]
        s = mat_vec(t, tuple(alg.element(a, b) for a, b in zip(s0, s1)))
        phi = emit(Symmetry(s, alg.element(-(ds[j] * den), ds[j])), phi)
    return phi


def eichler_to_symmetries(lat, e):
    """Rewrite a rescaled Eichler isometry of L as a product of symmetries.

    Returns the list, each member tested to lie in U(L), whose product is
    checked to equal the matrix of e, or None in the ramified dyadic
    residue-two case when no rewriting rule applies.  The rewrite recurses
    at most 10 times."""
    out = _reduce_eichler(lat, e, 10)
    if out is None:
        return None
    if not all(in_unitary_group(lat, g) for g in out):
        raise UnsupportedCase("reduction produced a non-member symmetry")
    if not mat_eq(apply_word(lat, out, identity(lat.alg, lat.n)), matrix_of(lat, e)):
        raise UnsupportedCase("rewrite does not reproduce the Eichler isometry")
    return out


def _reduce_eichler(lat, e, fuel):
    alg = lat.alg
    if fuel <= 0:
        raise UnsupportedCase("Eichler reduction recursion exhausted")
    u, v, y, mu = e.u, e.v, e.y, e.mu
    puv = lat.inner(u, v)
    pvu = lat.inner(v, u)

    if all(c.is_zero() for c in y):
        if mu.is_zero():
            return []
        return [Symmetry(u, -(pvu / mu))]

    if mu.is_unit():
        return _two_symmetries(e, puv, pvu)

    if alg.kind != EtaleAlgebra.RAMIFIED:
        return _reduce_unramified(lat, e, fuel)
    return _reduce_ramified(lat, e, fuel)


def _two_symmetries(e, puv, pvu):
    """[S1, S2] with S1 ∘ S2 = E_y^mu: S1 = S_{mu u + y, -conj(mu)<v,u>} and
    S2 = S_{y, -mu<u,v>}, for invertible mu."""
    mu = e.mu
    return [Symmetry(vec_add(vec_scale(mu, e.u), e.y), -(mu.conj() * pvu)),
            Symmetry(e.y, -(mu * puv))]


def _twist_and_recurse(lat, e, omega, fuel):
    e2 = twist_by_skew(lat, e, omega)
    rest = _reduce_eichler(lat, e2, fuel - 1)
    if rest is None:
        return None
    return [Symmetry(e.u, -omega)] + rest


def _reduce_unramified(lat, e, fuel):
    alg = lat.alg
    K = alg.base
    puv = lat.inner(e.u, e.v)
    pvu = lat.inner(e.v, e.u)
    i = _pair_scale(alg, puv)
    # skew elements of valuation i with a free unit multiple
    for lam in K.residue_lifts():
        if lam.is_zero():
            continue
        if alg.kind == EtaleAlgebra.SPLIT:
            a = lam * K.uniformizer_pow(i)
            omega = alg.element(a, -a)
        else:
            omega = alg.eta() * alg.from_K(lam * K.uniformizer_pow(i))
        mu2 = e.mu - pvu / omega
        if mu2.is_unit():
            return _twist_and_recurse(lat, e, omega, fuel)
    if alg.kind != EtaleAlgebra.SPLIT:
        raise UnsupportedCase("no unit-producing skew twist found (inert)")
    # split residue field F_2, mu congruent to the twist unit in one slot:
    # eliminate the matrix of e
    out = []

    def record(g, m):
        out.append(g.inverse())
        return apply_word(lat, [g], m)

    eliminate_split(lat, matrix_of(lat, e), record)
    return out


def _reduce_ramified(lat, e, fuel):
    alg = lat.alg
    puv = lat.inner(e.u, e.v)
    pvu = lat.inner(e.v, e.u)
    i = _pair_scale(alg, puv)
    e_exp = alg.e

    # (e): <y, L> strictly inside P^i
    wl = None
    for k in range(lat.n):
        q = lat.inner(e.y, basis_vector(alg, lat.n, k))
        if q.is_zero():
            continue
        vq = alg.vP(q)
        wl = vq if wl is None else min(wl, vq)
    if wl is not None and wl > i:
        if not e.mu.is_zero() and alg.vP(e.mu) <= 1:
            s1, s2 = _two_symmetries(e, puv, pvu)
            if in_unitary_group(lat, s2):
                return [s1, s2]
        for t in (i, i - 1):
            if (t - e_exp) % 2 == 0:
                omega = alg.special_skew(t)
                return _twist_and_recurse(lat, e, omega, fuel)

    # (c): matching parity lets a skew twist shift mu to a unit
    if (i - e_exp) % 2 == 0:
        omega = alg.special_skew(i)
        mu2 = e.mu - pvu / omega
        if mu2.is_unit():
            return _twist_and_recurse(lat, e, omega, fuel)
        raise UnsupportedCase("parity twist failed to produce a unit")

    if alg.base.q >= 4:
        return _split_vector_reduction(lat, e, fuel)
    return None


def _split_vector_reduction(lat, e, fuel):
    """Residue field >= 4: split y into two pieces whose form values generate
    the full trace ideal, reduce each piece through the unit case."""
    alg = lat.alg
    K = alg.base
    u, v, w = e.u, e.v, e.y
    gu, gv = lat.gram_conj(u), lat.gram_conj(v)
    puv = _dot(u, gv)
    pvu = _dot(v, gu)
    i = _pair_scale(alg, puv)
    t_exp = alg.trace_ideal(i)

    t_vec = None
    for m in _project_off(lat, lat.basis(), [u, v]):
        q = lat.inner(w, m)
        if q.is_zero():
            continue
        if alg.trace_ideal_of(q) == t_exp:
            lam = alg.solve_trace(q, K.uniformizer_pow(t_exp))
            cand = vec_scale(lam.conj(), m)
            val = lat.inner(w, cand).trace()
            if not val.is_zero() and val.valuation() == t_exp:
                t_vec = cand
                break
    if t_vec is None:
        raise UnsupportedCase("no trace-attaining partner for the split step")

    zeta = None
    for lam in K.residue_lifts():
        if lam.is_zero() or (lam - 1).is_zero():
            continue
        if lam.residue() != tuple([0] * K.f) and (lam - 1).valuation() == 0:
            zeta = lam
            break
    if zeta is None:
        raise UnsupportedCase("residue field too small for the zeta scan")

    qt = lat.q_value(t_vec)
    trwt = lat.inner(w, t_vec).trace()
    vqt = None if qt.is_zero() else qt.valuation()
    if vqt is not None and vqt < t_exp:
        j = t_exp - vqt
        wp = vec_add(w, vec_scale(alg.uniformizer_pow(j), t_vec))
    elif vqt is None or vqt > t_exp:
        wp = vec_add(vec_scale(alg.from_K(zeta), w), t_vec)
    else:
        theta = trwt / qt
        alpha = None
        for lam in K.residue_lifts():
            if lam.is_zero():
                continue
            c1 = lam + zeta * theta
            c2 = lam + (zeta - 1) * theta
            if (not c1.is_zero() and c1.valuation() == 0
                    and not c2.is_zero() and c2.valuation() == 0):
                alpha = lam
                break
        if alpha is None:
            raise UnsupportedCase("no alpha avoiding both residue constraints")
        wp = vec_add(vec_scale(alg.from_K(zeta), w),
                     vec_scale(alg.from_K(alpha), t_vec))

    w2 = vec_sub(w, wp)
    for piece in (wp, w2):
        qp = lat.q_value(piece)
        if qp.is_zero() or qp.valuation() != t_exp:
            raise UnsupportedCase("split piece misses the trace ideal exactly")
    mu1 = alg.solve_trace(puv, -lat.q_value(wp))
    mu2 = alg.solve_trace(puv, -lat.q_value(w2))
    e1 = EichlerIsometry(u, v, wp, mu1)
    e2 = EichlerIsometry(u, v, w2, mu2)
    estar = compose_eichler(lat, e2, e1)
    head = []
    dmu = estar.mu - e.mu
    if not dmu.is_zero():
        omega = pvu / dmu
        if not omega.trace().is_zero():
            raise UnsupportedCase("connection element is not skew")
        head = [Symmetry(u, omega)]
    r1 = _reduce_eichler(lat, e2, fuel - 1)
    r2 = _reduce_eichler(lat, e1, fuel - 1)
    if r1 is None or r2 is None:
        return None
    return head + r1 + r2

"""Hermitian lattices over a quadratic etale algebra, given by Gram matrices.

A lattice is a free O-module with a non-degenerate hermitian form; the Gram
matrix is taken with respect to the standard basis.  Sublattices are always
described by transform matrices (columns = new basis vectors in the original
coordinates), never by generating sets: O is local, so finitely generated
torsion-free modules are free.

Every pairing <x, y> goes through one functional, ``gram_conj(y) = G
conj(y)``, which is memoised in ``_FUNCTIONALS``: the key is the lattice's
id and the exact ``(co, shift, ncap)`` of both coordinates of each entry of
y, the value the functional with a weak reference to the lattice, and
beyond ``_FUNCTIONALS_BOUND = 64`` entries the oldest is dropped.  A hit
needs the reference to be the lattice itself: the memo keeps no lattice
alive, and a recycled id misses.  The functional is a pure function of those
triples and the lattice, so a hit returns what the computation would, bit
for bit.

The Jordan splitting (``jordan_split``) and the norms of the duals at its
block scales (``dual_norms``) are computed once per lattice object, lazily on
the first call, and kept on the lattice like its determinant: they depend on
L alone, every caller reads the same immutable value (the blocks are a tuple,
their columns and Grams tuples), and they live exactly as long as the
lattice.  Nothing is computed when a lattice is built, and a computation that
raises keeps nothing.  Four more slots are kept so, none holding the
lattice: ``classify`` fills ``standard_span`` and the answer of
``splits_hyperbolic``; ``factorize`` extends the chain of hyperbolic pairs
that stalled descents peel (``_chain``) and, on split kinds, the plan of
its peel driver's steps (``_plan``).  ``_FUNCTIONALS`` caches a
function of (L, y), not of L, so it is no slot.
"""

from __future__ import annotations

import weakref
from itertools import combinations

from .errors import HermlatError, UnsupportedCase
from .etale import INF, EtaleAlgebra
from .linalg import (
    _dot,
    basis_vector,
    conj_transpose,
    cols_of,
    identity,
    mat_det,
    mat_eq,
    mat_from_cols,
    mat_mul,
    mat_inv,
    mat_vec,
    smith,
    vec_add,
    vec_scale,
    vec_sub,
)

_FUNCTIONALS = {}
_FUNCTIONALS_BOUND = 64


class HermitianLattice:
    def __init__(self, alg, gram, _skip_checks=False):
        self.alg = alg
        self.gram = tuple(tuple(row) for row in gram)
        self.n = len(self.gram)
        if self.n and not _skip_checks:
            if any(len(row) != self.n for row in self.gram):
                raise HermlatError("Gram matrix must be square")
            if not mat_eq(self.gram, conj_transpose(self.gram)):
                raise HermlatError("Gram matrix is not hermitian")
            det = mat_det(self.gram)
            if det.is_zero():
                raise HermlatError("lattice is degenerate at working precision")
            self._det = det
        else:
            self._det = None
        self._split = None
        self._dual_norms = None
        self._span = None  # classify.standard_span
        self._hyperbolic = None  # (classify.splits_hyperbolic's answer,)
        self._chain = []  # factorize._pair_chain: pairs found so far, None at its end
        self._plan = []  # factorize's peel steps planned so far (split kinds)

    # -- basic maps ----------------------------------------------------------

    def gram_conj(self, y):
        """The functional G conj(y) of y: <x, y> = dot(x, gram_conj(y)).

        Memoised in ``_FUNCTIONALS`` by this lattice and the exact
        ``(co, shift, ncap)`` of y's coordinates, so a vector rebuilt equal
        in value gets the functional computed the first time."""
        # Triples, not one flat tuple of 6n + 1 items: freed tuples of such a
        # length pile up on CPython's tuple free list (up to 2,000 per
        # length), about 1 MB of peak RSS on the unramified benchmark.
        key = (id(self), *[(x.co, x.shift, x.ncap) for c in y for x in (c.x0, c.x1)])
        hit = _FUNCTIONALS.get(key)
        if hit is not None and hit[0]() is self:
            return hit[1]
        gy = mat_vec(self.gram, tuple(c.conj() for c in y))
        if hit is None and len(_FUNCTIONALS) >= _FUNCTIONALS_BOUND:
            del _FUNCTIONALS[next(iter(_FUNCTIONALS))]
        _FUNCTIONALS[key] = (weakref.ref(self), gy)
        return gy

    def inner(self, x, y):
        """<x, y> = x^T G conj(y); E-linear in x.

        This is the one definition, ``_dot(x, self.gram_conj(y))``.  Pairing
        several vectors against the same y computes gram_conj(y) once: the
        memo in gram_conj returns it again.  A caller that holds the
        functional reuses it through ``_dot``, keeping the argument order:
        the left factor is the vector, the right one the functional, summed
        left to right.  At capped precision <x, y> and conj(<y, x>) can
        differ in their last digits or precision count, and so can a sum
        that skips an exact-zero product, so neither shortcut stands in for
        inner().
        """
        return _dot(x, self.gram_conj(y))

    def q_value(self, x):
        """<x, x>, returned as an element of K."""
        return self.inner(x, x).as_K()

    def det(self):
        if self._det is None:
            self._det = mat_det(self.gram)
        return self._det

    def basis(self):
        return [basis_vector(self.alg, self.n, i) for i in range(self.n)]

    def is_primitive(self, x):
        """O x = E x ∩ L, i.e. the coordinates generate the unit ideal."""
        alg = self.alg
        if alg.kind == EtaleAlgebra.SPLIT:
            ok0 = any(not c.x0.is_zero() and c.x0.valuation() == 0 for c in x)
            ok1 = any(not c.x1.is_zero() and c.x1.valuation() == 0 for c in x)
            return ok0 and ok1
        return any(not c.is_zero() and alg.vP(c) == 0 for c in x)

    # -- scale / norm / determinant -------------------------------------------

    def scale_ideal(self):
        if self.n == 0:
            raise HermlatError("scale of the zero lattice")
        alg = self.alg
        acc = None
        for row in self.gram:
            for e in row:
                if e.is_zero():
                    continue
                v = alg.valuation_P(e)
                acc = v if acc is None else acc.join(v)
        if acc is None:
            raise HermlatError("zero Gram matrix")
        return acc.join(acc.conj())

    def scale_exp(self):
        return self.scale_ideal().exponent()

    def norm_exp(self):
        """Exponent of norm(L) as an o-ideal (v_p units)."""
        if self.n == 0:
            raise HermlatError("norm of the zero lattice")
        return _norm_exp_of_gram(self.alg, self.gram)

    def is_normal(self):
        """norm(L) O == scale(L)."""
        return self.alg.vK_in_P(self.norm_exp()) == self.scale_exp()

    def det_class(self):
        """(v_p(det), norm class of the unit part)."""
        det = self.det().as_K()
        v = det.valuation()
        unit = det / self.alg.base.uniformizer_pow(v)
        return v, self.alg.norm_class(unit)

    # -- duals and modularity ----------------------------------------------------

    def dual_sublattice(self, a_exp):
        """L^A for A = P^a: columns of the returned transform span
        {x in L : <x, L> ⊆ P^a}; also returns its Gram.

        Accepts a plain exponent or a conjugation-stable IdealExp."""
        if hasattr(a_exp, "exponent"):
            a_exp = a_exp.exponent()
        alg = self.alg
        n = self.n
        gt = tuple(tuple(self.gram[i][j] for i in range(n)) for j in range(n))
        if alg.kind == EtaleAlgebra.SPLIT:
            t0 = _dual_basis(alg.base, [[e.x0 for e in row] for row in gt], a_exp, _vK)
            t1 = _dual_basis(alg.base, [[e.x1 for e in row] for row in gt], a_exp, _vK)
            t = tuple(tuple(alg.element(t0[i][j], t1[i][j]) for j in range(n))
                      for i in range(n))
        else:
            t = _dual_basis(alg, gt, a_exp, alg.vP)
        gram = mat_mul(mat_mul(tuple(zip(*t)), self.gram),
                       tuple(tuple(e.conj() for e in row) for row in t))
        return t, gram

    def is_modular(self, i):
        if self.n == 0:
            return True
        alg = self.alg
        for row in self.gram:
            for e in row:
                if e.is_zero():
                    continue
                v = alg.valuation_P(e)
                if min(v.a, v.b) < i:
                    return False
        det = self.det().as_K()
        return alg.vK_in_P(det.valuation()) == self.n * i

    # -- rescaling -----------------------------------------------------------------

    def rescale(self, a):
        if isinstance(a, int):
            a = self.alg.base.from_int(a)
        ae = self.alg.from_K(a)
        return HermitianLattice(
            self.alg, tuple(tuple(e * ae for e in row) for row in self.gram))

    # -- Jordan splitting --------------------------------------------------------

    def jordan_split(self):
        """The Jordan splitting of L, computed on the first call and kept on
        the lattice: every later call returns the same object.  A split
        that raises keeps nothing."""
        if self._split is None:
            if self.n == 0:
                self._split = JordanSplitting((), ())
            elif self.alg.kind == EtaleAlgebra.SPLIT:
                self._split = self._jordan_split_split()
            else:
                self._split = self._jordan_split_field()
        return self._split

    def dual_norms(self):
        """Norm exponent of L^(P^s) for the scale P^s of each Jordan block,
        computed on the first call and kept like the splitting."""
        if self._dual_norms is None:
            self._dual_norms = tuple(
                _norm_exp_of_gram(self.alg, self.dual_sublattice(blk.scale_exp)[1])
                for blk in self.jordan_split().blocks)
        return self._dual_norms

    def _jordan_split_split(self):
        alg, K, n = self.alg, self.alg.base, self.n
        g1 = [[e.x0 for e in row] for row in self.gram]
        d, u, w = smith(K, g1, _vK)
        # columns of T: slot-1 occurs as U^T, slot-2 as W
        ut = list(zip(*u))
        t = tuple(tuple(alg.element(ut[i][j], w[i][j]) for j in range(n))
                  for i in range(n))
        order = sorted(range(n), key=lambda k: d[k][k].valuation())
        t = tuple(tuple(row[j] for j in order) for row in t)
        pieces = [(d[k][k].valuation(), 1) for k in order]
        return self._assemble_jordan(cols_of(t), pieces)

    def _jordan_split_field(self):
        ordered = []
        pieces = []  # (scale_exp, column count) per peeled piece
        for s, piece in _peel_pieces(self, cols_of(identity(self.alg, self.n))):
            ordered.extend(piece)
            pieces.append((s, len(piece)))
        return self._assemble_jordan(ordered, pieces)

    def _assemble_jordan(self, ordered_cols, pieces):
        alg = self.alg
        t = mat_from_cols(ordered_cols)
        tdet = mat_det(t)
        v = alg.valuation_P(tdet)
        if not (v.a == 0 and v.b == 0):
            raise UnsupportedCase("Jordan transform is not unimodular")
        # merge consecutive peeled pieces of equal scale into one modular block
        merged = []
        pos = 0
        for s, count in pieces:
            group = ordered_cols[pos:pos + count]
            pos += count
            if merged and merged[-1][0] == s:
                merged[-1] = (s, merged[-1][1] + list(group))
            else:
                merged.append((s, list(group)))
        merged = [group for _, group in merged]
        blocks = []
        for group in merged:
            g = _gram_of(self, group)
            scale = _min_vP_sym(alg, g)
            norm = _norm_exp_of_gram(alg, g)
            blocks.append(JordanBlock(
                scale_exp=scale,
                rank=len(group),
                norm_exp=norm,
                normal=alg.vK_in_P(norm) == scale,
                gram=g,
                cols=tuple(group)))
        return JordanSplitting(tuple(blocks), t)


class JordanBlock:
    __slots__ = ("scale_exp", "rank", "norm_exp", "normal", "gram", "cols")

    def __init__(self, scale_exp, rank, norm_exp, normal, gram, cols):
        self.scale_exp = scale_exp
        self.rank = rank
        self.norm_exp = norm_exp
        self.normal = normal
        self.gram = gram
        self.cols = cols

    def __repr__(self):
        tag = "normal" if self.normal else "subnormal"
        return (f"JordanBlock(scale={self.scale_exp}, rank={self.rank}, "
                f"norm=p^{self.norm_exp}, {tag})")


class JordanSplitting:
    """The blocks of a Jordan splitting (a tuple, shallowest scale first) and
    the transform whose columns are their basis vectors.  It does not hold
    the lattice, so a lattice that keeps its splitting makes no reference
    cycle."""

    def __init__(self, blocks, transform):
        self.blocks = blocks
        self.transform = transform

    def jordan_type(self):
        return tuple((b.rank, b.scale_exp, b.normal) for b in self.blocks)

    def __repr__(self):
        return f"JordanSplitting({list(self.blocks)})"


# -- helpers -------------------------------------------------------------------


def _gram_of(lat, cols):
    """Gram matrix of cols, one functional per column."""
    gcs = [lat.gram_conj(b) for b in cols]
    return tuple(tuple(_dot(a, gb) for gb in gcs) for a in cols)


def _project_off(lat, vecs, piece):
    """vecs made orthogonal to span(piece) by subtracting their
    <., piece>-projections; piece spans a non-degenerate sublattice."""
    pg_inv = mat_inv(tuple(zip(*_gram_of(lat, piece))))
    out = []
    for y in vecs:
        coeffs = mat_vec(pg_inv, tuple(lat.inner(y, p) for p in piece))
        yy = y
        for cf, p in zip(coeffs, piece):
            yy = vec_sub(yy, vec_scale(cf, p))
        out.append(yy)
    return out


def _complement(lat, cols, piece):
    """Basis of the orthogonal complement of span(piece) inside span(cols),
    for a piece of one or two vectors of that span with an invertible Gram:
    a line, a plane or a hyperbolic pair that a peel splits off.

    One solve against the Gram of cols gives the piece's coordinates; the
    piece replaces the columns of their first unit 1x1 or 2x2 minor, and the
    kept columns are projected off it (``_project_off``).  A split kind
    whose minors are units only slot by slot drops each slot's own columns
    (``_slotwise_keep``)."""
    cg_inv = mat_inv(tuple(zip(*_gram_of(lat, cols))))
    coords = [mat_vec(cg_inv, tuple(lat.inner(p, c) for c in cols)) for p in piece]
    drop = _unit_minor(coords)
    if drop is not None:
        keep = [c for j, c in enumerate(cols) if j not in drop]
    elif lat.alg.kind == EtaleAlgebra.SPLIT:
        keep = _slotwise_keep(lat.alg, cols, coords)
    else:
        keep = None
    if keep is None:
        raise UnsupportedCase("piece is not part of a basis of the span")
    return _project_off(lat, keep, piece)


def _unit_minor(coords):
    """Row indices of the first unit minor of the coordinate columns
    `coords` (one or two of them, entries in E or in K), or None."""
    for idx in combinations(range(len(coords[0])), len(coords)):
        if len(idx) == 1:
            d = coords[0][idx[0]]
        else:
            (a, b), (cu, cv) = idx, coords
            d = cu[a] * cv[b] - cu[b] * cv[a]
        if d.is_unit():
            return idx
    return None


def _slotwise_keep(alg, cols, coords):
    """Split kinds: the columns kept when each slot drops the rows of its own
    first unit minor, or None.  A column neither slot drops is kept as it is;
    each column that only slot 1 drops is mixed with one that only slot 0
    drops: slot 0 from the first, through the idempotent (1, 0), and slot 1
    from the second, through (0, 1)."""
    d0 = _unit_minor([[c.x0 for c in cs] for cs in coords])
    d1 = _unit_minor([[c.x1 for c in cs] for cs in coords])
    if d0 is None or d1 is None:
        return None
    K = alg.base
    left, right = alg.element(K.one, K.zero), alg.element(K.zero, K.one)
    mixed = zip([j for j in d1 if j not in d0], [j for j in d0 if j not in d1])
    return ([c for j, c in enumerate(cols) if j not in d0 and j not in d1]
            + [vec_add(vec_scale(left, cols[a]), vec_scale(right, cols[b]))
               for a, b in mixed])


def _peel_pieces(lat, cols):
    """Peel span(cols) one Jordan piece at a time, least scale first.

    Yields (scale_exp, piece): a piece is a norm-attaining line [x] when the
    remaining span is normal, else a plane [x, y] whose pairing attains its
    scale.  The columns the piece replaces are dropped and the others are
    projected off it before the next piece is taken."""
    alg = lat.alg
    cols = list(cols)
    while cols:
        gram = _gram_of(lat, cols)
        s = _min_vP_sym(alg, gram)
        k = _norm_exp_of_gram(alg, gram)
        if alg.vK_in_P(k) == s:
            x, lead = _norm_attainer(lat, cols, gram, k)
            piece, drop = [x], {lead}
        else:
            best = None
            for i in range(len(cols)):
                for j in range(i + 1, len(cols)):
                    e = gram[i][j]
                    if e.is_zero():
                        continue
                    v = alg.vP(e)
                    if best is None or v < best[0]:
                        best = (v, i, j)
            if best is None or best[0] != s:
                raise UnsupportedCase("no scale-attaining pivot found")
            _, i, j = best
            piece, drop = [cols[i], cols[j]], {i, j}
        yield s, piece
        rest = [c for idx, c in enumerate(cols) if idx not in drop]
        cols = _project_off(lat, rest, piece) if rest else rest


def _vK(x):
    return x.valuation()


def _min_vP_sym(alg, gram):
    """Least P-valuation of an entry of gram; for split kinds the least
    valuation of an entry's slot."""
    split = alg.kind == EtaleAlgebra.SPLIT
    best = None
    for row in gram:
        for e in row:
            for comp in ((e.x0, e.x1) if split else (e,)):
                if comp.is_zero():
                    continue
                v = comp.valuation() if split else alg.vP(comp)
                if best is None or v < best:
                    best = v
    if best is None:
        raise HermlatError("zero Gram")
    return best


def _norm_exp_of_gram(alg, gram):
    best = INF
    for i in range(len(gram)):
        d = gram[i][i]
        if not d.is_zero():
            best = min(best, d.as_K().valuation())
        for j in range(i + 1, len(gram)):
            best = min(best, alg.trace_ideal_of(gram[i][j]))
    if best is INF:
        raise HermlatError("zero Gram")
    return best


def _norm_attainer(lat, cols, gram, k):
    """A vector in the span of cols whose form value has valuation exactly k.

    Returns (vector, index of the column it can replace in a basis)."""
    alg = lat.alg
    m = len(cols)
    for i in range(m):
        d = gram[i][i]
        if not d.is_zero() and d.as_K().valuation() == k:
            return cols[i], i
    pk = alg.base.uniformizer_pow(k)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            e = gram[j][i]
            if e.is_zero() or alg.trace_ideal_of(e) != k:
                continue
            for tau in alg.base.residue_lifts():
                if tau.is_zero():
                    continue
                lam = alg.solve_trace(e, pk * tau)
                x = vec_add(cols[i], vec_scale(lam, cols[j]))
                q = lat.q_value(x)
                if not q.is_zero() and q.valuation() == k:
                    return x, i
    raise UnsupportedCase("no norm-attaining vector found")


def _dual_basis(ring, gt, a_exp, val):
    """Columns spanning {x : G^T x in P^a O^n}, through the Smith reduction
    of G^T over ring: K for one slot of a split algebra, or a field-kind E."""
    n = len(gt)
    d, _, w = smith(ring, gt, val)
    mus = [ring.uniformizer_pow(max(a_exp - val(d[k][k]), 0)) for k in range(n)]
    return tuple(tuple(w[i][j] * mus[j] for j in range(n)) for i in range(n))


# -- standard planes --------------------------------------------------------------


def standard_H(alg, i):
    pi = alg.uniformizer_pow(i)
    return HermitianLattice(alg, ((alg.zero, pi), (pi.conj(), alg.zero)))


def standard_Hik(alg, i, k):
    if alg.kind != EtaleAlgebra.RAMIFIED:
        raise HermlatError("H(i,k) standard planes require the ramified kind")
    if not (i + alg.e >= 2 * k >= i):
        raise HermlatError(f"H({i},{k}) needs {i} <= 2k <= {i}+e")
    pi = alg.uniformizer_pow(i)
    pk = alg.from_K(alg.base.uniformizer_pow(k))
    return HermitianLattice(alg, ((pk, pi), (pi.conj(), alg.zero)))


def standard_A(alg, i, k):
    if alg.kind != EtaleAlgebra.RAMIFIED:
        raise HermlatError("A(i,k) standard planes require the ramified kind")
    if not (i <= 2 * k < i + alg.e):
        raise HermlatError(f"A({i},{k}) needs i <= 2k < i+e")
    pi = alg.uniformizer_pow(i)
    pk = alg.from_K(alg.base.uniformizer_pow(k))
    corner = alg.from_K(-alg.u0() * alg.base.uniformizer_pow(i - k))
    return HermitianLattice(alg, ((pk, pi), (pi.conj(), corner)))


def orthogonal_sum(*lats):
    alg = lats[0].alg
    n = sum(l.n for l in lats)
    rows = []
    off = 0
    for l in lats:
        for r in l.gram:
            rows.append((alg.zero,) * off + tuple(r) + (alg.zero,) * (n - off - l.n))
        off += l.n
    return HermitianLattice(alg, rows)

"""Constructive factorization of unitary-group elements into symmetries and
rescaled Eichler isometries.

``factor_unitary`` builds a word (``_word``) by one of two routes, by the
kind of the algebra, then runs the reduction pass over it.

Field kinds take the reflection descent (``_descend``), the Cartan-Dieudonné
descent over E: each round emits the symmetry that takes phi(e_j) back to
e_j, for a basis vector e_j that phi moves, choosing the one of least
v_P(sigma) among those whose sigma is invertible and which stabilize L.  It
fixes every vector phi fixes, so it ends within n rounds.  It stops short
when no candidate passes, most often where symmetries need not generate
U(L), for a ramified dyadic E/K with residue field F_2 (the paper's
appendix), where the rescaled Eichler isometries of a hyperbolic pair are
needed too.  So a stalled descent walks the lattice's chain of mutually
orthogonal hyperbolic pairs (``_pair_chain``): for each pair (u, v) phi
still moves it peels the pair (``_peel_pair``, the one pair peel of every
kind), then descends again.  The peel takes phi(u) to u by at most two
symmetries, then phi(v) to v by one Eichler isometry that fixes u: by
Eichler's criterion it moves v to any vector with the same pairings.  Each
pair is peeled at most once: a descent fixes what phi fixes, and the
generators of a later pair act inside the complement of the earlier ones.
A stall with no pair left raises ``UnsupportedCase``.

Split kinds take the peel driver (``_drive``), which peels the lattice one
hyperbolic pair or line of its first Jordan block at a time; the remaining
map fixes the peeled part pointwise, and the driver continues on the
orthogonal complement.  They skip the descent because the tracer test of
``perfbench/test_perfbench.py`` traces a single symmetry on ``split2`` and
asserts that ``_arrange_first_block`` runs, which a finished descent would
skip.  Each driver step has two halves.  The *plan* is what depends on L
alone: the span, its first block's pair or first line, and the complement
the piece leaves (``lattice._complement``).  The *alignment* is what
depends on phi: the generators that make phi fix the piece.  The plan of a
lattice is kept on it (``_plan``); no step holds the lattice, so the two
make no reference cycle and are freed together.  It is extended lazily: a
call that reaches a step not yet planned computes it from its span, and
stores it once its alignment and complement succeeded; a step that raises
is not stored.  Every later call on the lattice walks the stored steps, so
it recomputes no geometry, and gets what it would have computed, bit for
bit.  Step 0 reads the ``classify.Span`` L keeps (``standard_span``).

``_Driver.emit`` applies a generator g to phi and records g^-1 in the
output word once g^-1 passed ``in_unitary_group``: ``map_isotropic`` and
``map_unit_vector`` return candidates, and the descent tests its own before
it chooses.  A verdict is kept with the generator's built data, so the
certificate reads the verdicts already reached.

The pair peel emits its Eichler isometry as it is, though the appendix
rewrites it as symmetries wherever the residue allows.  The reduction pass
(``_reduction_pass``) is the one place that rewrites an Eichler factor,
through ``eichler_to_symmetries``.

Without the certificate, ``factor_unitary`` guarantees the following, or
raises ``UnsupportedCase``:
- every generator of its word passed the membership test (in ``emit``, or
  in ``eichler_to_symmetries`` for the symmetries of a rewrite);
- the word's product is phi: the phi ``_word`` ends with is the identity,
  and ``emit`` records the inverse of each generator it applies;
- each rewrite of the reduction pass, applied to the identity, equals the
  matrix of the Eichler factor it replaces (checked where the reduction pass
  makes it, in ``eichler_to_symmetries``).
``hermlat factor --symmetries-only`` still refuses exactly a returned word
that holds an Eichler factor.
It does not multiply its word out: ``verify_factorization``, the
independent certificate from the generator list alone, is the one place
that does.  Words are applied through ``isometries.apply_word``, so no
matrix product runs after the input check.
"""

from __future__ import annotations

import itertools

from .errors import HermlatError, UnsupportedCase, VerificationFailed
from .etale import EtaleAlgebra
from .classify import (
    _arrange_first_block,
    _jordan_cols,
    splits_hyperbolic,
    standard_span,
)
from .isometries import (
    EichlerIsometry,
    Symmetry,
    apply_generator,
    apply_word,
    det_of,
    eichler_to_symmetries,
    gram_preserved,
    in_unitary_group,
    make_eichler,
    make_symmetry,
    reflection_data,
)
from .lattice import HermitianLattice, _complement, _gram_of, _min_vP_sym
from .linalg import (
    _dot,
    cols_of,
    identity,
    is_integral_matrix,
    mat_det,
    mat_eq,
    mat_from_cols,
    mat_vec,
    vec_add,
    vec_eq,
    vec_scale,
    vec_sub,
)


class Factorization:
    """Ordered generator list of a lattice; ``verify_factorization`` gives
    its certificate."""

    def __init__(self, lattice, generators):
        self.lattice = lattice
        self.generators = list(generators)

    @property
    def contains_eichler(self):
        return any(isinstance(g, EichlerIsometry) for g in self.generators)

    def matrix(self):
        lat = self.lattice
        return apply_word(lat, self.generators, identity(lat.alg, lat.n))

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __repr__(self):
        kinds = "".join("S" if isinstance(g, Symmetry) else "E"
                        for g in self.generators)
        return f"Factorization([{kinds}])"


def _residual(lat, gens, phi):
    """product(gens) - phi, and whether it is zero at working precision."""
    prod = apply_word(lat, gens, identity(lat.alg, lat.n))
    diff = tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(prod, phi))
    return diff, all(e.is_zero() for row in diff for e in row)


def verify_factorization(lat, phi, factorization):
    """Recompute the product, check each factor's membership and determinant
    consistency; returns a certificate dict or raises VerificationFailed.
    The residual precision is the smallest absolute precision among the
    entries of product - phi."""
    for idx, g in enumerate(factorization):
        if not in_unitary_group(lat, g):
            raise VerificationFailed(f"factor {idx} is not in U(L)")
    diff, ok = _residual(lat, factorization.generators, phi)
    if not ok:
        raise VerificationFailed("product does not reproduce the input")
    det_prod = None
    for g in factorization:
        d = det_of(lat, g)
        det_prod = d if det_prod is None else det_prod * d
    if det_prod is None:
        det_prod = lat.alg.one
    det_phi = mat_det(phi)
    if not (det_phi - det_prod).is_zero():
        raise VerificationFailed("determinant mismatch")
    return {
        "residual_precision": min((comp.abs_precision() for row in diff
                                   for e in row for comp in (e.x0, e.x1)),
                                  default=None),
        "factors": len(factorization.generators),
        "det_consistent": True,
    }


def _check_input(lat, phi):
    if len(phi) != lat.n or any(len(r) != lat.n for r in phi):
        raise HermlatError("matrix size does not match the lattice rank")
    if not is_integral_matrix(phi):
        raise HermlatError("matrix is not integral")
    if not gram_preserved(lat, phi):
        raise HermlatError("matrix does not preserve the hermitian form")


class _Driver:
    def __init__(self, lat):
        self.lat = lat
        self.out = []

    def emit(self, g, phi):
        """Record the inverse of g in the output word, once it is tested for
        membership, and return g * phi."""
        lat = self.lat
        inv = g.inverse(lat) if isinstance(g, EichlerIsometry) else g.inverse()
        if not in_unitary_group(lat, inv):
            raise UnsupportedCase("constructed generator does not preserve L")
        self.out.append(inv)
        return apply_word(lat, [g], phi)

    def emit_symmetries(self, syms, phi):
        """Apply a product s_1 ∘ ... ∘ s_r to phi, emitting inverses."""
        for g in reversed(syms):
            phi = self.emit(g, phi)
        return phi


def factor_unitary(lat, phi):
    """Factor phi in U(L) into symmetries and rescaled Eichler isometries:
    the word of ``_word``, then the reduction pass, which rewrites Eichler
    factors as symmetries wherever the rewriting rules apply (always
    possible except in the ramified dyadic residue-two case)."""
    _check_input(lat, phi)
    return Factorization(lat, _reduction_pass(lat, _word(lat, phi)))


def _word(lat, phi):
    """The word of phi before the reduction pass.  Split kinds: the peel
    driver's (``_drive``).  Field kinds: the reflection descent's; where it
    stalls, for each pair of ``_pair_chain`` that phi still moves, the
    pair's peel (``_peel_pair``) and the descent again.  Raises
    UnsupportedCase when the map left is not the identity."""
    drv = _Driver(lat)
    one = identity(lat.alg, lat.n)
    if lat.alg.kind == EtaleAlgebra.SPLIT:
        if not mat_eq(_drive(drv, phi), one):
            raise UnsupportedCase("the driver left a map other than the identity")
        return drv.out
    phi = _descend(drv, phi)
    if not mat_eq(phi, one):
        for u, v, cols in _pair_chain(lat):
            if vec_eq(mat_vec(phi, u), u) and vec_eq(mat_vec(phi, v), v):
                continue
            phi = _descend(drv, _peel_pair(drv, cols, phi, u, v))
            if mat_eq(phi, one):
                break
        else:
            raise UnsupportedCase("the descent stalled with no hyperbolic pair left")
    return drv.out


def _descend(drv, phi):
    """The reflection descent: each round emits one symmetry S with
    S(phi e_j) = e_j for a basis vector e_j that phi moves, the one of least
    v_P(sigma) among the S = S_{phi e_j - e_j, sigma} of invertible sigma
    that stabilize L; returns the phi left once no basis vector moves or no
    such S exists.  S fixes what phi fixes (<y, phi x - x> = 0 when
    phi y = y), so the space S*phi fixes is larger than the one of phi, and
    n rounds end the descent."""
    lat = drv.lat
    basis = cols_of(identity(lat.alg, lat.n))
    for _ in range(lat.n):
        cands = []
        for img, c in zip(cols_of(phi), basis):
            if vec_eq(img, c):
                continue
            g = Symmetry(*reflection_data(lat, img, c))
            if not g.sigma.is_zero():
                cands.append((lat.alg.vP(g.sigma), g))
        # membership in order of v_P(sigma), ties in basis order: the first
        # member is the least one, and the later candidates go untested
        cands.sort(key=lambda vg: vg[0])
        g = next((g for _, g in cands if in_unitary_group(lat, g)), None)
        if g is None:
            break
        phi = drv.emit(g, phi)
    return phi


def _pair_chain(lat):
    """Iterate over the hyperbolic pairs a stalled descent peels, mutually
    orthogonal: the pair of ``splits_hyperbolic(L)``, then the one
    ``splits_hyperbolic`` finds in the Gram of its complement, and so on.
    Each entry is ``(u, v, cols)``: the pair, with <u,v> = pi^s for the
    s of ``splits_hyperbolic``, and a basis cols of the vectors x of the
    span the pair was found in with <x, span> inside P^s (a Jordan block of
    scale i < s scaled by pi^(s-i)), which holds the pair's images and the
    pair peel's bridge vectors.

    An entry is found when an iteration first reaches it, and kept on L
    (``_chain``, with the complement the pair leaves, and None once no pair
    is left), like the answer of ``splits_hyperbolic``.  Nothing is found
    before a descent on L stalls, nor past the pair that finishes it: the
    pair search raises on some spans whose pairs no word needs
    (``classify.cross_pair_norm_drop``).  A search that raises keeps
    nothing.  No entry holds L, so the chain does not keep L alive."""
    chain = lat._chain
    for idx in itertools.count():
        if idx == len(chain):
            chain.append(_next_pair(lat, chain[-1][3] if chain else None))
        if chain[idx] is None:
            return
        yield chain[idx][:3]


def _next_pair(lat, cols):
    """The kept chain entry of the pair ``splits_hyperbolic`` finds in
    span(cols), L itself for cols None: the entry of ``_pair_chain`` and
    the complement of the pair in span(cols); None when there is none."""
    alg = lat.alg
    if cols is None:
        sub, cols = lat, list(cols_of(identity(alg, lat.n)))
    elif not cols:
        return None
    else:
        sub = HermitianLattice(alg, _gram_of(lat, cols), _skip_checks=True)
    found = splits_hyperbolic(sub)
    if found is None:
        return None
    u, v, s = found
    to_lat = mat_from_cols(cols)
    if sub is not lat:
        u, v = mat_vec(to_lat, u), mat_vec(to_lat, v)
    deep = [mat_vec(to_lat, vec_scale(alg.uniformizer_pow(max(s - blk.scale_exp, 0)), c))
            for blk in sub.jordan_split().blocks for c in blk.cols]
    return u, v, deep, _complement(lat, cols, [u, v])


def _reduction_pass(lat, gens):
    out = []
    for g in gens:
        if isinstance(g, EichlerIsometry):
            syms = eichler_to_symmetries(lat, g)
            if syms is not None:
                out.extend(syms)
                continue
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# the split-kind peel driver
# ---------------------------------------------------------------------------


class _Step:
    """One peel of span(cols) as far as it depends on L alone.

    ``branch`` is ``"pair"`` or ``"line"``, and ``piece`` the vectors its
    alignment (``_align_step``) makes phi fix: the pair (u, v) of the first
    block, or its first line [x].  ``rest`` spans what is left to peel, the
    complement of ``piece`` in span(cols), once ``_settle`` computed it.  No
    field holds the lattice, so a plan does not keep its lattice alive."""

    __slots__ = ("cols", "branch", "piece", "rest")

    def __init__(self, cols, branch, piece):
        self.cols = cols
        self.branch = branch
        self.piece = piece
        self.rest = None


def _drive(drv, phi):
    """Walk the plan of drv.lat, extending it where phi reaches a step not
    yet planned, until phi fixes the span left."""
    lat = drv.lat
    plan = lat._plan
    cols = list(cols_of(identity(lat.alg, lat.n)))
    idx = 0
    while cols:
        if all(vec_eq(mat_vec(phi, c), c) for c in cols):
            return phi
        step = plan[idx] if idx < len(plan) else _plan_step(
            standard_span(lat) if idx == 0
            else _arrange_first_block(lat, cols, _jordan_cols(lat, cols)))
        phi = _align_step(drv, step, phi)
        cols = _settle(lat, plan, idx, step)
        idx += 1
    return phi


def _plan_step(span):
    """The step of a ``classify.Span``: its first block's pair, else its
    first line."""
    if span.pair is not None:
        return _Step(span.cols, "pair", span.pair[:2])
    if not span.lines:
        raise UnsupportedCase(
            f"unexpected first-block shape: no pair and no line, "
            f"{len(span.planes)} planes")
    return _Step(span.cols, "line", span.lines[:1])


def _align_step(drv, step, phi):
    """The alignment of a step: the generators that make phi fix its piece;
    returns the updated phi."""
    if step.branch == "pair":
        return _peel_pair(drv, step.cols, phi, *step.piece)
    return _peel_unramified_line(drv, step.cols, phi, *step.piece)


def _settle(lat, plan, idx, step):
    """step.rest, the complement computed after the step's first alignment
    (so an alignment failure raises first, as without a plan), and step
    stored as step idx of the plan once that succeeded."""
    if step.rest is None:
        step.rest = _complement(lat, step.cols, step.piece)
    if idx == len(plan):
        plan.append(step)
    return step.rest


# ---------------------------------------------------------------------------
# the pair and line peels
# ---------------------------------------------------------------------------


def map_isotropic(lat, cols, u_from, u_to):
    """Product of at most two symmetries of L mapping u_from to u_to, for
    isotropic vectors pairing onto the scale of span(cols), through an
    isotropic bridge where <u_from, u_to> falls short of it.  Membership
    is left to ``_Driver.emit``, which applies the word."""
    alg = lat.alg
    scale = _min_vP_sym(alg, _gram_of(lat, cols))
    pair = lat.inner(u_from, u_to)
    if _attains(alg, pair, scale):
        return [make_symmetry(lat, *reflection_data(lat, u_from, u_to))]
    y = _isotropic_bridge(lat, cols, u_from, u_to, scale)
    g1 = map_isotropic(lat, cols, u_from, y)
    g2 = map_isotropic(lat, cols, y, u_to)
    return g2 + g1  # composition order: apply g1 first


def _attains(alg, val, scale):
    if val.is_zero():
        return False
    v = alg.valuation_P(val)
    return v.a == scale and v.b == scale


def _isotropic_bridge(lat, cols, u, up, scale):
    """Isotropic y with <u,y> and <u',y> both attaining the scale, on every
    kind: a column of cols or a sum of two, moved along u to Q(y) = 0."""
    alg = lat.alg
    K = alg.base
    if alg.kind == EtaleAlgebra.SPLIT and scale != 0:
        # the slot bookkeeping below wants pairing value 1; rescale to scale 0
        latr = lat.rescale(K.uniformizer_pow(-scale))
        return _isotropic_bridge(latr, cols, u, up, 0)
    cands = []
    y1 = y2 = None
    for c in cols:
        if y1 is not None and y2 is not None:
            break
        gc = lat.gram_conj(c)
        if y1 is None and _attains(alg, _dot(u, gc), scale):
            y1 = c
        if y2 is None and _attains(alg, _dot(up, gc), scale):
            y2 = c
    if y1 is None or y2 is None:
        raise UnsupportedCase("no scale-attaining partners for the bridge")
    for x in (y1, y2, vec_add(y1, y2)):
        gx = lat.gram_conj(x)
        if _attains(alg, _dot(u, gx), scale) and \
           _attains(alg, _dot(up, gx), scale):
            cands.append(x)
    if not cands and alg.kind == EtaleAlgebra.SPLIT:
        # idempotent-weighted combinations reach mixed slot patterns
        one, zero = K.one, K.zero
        for lam in ((one, zero), (zero, one)):
            for mu in ((one, zero), (zero, one)):
                x = vec_add(vec_scale(alg.element(*lam), y1),
                            vec_scale(alg.element(*mu), y2))
                gx = lat.gram_conj(x)
                if _attains(alg, _dot(u, gx), scale) and \
                   _attains(alg, _dot(up, gx), scale):
                    cands.append(x)
                    break
            if cands:
                break
    if not cands:
        raise UnsupportedCase("bridge search failed")
    x = cands[0]
    qx = lat.q_value(x)
    if qx.is_zero():
        y = x
    elif alg.kind == EtaleAlgebra.SPLIT:
        # normalize <x,u> = 1, then shift by alpha*u with Tr(alpha) = -Q;
        # the nonzero slot of alpha goes where <u,u'> is not a unit
        xt = vec_scale(alg.one / lat.inner(x, u), x)
        qxt = lat.q_value(xt)
        puu = lat.inner(u, up)
        v0 = puu.x0.valuation_or_none()
        slot1_unit = v0 == 0
        if slot1_unit:
            alpha = alg.element(K.zero, -qxt)
        else:
            alpha = alg.element(-qxt, K.zero)
        y = vec_add(xt, vec_scale(alpha, u))
    else:
        coeff = alg.rho() * alg.from_K(qx) / lat.inner(u, x)
        y = vec_sub(x, vec_scale(coeff, u))
    gy = lat.gram_conj(y)
    if not _dot(y, gy).as_K().is_zero():
        raise UnsupportedCase("bridge vector failed to become isotropic")
    if not (_attains(alg, _dot(u, gy), scale)
            and _attains(alg, _dot(up, gy), scale)):
        raise UnsupportedCase("bridge vector lost its pairings")
    return y


def _peel_pair(drv, cols, phi, u, v):
    """Make phi fix the hyperbolic pair (u, v), whose images and bridge
    vectors lie in span(cols): at most two symmetries take phi(u) to u
    (``map_isotropic``), then one Eichler isometry fixing u takes phi(v) to
    v; returns the updated phi.  The chain of a stalled descent and the
    split driver's pair steps call it, on every kind."""
    lat = drv.lat
    phi_u = mat_vec(phi, u)
    if not vec_eq(phi_u, u):
        syms = map_isotropic(lat, cols, phi_u, u)
        phi = drv.emit_symmetries(syms, phi)
    phi_v = mat_vec(phi, v)
    if vec_eq(phi_v, v):
        return phi
    # phi = E ∘ rest with E fixing u and mapping v to phi(v); the
    # reduction pass rewrites E as symmetries
    e = _rot1_eichler(lat, u, v, phi_v)
    phi = drv.emit(e.inverse(lat), phi)
    if not vec_eq(mat_vec(phi, v), v):
        raise UnsupportedCase("hyperbolic peel did not fix v")
    return phi


def _rot1_eichler(lat, shared, u_from, u_to):
    """Eichler isometry fixing `shared` and mapping u_from to u_to, for
    hyperbolic pairs (shared, u_from), (shared, u_to) with equal products."""
    gf = lat.gram_conj(u_from)
    beta = _dot(vec_sub(u_to, u_from), gf) / _dot(shared, gf)
    w = vec_sub(vec_sub(u_to, u_from), vec_scale(beta, shared))
    return make_eichler(lat, shared, u_from, w, beta)


def map_unit_vector(lat, cols, a, a_img):
    """Product of symmetries of L mapping a_img to a, where L = O a ⟂ N with
    a of unit-level form value; unramified kinds (reflection constructions).

    The word w = [g1, ..., gr] satisfies (g1 ∘ ... ∘ gr)(a_img) = a;
    membership is left to ``_Driver.emit``, which applies it."""
    alg = lat.alg
    qa = lat.q_value(a)
    c = alg.base.one / qa
    latr = lat.rescale(c)
    word = []
    ap = a_img

    def push(s, sigma_r):
        nonlocal ap
        g = make_symmetry(lat, s, sigma_r / alg.from_K(c))
        word.insert(0, g)
        ap = apply_generator(lat, g, ap)

    for _ in range(12):
        if vec_eq(ap, a):
            return word
        if latr.inner(a, vec_sub(a, ap)).is_unit():
            push(*reflection_data(latr, ap, a))
        elif alg.kind == EtaleAlgebra.INERT:
            s = _pairing_bridge(latr, cols, a, ap)
            push(s, alg.rho() * latr.inner(s, s))
        elif alg.base.q > 2:
            s = _pairing_bridge(latr, cols, a, ap)
            push(s, _split_unit_sigma(latr, s, a, ap))
        else:
            push(*_split_residue_two_data(latr, cols, a, ap))
    raise UnsupportedCase("line reflection loop did not terminate")


def _split_unit_sigma(latr, s, a, ap):
    """Split kind, residue field larger than 2: a sigma = Q(s)*(eps, 1-eps)
    or Q(s)*(1-eps, eps) whose symmetry brings ap to a unit distance from a."""
    alg = latr.alg
    qs = latr.q_value(s)
    for eps in alg.base.residue_lifts():
        if eps.is_zero() or (eps - 1).is_zero():
            continue
        if (1 - eps).valuation() != 0:
            continue
        for sigma in (alg.element(qs * eps, qs * (1 - eps)),
                      alg.element(qs * (1 - eps), qs * eps)):
            img = apply_generator(latr, Symmetry(s, sigma), ap)
            if latr.inner(a, vec_sub(a, img)).is_unit():
                return sigma
    raise UnsupportedCase("no epsilon choice advanced the reflection")


def _peel_unramified_line(drv, cols, phi, a):
    """Fix phi(a) back to a for the unit-norm line of an unramified lattice."""
    lat = drv.lat
    ap = mat_vec(phi, a)
    if vec_eq(ap, a):
        return phi
    word = map_unit_vector(lat, cols, a, ap)
    return drv.emit_symmetries(word, phi)


def _pairing_bridge(latr, cols, a, ap):
    """s with <s,a> and <s,ap> both units (scale zero, unramified)."""
    alg = latr.alg
    ga, gap = latr.gram_conj(a), latr.gram_conj(ap)
    if alg.kind == EtaleAlgebra.SPLIT:
        # assemble one slot at a time; each slot is the classical argument
        # over the base valuation ring
        slots = []
        for comp in (0, 1):
            def vals(gx, vec):
                e = _dot(vec, gx)
                c = e.x0 if comp == 0 else e.x1
                return c.is_unit()

            y1 = next((c for c in cols if vals(ga, c)), None)
            y2 = next((c for c in cols if vals(gap, c)), None)
            if y1 is None or y2 is None:
                raise UnsupportedCase("no pairing partners for the bridge slot")
            pick = next((x for x in (y1, y2, vec_add(y1, y2))
                         if vals(ga, x) and vals(gap, x)), None)
            if pick is None:
                raise UnsupportedCase("reflection bridge slot search failed")
            slots.append(pick)
        K = alg.base
        x = vec_add(vec_scale(alg.element(K.one, K.zero), slots[0]),
                    vec_scale(alg.element(K.zero, K.one), slots[1]))
        if _attains(alg, _dot(x, ga), 0) and _attains(alg, _dot(x, gap), 0):
            return x
        raise UnsupportedCase("reflection bridge search failed")
    y1 = y2 = None
    for cvec in cols:
        if y1 is None and _attains(alg, _dot(cvec, ga), 0):
            y1 = cvec
        if y2 is None and _attains(alg, _dot(cvec, gap), 0):
            y2 = cvec
    if y1 is None or y2 is None:
        raise UnsupportedCase("no pairing partners for the reflection bridge")
    for x in (y1, y2, vec_add(y1, y2)):
        if _attains(alg, _dot(x, ga), 0) and _attains(alg, _dot(x, gap), 0):
            return x
    raise UnsupportedCase("reflection bridge search failed")


def _split_residue_two_data(latr, cols, a, ap):
    """One step of the residue-two split four-case analysis: the (s, sigma)
    of the next symmetry to apply (computed against the rescaled form)."""
    alg = latr.alg
    K = alg.base
    p = K.uniformizer()
    d = latr.inner(a, vec_sub(a, ap))
    iexp = d.x0.valuation_or_none()
    jexp = d.x1.valuation_or_none()
    big = 10 ** 6
    iexp = big if iexp is None else iexp
    jexp = big if jexp is None else jexp
    rest = _complement(latr, cols, [a])
    kexp = big if not rest else _min_vP_sym(alg, _gram_of(latr, rest))

    if iexp <= kexp and jexp <= kexp:
        return reflection_data(latr, ap, a)
    if iexp >= 2 and jexp >= 2:
        s = _pairing_bridge(latr, cols, a, ap)
        qs = latr.q_value(s)
        return s, alg.element(qs * (K.one + p) / p, -(qs / p))
    if min(iexp, jexp) < kexp < max(iexp, jexp):
        s = _pairing_bridge(latr, cols, a, ap)
        qs = latr.q_value(s)
        pk = K.uniformizer_pow(kexp)
        return s, alg.element(qs * (K.one + pk) / pk, -(qs / pk))
    # remaining shape: k = 1 and exactly one slot at valuation 1
    alpha = latr.inner(ap, a) / latr.q_value(a)
    n_part = vec_sub(ap, vec_scale(alpha, a))
    nra = alpha.norm()
    if iexp == 1 and jexp > 1:
        weight = alg.element(K.one, nra - 1)
        sigma = alg.element(K.one, K.from_int(-1))
    else:
        weight = alg.element(nra - 1, K.one)
        sigma = alg.element(K.from_int(-1), K.one)
    u = vec_add(vec_scale(weight, a), n_part)
    if not latr.q_value(u).is_zero():
        raise UnsupportedCase("four-case trick vector is not isotropic")
    return u, sigma

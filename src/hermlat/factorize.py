"""Constructive factorization of unitary-group elements into symmetries and
rescaled Eichler isometries.

``factor_unitary`` takes one of two routes, never a mix of them: the
reflection descent (``_descend``) or the peel driver below
(``_factor_by_driver``).  The descent is the Cartan-Dieudonné descent over
E: each round emits the symmetry that takes phi(e_j) back to e_j, for a
basis vector e_j that phi moves, choosing the one of least v_P(sigma) among
those whose sigma is invertible and which stabilize L.  It fixes every
vector phi fixes, so the descent ends within n rounds.  When it ends at the
identity, its word of at most n symmetries is the result; it has no Eichler
factor, so no reduction pass runs.  Otherwise the descent's word is
dropped, and the other route factors the original phi.  The descent stops
short when, in some round, no candidate passes, since its candidates are
only the reflections that take a column of phi home.

Which route goes first depends on whether symmetries alone generate U(L):
they do for every field kind but a ramified dyadic E/K with residue field
F_2 (the paper's appendix).  Where they do, the descent runs first and the
driver factors what it cannot finish.  In the residue-two case, on the
catalog's ``H(i) ⟂ H(i)`` lattices over ``Q_2(i)`` and ``Q_2(√2)``, the
descent finished every word of symmetries but only about half of the words
holding an Eichler factor, and which half followed the generators drawn,
not the shape of the word; a word it leaves costs the descent and the
driver.  So the route, and with it the cost, followed the draw: on the
``ramified`` benchmark the 90th percentile of the factor time ranged from
0.015 s to 0.041 s over seeds 1-30 (one pass each); with the driver
first, ten 30 s runs (seeds 1-10) put its quartiles at 0.030 and 0.032 s.  In the residue-two case the descent
therefore runs one round, and only where rank(phi - 1) <= 1
(``_rank_at_most_one``): then phi is a symmetry, every candidate is
phi^-1, and the round finishes it.  Every other phi goes to the driver, and
to the full descent only if the driver raises ``UnsupportedCase``.

Split kinds keep the driver.  Their planned route is elimination in the
Smith basis (``isometries.eliminate_split``), and the tracer test of
``perfbench/test_perfbench.py``
(``test_tracer_patches_import_bindings_and_restores_them``) traces the first
factor operation of the ``unramified`` seed-3 schedule, a single symmetry
on ``split2``, and asserts that ``_arrange_first_block`` runs: a descent on
split kinds would finish that operation without it.

The driver peels the lattice one hyperbolic plane, line, or subnormal plane
at a time, emitting generators that align the images of the peeled basis
vectors; the remaining map fixes the peeled part pointwise and the recursion
continues on the orthogonal complement.

Each step has two halves.  The *plan* is what depends on L alone: the span,
the arrangement of its first Jordan block, the branch that block calls for
(a hyperbolic pair, also one found across blocks; a norm-attaining line; or
a subnormal plane), the data that branch reads, and the complement the
piece leaves (``lattice._complement``).  The
*alignment* is what depends on phi: the generators that make phi fix the
piece (``_peel_pair``, ``_peel_line``, ``_peel_subnormal``).  The plan of a
lattice is kept on it (``_plan``); no step holds the lattice, so the two
make no reference cycle and are freed together.  It is extended lazily: a call
that reaches a step not yet planned computes it from its span, and stores it
once its alignment and complement succeeded; a step that raises is not
stored.  Every later call on the lattice walks the stored steps, so it
recomputes no geometry, and gets what it would have computed, bit for bit.
A step reads a ``classify.Span``; step 0 the one L keeps
(``standard_span``), perhaps arranged already by the oracle or the decide
path.  A pair step also keeps its swap word (``_scale_map_word``) once an
alignment needed it, as ``(s, sigma)`` data.  The public single-step peels
run step 0 of the plan.

The ramified line and plane peels share one alignment loop, ``_align``: each
round emits the first generator one of the peel's moves yields for the
current image of the peeled vector.
``_Driver.emit`` applies a generator g to phi and records g^-1 in the
output word once g^-1 passed ``in_unitary_group``: ``map_isotropic`` and
``map_unit_vector`` return candidates, and only ``_direct_symmetry`` tests
one itself, to choose its move.  A verdict is kept with the generator's
built data, so the certificate reads the verdicts already reached.

The peels emit Eichler isometries as they are; the unramified pair peel
too, though the appendix rewrites its Eichler factor as symmetries.  The
reduction pass (``_reduction_pass``) is the one place that rewrites an
Eichler factor, through ``eichler_to_symmetries``.

Without the certificate, ``factor_unitary`` guarantees the following, or
raises ``UnsupportedCase``:
- every generator of its word passed the membership test (in ``emit``, or
  in ``eichler_to_symmetries`` for the symmetries of a rewrite);
- the word's product is phi: the phi the descent or the driver ends with is
  the identity, and ``emit`` records the inverse of each generator it
  applies;
- on the driver's route, each rewrite of the reduction pass, applied to the
  identity, equals the matrix of the Eichler factor it replaces (checked
  where the reduction pass makes it, in ``eichler_to_symmetries``); the
  descent's route has no rewrite.
``hermlat factor --symmetries-only`` still refuses exactly a returned word
that holds an Eichler factor; a word of the descent never does.
It does not multiply its word out: ``verify_factorization``, the
independent certificate from the generator list alone, is the one place
that does.  Words are applied through ``isometries.apply_word``, so no
matrix product runs after the input check.
"""

from __future__ import annotations

from .errors import HermlatError, UnsupportedCase, VerificationFailed
from .etale import EtaleAlgebra
from .classify import (
    _arrange_first_block,
    _cross_block_attempt,
    _jordan_cols,
    isotropy_refine,
    plane_standard_form,
    standard_span,
)
from .isometries import (
    EichlerIsometry,
    Symmetry,
    _pair_scale,
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
from .lattice import (
    _complement,
    _gram_of,
    _min_vP_sym,
    _norm_attainer,
    _norm_exp_of_gram,
)
from .linalg import (
    _dot,
    cols_of,
    identity,
    is_integral_matrix,
    mat_det,
    mat_eq,
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
    """Factor phi in U(L) into symmetries and rescaled Eichler isometries.

    Split kinds take the peel driver (``_factor_by_driver``), whose final
    pass rewrites Eichler factors as symmetries wherever the rewriting rules
    apply (always possible except in the ramified dyadic residue-two case).
    Other field kinds take the reflection descent (``_descend``) first, and
    the driver where it does not finish.  In the residue-two case a phi
    that is one symmetry takes one round of the descent, any other the
    driver, and the full descent only where the driver raises (see the
    module docstring)."""
    _check_input(lat, phi)
    if lat.alg.kind == EtaleAlgebra.SPLIT:
        return _factor_by_driver(lat, phi)
    if not _residue_two(lat.alg):
        fac = _descent(lat, phi, lat.n)
        return fac if fac is not None else _factor_by_driver(lat, phi)
    if _rank_at_most_one(lat, phi):
        fac = _descent(lat, phi, 1)
        if fac is not None:
            return fac
    try:
        return _factor_by_driver(lat, phi)
    except UnsupportedCase:
        fac = _descent(lat, phi, lat.n)
        if fac is None:
            raise
        return fac


def _residue_two(alg):
    """Whether E/K is ramified dyadic with residue field F_2, the one case
    where symmetries need not generate U(L)."""
    return alg.kind == EtaleAlgebra.RAMIFIED and alg.dyadic and alg.base.q == 2


def _rank_at_most_one(lat, phi):
    """Whether phi - 1 has rank at most one at working precision: each of
    its columns makes vanishing 2 x 2 minors with the first nonzero one."""
    one = lat.alg.one
    cols = [tuple(a - one if i == j else a for i, a in enumerate(col))
            for j, col in enumerate(cols_of(phi))]
    cols = [c for c in cols if not all(a.is_zero() for a in c)]
    if not cols:
        return True
    c = cols[0]
    k = next(i for i, a in enumerate(c) if not a.is_zero())
    return all((b[i] * c[k] - c[i] * b[k]).is_zero()
               for b in cols[1:] for i in range(len(c)))


def _descent(lat, phi, rounds):
    """The word of at most `rounds` rounds of the reflection descent, or
    None when they do not end at the identity."""
    drv = _Driver(lat)
    if mat_eq(_descend(drv, phi, rounds), identity(lat.alg, lat.n)):
        return Factorization(lat, drv.out)
    return None


def _descend(drv, phi, rounds):
    """The reflection descent: each round emits one symmetry S with
    S(phi e_j) = e_j for a basis vector e_j that phi moves, the one of least
    v_P(sigma) among the S = S_{phi e_j - e_j, sigma} of invertible sigma
    that stabilize L; returns the phi left after `rounds` rounds, or once no
    basis vector moves or no such S exists.  S fixes what phi fixes
    (<y, phi x - x> = 0 when phi y = y), so the space S*phi fixes is larger
    than the one of phi, and n rounds end the descent."""
    lat = drv.lat
    basis = cols_of(identity(lat.alg, lat.n))
    for _ in range(rounds):
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


def _factor_by_driver(lat, phi):
    """The peel driver's factorization of phi: the plan walked by
    ``_drive``, the check that it ends at the identity, and the reduction
    pass."""
    drv = _Driver(lat)
    if not mat_eq(_drive(drv, phi), identity(lat.alg, lat.n)):
        raise UnsupportedCase("the driver left a map other than the identity")
    return Factorization(lat, _reduction_pass(lat, drv.out))


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


class _Step:
    """One peel of span(cols) as far as it depends on L alone.

    ``branch`` is ``"pair"``, ``"line"`` or ``"plane"``, and ``data`` holds
    the last arguments of its alignment (``_align_step``): ``(u, v, s,
    swap)`` for a pair, ``(lines, deeper)`` for a line, the rescaled lattice
    and standard plane of ``_plan_subnormal`` for a plane.  A pair's
    ``swap`` list is empty until an alignment first needs the pair's swap
    word (``_scale_map_word``), then holds the ``(s, sigma)`` of its
    inverse.  ``rest`` spans what is left to peel, the complement of
    ``piece`` in span(cols), once ``_settle`` computed it.  No field holds
    the lattice itself (a swap word is kept as data, not as built
    generators), so a plan does not keep its lattice alive."""

    __slots__ = ("cols", "branch", "data", "piece", "rest")

    def __init__(self, cols, branch, data, piece):
        self.cols = cols
        self.branch = branch
        self.data = data
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
            lat, standard_span(lat) if idx == 0
            else _arrange_first_block(lat, cols, _jordan_cols(lat, cols)))
        phi = _align_step(drv, step, phi)
        cols = _settle(lat, plan, idx, step)
        idx += 1
    return phi


def _plan_step(lat, span):
    """The step of a ``classify.Span``: the branch its first block calls for."""
    pair = span.pair or _cross_block_attempt(lat, span)
    if pair is not None:
        return _Step(span.cols, "pair", (*pair, []), pair[:2])
    lines = span.lines
    if lines:
        return _Step(span.cols, "line", (lines, span.deeper_cols), lines[:1])
    planes = span.planes
    if len(planes) != 1:
        raise UnsupportedCase(
            f"unexpected first-block shape: {len(lines)} lines, "
            f"{len(planes)} planes after hyperbolic extraction")
    return _plan_subnormal(lat, span)


def _align_step(drv, step, phi):
    """The alignment of a step: the generators that make phi fix its piece;
    returns the updated phi."""
    if step.branch == "pair":
        return _peel_pair(drv, step.cols, phi, *step.data)
    if step.branch == "line":
        return _peel_line(drv, step.cols, phi, *step.data)
    return _peel_subnormal(drv, phi, *step.data)


def _settle(lat, plan, idx, step):
    """step.rest, the complement computed after the step's first alignment
    (so an alignment failure raises first, as without a plan), and step
    stored as step idx of the plan once that succeeded."""
    if step.rest is None:
        step.rest = _complement(lat, step.cols, step.piece)
    if idx == len(plan):
        plan.append(step)
    return step.rest


def _peel_pair(drv, cols, phi, u, v, scale_s, swap):
    """Align phi on the hyperbolic pair (u, v), <u,v> of scale scale_s;
    ``swap`` keeps the pair's swap word (``_scale_map_word``)."""
    if drv.lat.alg.kind == EtaleAlgebra.RAMIFIED:
        return _transport_pair(drv, phi, u, v, scale_s, swap)
    return _peel_hyperbolic_unramified(drv, cols, phi, u, v)


def _peel_line(drv, cols, phi, lines, deeper):
    """Fix phi on the first line x of the first block."""
    x = lines[0]
    if drv.lat.alg.kind != EtaleAlgebra.RAMIFIED:
        return _peel_unramified_line(drv, cols, phi, x)
    return _peel_normal(drv, phi, x, lines[1:] + deeper)


# ---------------------------------------------------------------------------
# unramified branches
# ---------------------------------------------------------------------------


def map_isotropic(lat, cols, u_from, u_to):
    """Product of at most two symmetries of L mapping u_from to u_to, for
    isotropic vectors pairing onto the scale of span(cols); unramified kinds.
    Membership is left to ``_Driver.emit``, which applies the word."""
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
    """Isotropic y with <u,y> and <u',y> both attaining the scale."""
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


def _peel_hyperbolic_unramified(drv, cols, phi, u, v):
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


# ---------------------------------------------------------------------------
# ramified branches
# ---------------------------------------------------------------------------


def _rot1_eichler(lat, shared, u_from, u_to):
    """Eichler isometry fixing `shared` and mapping u_from to u_to, for
    hyperbolic pairs (shared, u_from), (shared, u_to) with equal products."""
    gf = lat.gram_conj(u_from)
    beta = _dot(vec_sub(u_to, u_from), gf) / _dot(shared, gf)
    w = vec_sub(vec_sub(u_to, u_from), vec_scale(beta, shared))
    return make_eichler(lat, shared, u_from, w, beta)


def _transport_pair(drv, phi, u2, v2, scale_s, swap):
    """Emit generators aligning the phi-images of the target pair (u2, v2);
    returns the updated phi (which then fixes u2 and v2 pointwise)."""
    lat = drv.lat
    alg = lat.alg
    for _ in range(8):
        cur_u = mat_vec(phi, u2)
        cur_v = mat_vec(phi, v2)
        if vec_eq(cur_u, u2) and vec_eq(cur_v, v2):
            return phi
        done = _postalign(drv, phi, cur_u, cur_v, u2, v2, scale_s, swap)
        if done is not None:
            phi = done
            continue
        gcu, gcv = lat.gram_conj(cur_u), lat.gram_conj(cur_v)
        puv = _dot(cur_u, gcv)
        by_puv, by_pvu = alg.divider(puv), alg.divider(puv.conj())
        alpha = by_puv(_dot(u2, gcv))
        beta = by_pvu(_dot(u2, gcu))
        gamma = by_puv(_dot(v2, gcv))
        delta = by_pvu(_dot(v2, gcu))
        if beta.is_unit():
            g = make_symmetry(lat, *reflection_data(lat, cur_u, u2))
        elif gamma.is_unit():
            g = make_symmetry(lat, *reflection_data(lat, cur_v, v2))
        elif alpha.is_unit():
            g = _rot1_eichler(lat, cur_v, cur_u,
                              vec_scale(alg.one / alpha, u2))
        elif delta.is_unit():
            g = _rot1_eichler(lat, cur_u, cur_v,
                              vec_scale(alg.one / delta, v2))
        else:
            w = vec_sub(vec_sub(u2, vec_scale(alpha, cur_u)),
                        vec_scale(beta, cur_v))
            wp = vec_sub(vec_sub(v2, vec_scale(gamma, cur_u)),
                         vec_scale(delta, cur_v))
            z = _isotropic_partner_in_plane(lat, w, wp, puv)
            shared = vec_add(cur_v, z)
            fac = alg.one + alpha
            target = vec_scale(alg.one / fac, u2)
            g = _rot1_eichler(lat, shared, cur_u, target)
        phi = drv.emit(g, phi)
    if vec_eq(mat_vec(phi, u2), u2) and vec_eq(mat_vec(phi, v2), v2):
        return phi
    raise UnsupportedCase("pair transport did not converge")


def _scalar_coeff(lat, img, target, partner):
    """If img = a * target (tested exactly), return the unit a, else None."""
    gp = lat.gram_conj(partner)
    denom = _dot(target, gp)
    a = _dot(img, gp) / denom
    if not a.is_unit():
        return None
    if vec_eq(img, vec_scale(a, target)):
        return a
    return None


def _postalign(drv, phi, cur_u, cur_v, u2, v2, scale_s, swap):
    """When one image is a scalar multiple of its target, finish the job:
    rotate the other image into place and undo the unit scaling inside the
    plane.  Returns the new phi, or None when not applicable."""
    lat = drv.lat
    alg = lat.alg
    for swapped, (img, target, other_img, other) in enumerate(
            ((cur_u, u2, cur_v, v2), (cur_v, v2, cur_u, u2))):
        c = _scalar_coeff(lat, img, target, other)
        if c is None:
            continue
        other_coeff = alg.one / c.conj()
        other_target = vec_scale(other_coeff, other)
        if not vec_eq(other_img, other_target):
            e = _rot1_eichler(lat, img, other_img, other_target)
            phi = drv.emit(e, phi)
        # the map left on the plane is u2 -> a*u2, v2 -> conj(a)^-1 v2
        a = other_coeff if swapped else c
        if not (a - alg.one).is_zero():
            word = _scale_map_word(lat, u2, v2, scale_s, alg.one / a, swap)
            phi = drv.emit_symmetries(word, phi)
        return phi
    return None


def _plane_word_beta_unit(lat, u2, v2, img_u, img_v):
    """Symmetry word for the plane map u2 -> img_u, v2 -> img_v (identity on
    the complement) in the case where img_u has a unit v2-coordinate.  The
    word is not checked here: ``_scale_map_word`` checks the word it is
    composed into."""
    s, sigma = reflection_data(lat, u2, img_u)
    if sigma.is_zero():
        raise UnsupportedCase("degenerate plane alignment")
    s1 = make_symmetry(lat, s, sigma)
    rv = apply_generator(lat, s1.inverse(), img_v)
    gamma = lat.inner(vec_sub(rv, v2), v2) / lat.inner(u2, v2)
    recon = vec_add(v2, vec_scale(gamma, u2))
    if not vec_eq(rv, recon):
        raise UnsupportedCase("plane map residual is not a shear")
    word = [s1]
    if not gamma.is_zero():
        sigma2 = -(lat.inner(v2, u2) / gamma)
        if not sigma2.trace().is_zero():
            raise UnsupportedCase("plane shear parameter is not skew")
        word.append(Symmetry(u2, sigma2))
    return word


def _scale_map_word(lat, u2, v2, scale_s, a, swap):
    """Symmetry word for the unitary plane map u2 -> a*u2, v2 -> conj(a)^-1 v2.

    It is the inverse of the swap word w0 (u2 -> v2, v2 -> c*u2 with
    c = conj(pi^s)/pi^s) after the word w1 of the swap composed with the
    scaling.  w0 depends on the pair alone: ``swap`` holds the (s, sigma) of
    its inverse once computed, and an empty ``swap`` is filled here.  The
    composed word is the one that is checked: a wrong w1 or a wrong kept
    w0 makes it miss the map."""
    alg = lat.alg
    if (a - alg.one).is_zero():
        return []
    pi_s = alg.uniformizer_pow(scale_s)
    swap_coeff = pi_s.conj() / pi_s
    if not swap:
        w0 = _plane_word_beta_unit(lat, u2, v2, v2, vec_scale(swap_coeff, u2))
        swap.extend((g.s, g.sigma.conj()) for g in reversed(w0))
    img_u = vec_scale(a, v2)
    img_v = vec_scale(swap_coeff / a.conj(), u2)
    w1 = _plane_word_beta_unit(lat, u2, v2, img_u, img_v)
    word = [Symmetry(s, sigma) for s, sigma in swap] + w1
    iu, iv = u2, v2
    for g in reversed(word):
        iu = apply_generator(lat, g, iu)
        iv = apply_generator(lat, g, iv)
    if not (vec_eq(iu, vec_scale(a, u2))
            and vec_eq(iv, vec_scale(alg.one / a.conj(), v2))):
        raise UnsupportedCase("plane scaling word failed")
    return word


def _isotropic_partner_in_plane(lat, w, wp, puv):
    """Isotropic z in span(w, w') with <w, z> = puv (the auxiliary plane of
    the all-coefficients-deep rotation case)."""
    alg = lat.alg
    pww = lat.inner(w, wp)
    if pww.is_zero() or alg.vP(pww) != alg.vP(puv):
        raise UnsupportedCase("auxiliary plane lost the pairing level")
    qwp = lat.q_value(wp)
    z = wp
    if not qwp.is_zero():
        lam = alg.solve_trace(pww, -qwp)
        z = vec_add(wp, vec_scale(lam, w))
    if not lat.q_value(z).is_zero():
        z = isotropy_refine(lat, z, [w, wp])
    fac = (puv / lat.inner(w, z)).conj()
    z = vec_scale(fac, z)
    if not lat.q_value(z).is_zero() or not (lat.inner(w, z) - puv).is_zero():
        raise UnsupportedCase("auxiliary isotropic vector failed its contract")
    return z


def _align(drv, phi, x, fuel, moves, stuck):
    """Emit generators until phi fixes x.  Each round emits the first
    generator that one of `moves`, called on the current image of x, yields
    (a move returns None where it does not apply; the last one always
    yields or raises); after `fuel` rounds raise UnsupportedCase(stuck)."""
    for _ in range(fuel):
        img = mat_vec(phi, x)
        if vec_eq(img, x):
            return phi
        for move in moves:
            g = move(img)
            if g is not None:
                break
        phi = drv.emit(g, phi)
    raise UnsupportedCase(stuck)


def _direct_symmetry(lat, img, target, rescaled=None):
    """The symmetry of reflection_data(img, target) when its sigma is nonzero
    and it stabilizes L, else None.  With rescaled = (latr, a) the data is
    taken against latr = a*<,> and sigma scaled back."""
    s, sigma = reflection_data(lat if rescaled is None else rescaled[0],
                               img, target)
    if sigma.is_zero():
        return None
    g = Symmetry(s, sigma) if rescaled is None \
        else _scaled_symmetry(lat, s, sigma, rescaled[1])
    return g if in_unitary_group(lat, g) else None


def _scaled_symmetry(lat, s, sigma_r, scale_factor):
    """The symmetry of L whose sigma is sigma_r against the rescaled form
    scale_factor*<,>."""
    return make_symmetry(lat, s, sigma_r / lat.alg.from_K(scale_factor))


def _steered_sigma(latr, qs_rho, target_vals):
    """sigma = Q(s)*rho + omega with v_P(sigma) steered into target_vals."""
    alg = latr.alg
    K = alg.base
    base_val = None if qs_rho.is_zero() else alg.vP(qs_rho)
    for t in target_vals:
        cands = []
        if base_val is not None and base_val == t:
            cands.append(qs_rho)
        if (t - alg.e) % 2 == 0:
            for lam in K.residue_lifts():
                if lam.is_zero():
                    continue
                cands.append(qs_rho + alg.special_skew(t) * alg.from_K(lam))
        for sigma in cands:
            if sigma.is_zero():
                continue
            if alg.vP(sigma) == t:
                return sigma
    raise UnsupportedCase("no steered sigma reached the target window")


def _peel_normal(drv, phi, x, rest):
    """Fix phi(x) back to x for a norm-attaining line O*x of the first block;
    ``rest`` spans the other lines of the block and the deeper part.  The
    steered move combines x with the first norm attainer of span(rest): the
    next line of the block when there is one, at the norm of x."""
    lat = drv.lat
    alg = lat.alg
    K = alg.base
    qx = lat.q_value(x)
    k = qx.valuation()

    def deep_alpha(img):
        alpha = lat.inner(img, x) / qx
        one_minus = alg.one - alpha
        v_val = None if one_minus.is_zero() else alg.vP(one_minus)
        if v_val is not None and v_val >= alg.e:
            return make_symmetry(lat, x, alg.from_K(qx) * alg.rho())
        return None

    def steered(img):
        if not rest:
            raise UnsupportedCase("normal-line peel stuck with nothing beside the line")
        rgram = _gram_of(lat, rest)
        n = _norm_exp_of_gram(alg, rgram)
        y0, _ = _norm_attainer(lat, rest, rgram, n)
        qy = lat.q_value(y0)
        c = alg.solve_norm_approx(-K.uniformizer_pow(n - k) * qx / qy,
                                  alg.e - 1)
        y = vec_scale(c, y0)
        s = vec_add(vec_scale(alg.uniformizer_pow(n - k), x), y)
        qs = lat.q_value(s)
        if qs.is_zero() or qs.valuation() < n + alg.e - 1:
            raise UnsupportedCase("normal-line combination missed its depth")
        sigma = _steered_sigma(lat, alg.from_K(qs) * alg.rho(),
                               [n + k, n + k - 1])
        return make_symmetry(lat, s, sigma)

    return _align(drv, phi, x, 10,
                  (lambda img: _direct_symmetry(lat, img, x), deep_alpha,
                   steered),
                  "normal-line peel did not converge")


def _plan_subnormal(lat, span):
    """The plan of a subnormal first-block plane: the rescaled lattice, the
    standard plane (u, v) and the exponents that the u and v alignments of
    ``_peel_subnormal`` read.

    The deeper part, of scale P^j and norm p^n, never needs the norm
    rearrangement 0 < j - i < n - k against the plane (scale P^i, norm
    p^k) first.  This plan runs only after ``classify._cross_pair`` found
    no pair across the blocks; with those exponents it tried
    ``_pair_after_rearrange``, which finds none only when the deeper block
    has no plane to rearrange, or when j >= 2i + e - 2k.  The deeper plane
    is P^j-modular, so Tr(P^j) lies in its norm and n <= floor((j + e)/2);
    with n > j - i + k that gives j < 2i + e - 2k."""
    K = lat.alg.base
    i = span.scale
    x2, y2, _ = span.planes[0]

    if span.deeper_cols:
        _, dgram, j, n_glob = span.deeper(lat)
        # global rescale so the deep norm attainer has form value p^n exactly
        x_deep, _ = _norm_attainer(lat, span.deeper_cols, dgram, n_glob)
        scale_factor = K.uniformizer_pow(n_glob) / lat.q_value(x_deep)
    else:
        x_deep = n_glob = j = None
        scale_factor = K.one

    latr = lat.rescale(scale_factor)
    u, v, k = plane_standard_form(latr, x2, y2, i)
    return _Step(span.cols, "plane",
                 (latr, scale_factor, u, v, x_deep, i, k, n_glob, j), [u, v])


def _peel_subnormal(drv, phi, latr, a, u, v, x_deep, i, k, n, j):
    """Peel a subnormal first-block plane: fix u then v, following the
    valuation-steered symmetry constructions."""
    phi = _subnormal_fix_u(drv, latr, a, phi, u, v, i)
    return _subnormal_fix_v(drv, latr, a, phi, u, v, x_deep, i, k, n, j)


def _subnormal_fix_u(drv, latr, a, phi, u, v, i):
    lat = drv.lat
    alg = latr.alg
    qv = latr.q_value(v)

    def pre_pass(img):
        # beta-deep pre-pass: S_{v, sigma} with sigma = Q(v) rho + omega
        sigma = _steered_sigma(latr, alg.from_K(qv) * alg.rho(), [i, i - 1])
        return _scaled_symmetry(lat, v, sigma, a)

    return _align(drv, phi, u, 8,
                  (lambda img: _direct_symmetry(lat, img, u, (latr, a)),
                   pre_pass),
                  "subnormal u-alignment did not converge")


def _subnormal_fix_v(drv, latr, a, phi, u, v, x_deep, i, k, n, j):
    lat = drv.lat
    alg = latr.alg
    K = alg.base
    e = alg.e

    def steered(img):
        if x_deep is None:
            raise UnsupportedCase("subnormal v-alignment stuck without M")
        # the steered pass: s = eps * pi^(n-k) v' + x
        h = (j + e) // 2
        if h > n:
            eps = alg.solve_norm_approx(
                K.one - K.uniformizer_pow(h - n), e - 1)
        else:
            eps = alg.one
        vprime = vec_sub(u, vec_scale(
            alg.uniformizer_pow(i) * alg.from_K(K.uniformizer_pow(k - i)), v))
        s = vec_add(vec_scale(eps * alg.uniformizer_pow(n - k), vprime),
                    x_deep)
        qs = latr.q_value(s)
        if not qs.is_zero() and qs.valuation() < h:
            raise UnsupportedCase("steered vector misses its depth")
        sigma = _steered_sigma(latr, alg.from_K(qs) * alg.rho(),
                               [n - k + i, n - k + i - 1])
        return _scaled_symmetry(lat, s, sigma, a)

    return _align(drv, phi, v, 10,
                  (lambda img: _direct_symmetry(lat, img, v, (latr, a)),
                   steered),
                  "subnormal v-alignment did not converge")


# ---------------------------------------------------------------------------
# public single-step peels
# ---------------------------------------------------------------------------


def peel_hyperbolic(lat, phi, pair):
    """Emit generators aligning phi on the hyperbolic pair; returns
    (generators, complement_columns, residual_phi) with
    product(generators) * residual_phi = phi.  An Eichler factor is left as
    it is: ``factor_unitary``'s reduction pass is what rewrites one."""
    _check_input(lat, phi)
    drv, cols = _Driver(lat), list(cols_of(identity(lat.alg, lat.n)))
    u, v = pair
    puv = lat.inner(u, v)
    s = _pair_scale(lat.alg, puv) if lat.alg.kind != EtaleAlgebra.SPLIT \
        else lat.alg.valuation_P(puv).a
    phi2 = _peel_pair(drv, cols, phi, u, v, s, [])
    return drv.out, _complement(lat, cols, [u, v]), phi2


def _peel_first_step(lat, phi, refusal, branch, mismatch):
    """Step 0 of the plan of lat run on phi, refusing unramified kinds with
    `refusal` and a step of another branch than `branch` with `mismatch`;
    returns (generators, complement_columns, residual_phi)."""
    _check_input(lat, phi)
    if lat.alg.kind != EtaleAlgebra.RAMIFIED:
        raise UnsupportedCase(refusal)
    plan = lat._plan
    step = plan[0] if plan else _plan_step(lat, standard_span(lat))
    if step.branch != branch:
        raise UnsupportedCase(mismatch)
    drv = _Driver(lat)
    phi2 = _align_step(drv, step, phi)
    return drv.out, list(_settle(lat, plan, 0, step)), phi2


def peel_normal_dyadic(lat, phi):
    """One normal-line peeling step of the ramified driver; returns
    (generators, complement_columns, residual_phi)."""
    return _peel_first_step(lat, phi, "normal peeling is for the ramified kind",
                            "line", "the first peel step is not a normal line")


def peel_subnormal_dyadic(lat, phi):
    """One subnormal-plane peeling step of the ramified driver; returns
    (generators, complement_columns, residual_phi)."""
    return _peel_first_step(lat, phi, "subnormal peeling is for the ramified kind",
                            "plane", "the first peel step is not a subnormal plane")

"""Isometry testing, standard forms of modular lattices, hyperbolic-plane
detection, and Jordan rearrangement.

The decision side compares Jordan invariants (four conditions in the ramified
case).  The constructive side produces explicit vectors: standard bases of
modular blocks, hyperbolic pairs wherever the classification forces one, and
basis changes realizing the norm-rearrangement of a deeper Jordan block.
All constructions are verified at working precision before they are returned.
The complement of a rearranged plane comes from ``lattice._complement``, the
one complement step ``factorize`` uses too.

A peel round reads a ``Span``, made once and shared by
``splits_hyperbolic``, the split kinds' factor plan and
``rearrange_jordan`` (see its docstring).  The decide path reads what a
lattice keeps of itself: ``isometry_conditions`` the Jordan splittings and
dual norms, ``splits_hyperbolic`` the span of the standard basis that L
keeps (``standard_span``, grouped by that splitting) and its own kept
answer.  So each lattice object is split and arranged once.

A form value Q(w) is deepened or killed by adding lambda*z, with lambda from
the trace equation Tr(lambda <z,w>) = -Q(w) or from the norm congruence
Nr(lambda) Q(z) = -Q(w) mod a window.  Each move is written once:
``_norm_shift`` is the norm-balanced step, ``_shift_into_trace_ideal`` the
loop pushing Q(w) into Tr(P^i) along one direction,
``EtaleAlgebra.solve_norm`` the exact solve of Nr(x) = a, and
``isotropy_refine`` the one way a vector is made isotropic: the Newton lift
of the trace kill along a helper, then the isotropic line of the plane in
closed form (``_isotropic_in_plane``).
"""

from __future__ import annotations

from .errors import HermlatError, PrecisionLoss, UnsupportedCase
from .etale import EtaleAlgebra
from .lattice import (
    HermitianLattice,
    _complement,
    _gram_of,
    _min_vP_sym,
    _norm_attainer,
    _norm_exp_of_gram,
    _peel_pieces,
)
from .linalg import (
    _dot,
    cols_of,
    identity,
    mat_det,
    mat_from_cols,
    vec_add,
    vec_scale,
)

# ---------------------------------------------------------------------------
# isometry decision
# ---------------------------------------------------------------------------


def isometry_conditions(m_lat, n_lat):
    """Evaluate the isometry conditions; returns (bool, failed, trace).

    `failed` is the number of the first failed condition (1..4) or None.
    Unramified kinds use Jordan type plus determinant class and report
    failures as condition 1 or 2.
    """
    if m_lat.alg is not n_lat.alg:
        raise HermlatError("lattices over different algebras")
    alg = m_lat.alg
    trace = {}
    if m_lat.n != n_lat.n:
        return False, 1, {"reason": "rank mismatch"}
    if m_lat.n == 0:
        return True, None, trace

    jm = m_lat.jordan_split()
    jn = n_lat.jordan_split()
    tm, tn = jm.jordan_type(), jn.jordan_type()
    trace["jordan_type"] = (tm, tn)
    if tm != tn:
        return False, 1, trace

    vm, cm = m_lat.det_class()
    vn, cn = n_lat.det_class()
    trace["det_class"] = ((vm, cm), (vn, cn))
    if (vm, cm) != (vn, cn):
        return False, 2, trace

    if alg.kind != EtaleAlgebra.RAMIFIED:
        return True, None, trace

    norms_m, norms_n = m_lat.dual_norms(), n_lat.dual_norms()
    trace["dual_norms"] = (norms_m, norms_n)
    if norms_m != norms_n:
        return False, 3, trace

    t = len(jm.blocks)
    for i in range(t - 1):
        a_exp = norms_m[i] + norms_m[i + 1] - jm.blocks[i].scale_exp
        if a_exp <= 0:
            continue
        dm = _partial_det(jm.blocks[: i + 1])
        dn = _partial_det(jn.blocks[: i + 1])
        quot = dm / dn
        if quot.is_zero() or quot.valuation() != 0:
            return False, 4, trace
        defect = alg.normic_defect(quot)
        trace.setdefault("partial_defects", []).append((i + 1, defect, a_exp))
        if defect < a_exp:
            return False, 4, trace
    return True, None, trace


def _partial_det(blocks):
    acc = None
    for blk in blocks:
        d = mat_det(blk.gram).as_K()
        acc = d if acc is None else acc * d
    return acc


def isometric(m_lat, n_lat):
    ok, _, _ = isometry_conditions(m_lat, n_lat)
    return ok


def space_is_hyperbolic(lat):
    """Whether the ambient hermitian space of an even-rank lattice is a sum
    of hyperbolic planes."""
    if lat.n % 2:
        return False
    r = lat.n // 2
    d = lat.det().as_K()
    if r % 2:
        d = -d
    return lat.alg.in_E_norm_group(d)


def modular_standard_form(lat):
    """Classification descriptor for a modular ramified lattice.

    Odd rank m=2r+1: {"parity": "odd", "unit_class", "r"}.
    Even rank: {"parity": "even", "form": "H"|"A", "k", "r"}; "H" with
    k = floor((i+e)/2) means the block is an orthogonal sum of hyperbolic
    planes.
    """
    alg = lat.alg
    if alg.kind != EtaleAlgebra.RAMIFIED:
        raise HermlatError("standard forms are for the ramified kind")
    s = lat.scale_exp()
    if not lat.is_modular(s):
        raise HermlatError("lattice is not modular")
    m = lat.n
    if m % 2:
        if s % 2:
            raise HermlatError("odd-rank modular lattice with odd scale")
        # unit class of det * p^{-m*i/2}
        K = alg.base
        u = lat.det().as_K() / K.uniformizer_pow(m * s // 2)
        ucls = alg.norm_class(u)
        return {"parity": "odd", "rank": m, "scale": s,
                "unit_class": ucls, "r": (m - 1) // 2}
    k = lat.norm_exp()
    form = "H" if space_is_hyperbolic(lat) else "A"
    return {"parity": "even", "rank": m, "scale": s, "form": form,
            "k": k, "r": (m - 2) // 2}


# ---------------------------------------------------------------------------
# constructive toolkit
# ---------------------------------------------------------------------------


def isotropy_refine(lat, u, helpers):
    """An isotropic vector in span(u, y) for the first helper y that has
    one, else UnsupportedCase.  No helper may be u itself: that plane is a
    line, whose closed form is the zero vector.

    Per helper, the Newton lift from u: w <- w + lambda*y with the trace
    kill Tr(lambda <y,w>) = -Q(w), which leaves Q(w) = Nr(lambda) Q(y).  It
    runs while Q(w) deepens, so it needs no round cap, and converges
    quadratically.  If it stops short of Q(w) = 0, the isotropic line of
    span(u, y) in closed form (``_isotropic_in_plane``)."""
    alg = lat.alg
    for y in helpers:
        w, q = u, lat.q_value(u)
        while not q.is_zero():
            try:
                lam = alg.solve_trace(lat.inner(y, w), -q)
            except HermlatError:
                break
            cand = vec_add(w, vec_scale(lam, y))
            if not _deepens(lat, cand, q.valuation()):
                break
            w, q = cand, lat.q_value(cand)
        if q.is_zero():
            return w
        try:
            iso = _isotropic_in_plane(lat, u, y)
        except HermlatError:
            continue
        if iso is not None:
            return iso
    raise UnsupportedCase("isotropy refinement did not converge")


def _deepens(lat, cand, m):
    """Whether Q(cand) is zero or has valuation above m."""
    q2 = lat.q_value(cand)
    return q2.is_zero() or q2.valuation() > m


def _norm_shift(lat, w, z, q, qz, window):
    """The norm-balanced step w + pi^t lam0 z, t = v(q) - v(qz), with
    Nr(lam0) = -q / (qz Nr(pi)^t) mod 𝔭^window: Nr(pi^t lam0) Q(z) cancels
    the leading digits of q = Q(w) (the cross terms Tr(lam <z,w>) are the
    caller's concern).  None when t < 0; errors of the norm solve pass
    through, so each caller keeps its own rule for them."""
    alg = lat.alg
    t = q.valuation() - qz.valuation()
    if t < 0:
        return None
    pit = alg.uniformizer_pow(t)
    lam0 = alg.solve_norm_approx(-q / (qz * pit.norm()), window)
    return vec_add(w, vec_scale(pit * lam0, z))


def _isotropic_in_plane(lat, u, y):
    """Primitive isotropic u + lambda*y, or None when span(u, y) has none:
    the fallback of ``isotropy_refine`` where its Newton lift stops short.

    With q = Q(u), p = <y,u> and det = q Q(y) - N(p),
    Q(u + lambda y) = q + Tr(lambda p) + N(lambda) Q(y)
                    = Q(y) N(lambda + conj(p)/Q(y)) + det/Q(y),
    so lambda = w - conj(p)/Q(y) with N(w) = -det/Q(y)^2.  When Q(y) = 0
    the condition is the trace equation Tr(lambda p) = -q."""
    alg = lat.alg
    gu = lat.gram_conj(u)
    q = _dot(u, gu).as_K()
    p = _dot(y, gu)
    qy = lat.q_value(y)
    if qy.is_zero():
        lam = alg.solve_trace(p, -q)
    else:
        a = -(q * qy - p.norm()) / (qy * qy)
        if a.is_zero():
            w = alg.zero
        elif not alg.in_E_norm_group(a):
            return None
        else:
            w = alg.solve_norm(a)
        lam = w - p.conj() / alg.from_K(qy)
    iso = primitivize(lat, vec_add(u, vec_scale(lam, y)))
    return iso if lat.q_value(iso).is_zero() else None


def primitivize(lat, u):
    """Scale a nonzero vector by the uniformizer power that makes it a
    primitive lattice vector: least coordinate valuation 0."""
    alg = lat.alg
    if alg.kind == EtaleAlgebra.SPLIT:
        return u
    t = None
    for c in u:
        if c.is_zero():
            continue
        v = alg.vP(c)
        t = v if t is None else min(t, v)
    if t is None or t == 0:
        return u
    return vec_scale(alg.uniformizer_pow(-t), u)


def complete_with_partners(lat, u, candidates, scale_i):
    """Complete a primitive isotropic u to a hyperbolic pair using the first
    viable partner among the candidates."""
    u = primitivize(lat, u)
    last = None
    for w in candidates:
        try:
            return complete_hyperbolic_pair(lat, u, w, scale_i)
        except (UnsupportedCase, PrecisionLoss) as ex:
            last = ex
    extra = []
    for a in range(len(candidates)):
        for b in range(a + 1, len(candidates)):
            extra.append(vec_add(candidates[a], candidates[b]))
    for w in extra:
        try:
            return complete_hyperbolic_pair(lat, u, w, scale_i)
        except (UnsupportedCase, PrecisionLoss) as ex:
            last = ex
    raise last if last is not None else UnsupportedCase("no completion partner")


def complete_hyperbolic_pair(lat, u, w0, scale_i):
    """Given exact-isotropic u and a partner w0 with <u,w0> of valuation
    scale_i and Q(w0) in the trace ideal, produce (u, v) with
    <u, v> = pi^scale_i exactly and Q(v) = 0."""
    alg = lat.alg
    pair = lat.inner(u, w0)
    if pair.is_zero():
        raise UnsupportedCase("partner does not pair at the block scale")
    vp = alg.valuation_P(pair)
    if vp.a != scale_i or vp.b != scale_i:
        raise UnsupportedCase("partner does not pair at the block scale")
    q = lat.q_value(w0)
    if not q.is_zero():
        lam = alg.solve_trace(pair, -q)
        w0 = vec_add(w0, vec_scale(lam, u))
    # normalize the pairing to exactly pi^scale_i
    pair = lat.inner(u, w0)
    target = alg.uniformizer_pow(scale_i)
    factor = (target / pair).conj()
    v = vec_scale(factor, w0)
    if not lat.q_value(v).is_zero():
        raise UnsupportedCase("completion lost isotropy")
    if lat.inner(u, v) != target:
        raise UnsupportedCase("pairing normalization failed")
    return u, v


def peel_lines_and_planes(lat, cols):
    """Decompose a modular block (spanned by cols) into an orthogonal sum of
    lines (normal pieces) and rank-2 subnormal planes, all at the block scale."""
    lines, planes = [], []
    for _, piece in _peel_pieces(lat, cols):
        if len(piece) == 1:
            lines.append(piece[0])
        else:
            planes.append(tuple(piece))
    return lines, planes


def normalize_plane(lat, x, y, scale_i):
    """Arrange a subnormal plane basis: x attains the plane norm, <x,y> has
    valuation scale_i, and Q(y) lies in the trace ideal Tr(P^scale_i)."""
    alg = lat.alg
    gram = _gram_of(lat, [x, y])
    k = _norm_exp_of_gram(alg, gram)
    attainer, lead = _norm_attainer(lat, [x, y], gram, k)
    partner = y if lead == 0 else x
    x, y = attainer, partner
    pair = lat.inner(x, y)
    if pair.is_zero() or alg.vP(pair) != scale_i:
        raise UnsupportedCase("plane basis does not attain the scale")
    y = _shift_into_trace_ideal(lat, y, x, scale_i)
    return x, y, k


def plane_is_hyperbolic(lat, plane, scale_i):
    """Whether the normalized plane (x, y, k) is isometric to H(scale_i)."""
    alg = lat.alg
    x, y, k = plane
    if alg.kind != EtaleAlgebra.RAMIFIED:
        return True  # unramified modular planes of rank 2 always split H
    if k != alg.trace_ideal(scale_i):
        return False
    gram = _gram_of(lat, [x, y])
    d = (gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]).as_K()
    return alg.in_E_norm_group(-d)


def combine_pieces_pair(lat, donor, target_plane, scale_i):
    """Hyperbolic pair inside donor ⟂ plane: raise the target plane's first
    normalized basis vector into the trace ideal along the donor, then kill."""
    x2, y2, k2 = target_plane
    k1 = lat.q_value(donor).valuation()
    if k1 > k2:
        raise UnsupportedCase("donor norm must not exceed the plane norm")
    x2c = _shift_into_trace_ideal(lat, x2, donor, scale_i)
    u = isotropy_refine(lat, x2c, [y2])
    return complete_with_partners(lat, u, [y2, x2], scale_i)


def lines_isotropic_pair(lat, lines, scale_i):
    """Hyperbolic pair from an orthogonal family of norm-attaining lines
    (ramified normal block); None when no pair exists (rank <= 2 cases)."""
    alg = lat.alg
    if alg.kind != EtaleAlgebra.RAMIFIED:
        return _lines_pair_unramified(lat, lines, scale_i)
    if len(lines) < 2:
        return None
    qs = [lat.q_value(c) for c in lines]
    target_norm = alg.trace_ideal(scale_i)
    # exact isotropic vector from two lines
    found = None
    for a in range(len(lines)):
        for b in range(len(lines)):
            if a == b:
                continue
            ratio = -qs[a] / qs[b]
            if ratio.valuation() % 2 or not alg.in_E_norm_group(ratio):
                continue
            u = vec_add(lines[a], vec_scale(alg.solve_norm(ratio), lines[b]))
            if lat.q_value(u).is_zero():
                found = (u, a, b, None)
                break
        if found:
            break
    if found is None and len(lines) >= 3:
        found = _triple_isotropic(lat, lines, qs)
    if found is None:
        return None
    u, a, b, c_used = found
    # completion: fiber shift from a third line when the trace window needs it
    w0 = lines[a]
    q0 = lat.q_value(w0)
    if q0.valuation() >= target_norm:
        return complete_hyperbolic_pair(lat, u, w0, scale_i)
    others = [idx for idx in range(len(lines)) if idx not in {a, b, c_used}]
    candidates = others + [idx for idx in (b, c_used) if idx is not None]
    for idx in candidates:
        y = lines[idx]
        window = min(max(target_norm - q0.valuation(), 1), max(alg.e - 1, 1))
        try:
            w = _norm_shift(lat, w0, y, q0, lat.q_value(y), window)
        except HermlatError:
            continue
        if w is None:
            continue
        qw = lat.q_value(w)
        pair_uw = lat.inner(u, w)
        if pair_uw.is_zero() or alg.vP(pair_uw) != scale_i:
            continue
        if qw.is_zero() or qw.valuation() >= target_norm:
            return complete_hyperbolic_pair(lat, u, w, scale_i)
        # iterate deeper along the same direction
        w0 = w
        q0 = qw
    return None


def _triple_isotropic(lat, lines, qs):
    """Isotropic vector u = l_a + mu*l_b + mu'*l_c with exact norm solving."""
    alg = lat.alg
    depth = 2 * alg.e + 2
    unit_reps = alg.unit_residues_O(min(depth, 6))
    pis = [alg.uniformizer_pow(t) for t in range(alg.e + 2)]
    for a in range(len(lines)):
        for b in range(len(lines)):
            if b == a:
                continue
            for c in range(len(lines)):
                if c in (a, b):
                    continue
                qa, qb, qc = qs[a], qs[b], qs[c]
                for t in range(1, alg.e + 2):
                    for rep in unit_reps:
                        mu_c = pis[t] * rep
                        rem = -(qa + mu_c.norm() * qc)
                        if rem.is_zero():
                            u = vec_add(lines[a], vec_scale(mu_c, lines[c]))
                            if lat.q_value(u).is_zero():
                                return (u, a, None, c)
                            continue
                        ratio = rem / qb
                        if ratio.valuation() % 2 or not alg.in_E_norm_group(ratio):
                            continue
                        mu_b = alg.solve_norm(ratio)
                        u = vec_add(lines[a],
                                    vec_add(vec_scale(mu_b, lines[b]),
                                            vec_scale(mu_c, lines[c])))
                        if lat.q_value(u).is_zero():
                            return (u, a, b, c)
    return None


def _lines_pair_unramified(lat, lines, scale_i):
    """Unramified kinds: two lines always combine into a hyperbolic pair."""
    alg = lat.alg
    if len(lines) < 2:
        return None
    a, b = lines[0], lines[1]
    qa, qb = lat.q_value(a), lat.q_value(b)
    mu = alg.solve_norm_unit(-qa / qb)
    u = vec_add(a, vec_scale(mu, b))
    if not lat.q_value(u).is_zero():
        raise UnsupportedCase("unramified isotropic combination failed")
    return complete_hyperbolic_pair(lat, u, a, scale_i)


def extract_hyperbolic_in_modular(lat, cols, scale_i):
    """Hyperbolic pair inside the modular block spanned by cols, or None.

    Returns (pair | None, pieces) where pieces = (lines, planes) is the
    orthogonal decomposition computed along the way, each plane the
    normalized ``(x, y, k)`` of ``normalize_plane``, least k first."""
    alg = lat.alg
    lines, planes = peel_lines_and_planes(lat, cols)
    if alg.kind != EtaleAlgebra.RAMIFIED:
        if planes:
            # unramified blocks are always normal; planes should not occur
            raise UnsupportedCase("unexpected subnormal piece (unramified)")
        pair = _lines_pair_unramified(lat, lines, scale_i)
        return pair, (lines, planes)
    norm_planes = []
    for (x, y) in planes:
        x, y, k = normalize_plane(lat, x, y, scale_i)
        norm_planes.append((x, y, k))
    norm_planes.sort(key=lambda tr: tr[2])
    # a hyperbolic plane: kill its second vector, complete the pair
    for (x, y, k) in norm_planes:
        if plane_is_hyperbolic(lat, (x, y, k), scale_i):
            u = isotropy_refine(lat, y, [x])
            return complete_with_partners(lat, u, [x, y], scale_i), (lines, norm_planes)
    # combine two pieces: the lowest-norm donor raises another plane
    pieces = [(lat.q_value(c).valuation(), c, None) for c in lines]
    pieces += [(plane[2], plane[0], plane) for plane in norm_planes]
    pieces.sort(key=lambda tr: tr[0])
    for di, (dk, donor, _) in enumerate(pieces):
        for ti, (tk, _, target) in enumerate(pieces):
            if ti == di or target is None or tk < dk:
                continue
            try:
                pair = combine_pieces_pair(lat, donor, target, scale_i)
                return pair, (lines, norm_planes)
            except HermlatError:
                continue
    # normal block: all lines
    pair = lines_isotropic_pair(lat, lines, scale_i)
    return pair, (lines, norm_planes)


def cross_pair_norm_drop(lat, plane1, rest_cols, scale_i):
    """D-plane of norm p^k next to a deeper part of norm p^n with n <= k:
    produce the hyperbolic pair at the plane's scale."""
    alg = lat.alg
    x1, y1, k = plane1
    gram = _gram_of(lat, rest_cols)
    n = _norm_exp_of_gram(alg, gram)
    if n > k:
        raise UnsupportedCase("requires deeper norm <= plane norm")
    z, _ = _norm_attainer(lat, rest_cols, gram, n)
    u0 = _shift_into_trace_ideal(lat, x1, z, scale_i)
    u = isotropy_refine(lat, u0, [y1])
    return complete_with_partners(lat, u, [y1, x1], scale_i)


def _shift_into_trace_ideal(lat, w, z, scale_i):
    """Push Q(w) into Tr(P^scale_i) = p^floor((scale_i+e)/2) by norm shifts
    along z (window <= e-1); UnsupportedCase when a shift fails or does not
    deepen Q(w), or the rounds run out."""
    alg = lat.alg
    qz = lat.q_value(z)
    target = alg.trace_ideal(scale_i)
    for _ in range(4 * (alg.e + 2)):
        q = lat.q_value(w)
        if q.is_zero() or q.valuation() >= target:
            return w
        m = q.valuation()
        if m < qz.valuation():
            raise UnsupportedCase("shift direction below the norm level")
        window = min(max(target - m, 1), max(alg.e - 1, 1))
        try:
            cand = _norm_shift(lat, w, z, q, qz, window)
        except HermlatError:
            cand = None
        if cand is None or not _deepens(lat, cand, m):
            raise UnsupportedCase("norm shift stalled")
        w = cand
    raise UnsupportedCase("norm shift did not converge")


def cross_pair_A_second(lat, donor, plane2, scale_j):
    """Recipe for donor ⟂ A-type plane at scale j (determinant-flip case):
    hyperbolic pair at scale j."""
    alg = lat.alg
    x2, y2, _ = plane2
    qd = lat.q_value(donor)
    u0 = y2
    for _ in range(4 * (alg.e + 2)):
        q = lat.q_value(u0)
        if q.is_zero():
            break
        try:
            cand = _norm_shift(lat, u0, donor, q, qd, 1)
        except HermlatError:
            break
        if cand is None:
            raise UnsupportedCase("donor norm too deep for the balance step")
        if not _deepens(lat, cand, q.valuation()):
            break
        u0 = cand
    u = isotropy_refine(lat, u0, [x2, y2])
    u = primitivize(lat, u)
    # completion partner: x2 with a donor shift into the trace ideal
    w = _shift_into_trace_ideal(lat, x2, donor, scale_j)
    return complete_hyperbolic_pair(lat, u, w, scale_j)


def rearrange_columns(lat, span, donor):
    """Replace the span's deeper plane (x2, y2) (``Span.deeper_plane``) by
    (z, y2) with z = pi^(j-i) * donor + x2: the norm rearrangement
    n -> j - i + k as a basis change.  Returns the new plane (z, y2), or None
    when there is no deeper plane; its complement inside span(span.cols) is
    ``_complement(lat, span.cols, [z, y2])``."""
    alg = lat.alg
    found = span.deeper_plane(lat)
    if found is None:
        return None
    (x2, y2, n2), _ = found
    j, i = span.deeper(lat)[2], span.scale
    qd = lat.q_value(donor)
    k = qd.valuation()
    nprime = j - i + k
    if not 0 < j - i <= n2 - k:
        raise UnsupportedCase("rearrangement needs 0 < j-i <= n-k")
    z = vec_add(vec_scale(alg.uniformizer_pow(j - i), donor), x2)
    qz = lat.q_value(z)
    if qz.is_zero() or qz.valuation() != nprime:
        if n2 == nprime:
            z = x2  # already arranged
        else:
            raise UnsupportedCase("rearranged vector misses the target norm")
    pair = lat.inner(z, y2)
    if pair.is_zero() or alg.vP(pair) != j:
        raise UnsupportedCase("rearranged plane lost its scale")
    return z, y2


# ---------------------------------------------------------------------------
# full hyperbolic-splitting decision with witness
# ---------------------------------------------------------------------------


class Span:
    """span(cols), grouped into Jordan blocks (``groups``, shallowest first;
    ``deeper_cols`` all but the first), with its first block arranged: its
    scale, the hyperbolic pair (u, v, scale) inside it or None, and its
    ``lines`` and ``planes``, each plane normalized as ``(x, y, k)``.
    ``deeper`` and ``deeper_plane`` are computed on first use and kept (in
    a 1-tuple if it may be None).  No field holds the lattice."""

    __slots__ = ("cols", "groups", "scale", "pair", "lines", "planes",
                 "deeper_cols", "_deeper", "_deeper_plane")

    def __init__(self, cols, groups, scale, pair, lines, planes):
        self.cols = cols
        self.groups = groups
        self.scale = scale
        self.pair = None if pair is None else (*pair, scale)
        self.lines = lines
        self.planes = planes
        self.deeper_cols = [c for grp in groups[1:] for c in grp]
        self._deeper = self._deeper_plane = None

    def deeper(self, lat):
        """The deeper part span(deeper_cols): its Jordan column groups, its
        Gram, the scale j of its first block and its norm exponent n."""
        if self._deeper is None:
            alg = lat.alg
            gram = _gram_of(lat, self.deeper_cols)
            groups = _jordan_cols(lat, self.deeper_cols)
            j = _min_vP_sym(alg, _gram_of(lat, groups[0]))
            self._deeper = (groups, gram, j, _norm_exp_of_gram(alg, gram))
        return self._deeper

    def deeper_plane(self, lat):
        """The deeper part's first plane normalized at j, with the deeper
        columns beside it; None when its first block has no plane."""
        if self._deeper_plane is None:
            groups, _, j, _ = self.deeper(lat)
            lines2, planes2 = peel_lines_and_planes(lat, groups[0])
            found = None
            if planes2:
                beside = [c for grp in groups[1:] for c in grp]
                beside += [v for xy in planes2[1:] for v in xy] + lines2
                found = (normalize_plane(lat, *planes2[0], j), beside)
            self._deeper_plane = (found,)
        return self._deeper_plane[0]


def splits_hyperbolic(lat):
    """Explicit hyperbolic pair splitting L, or None when the classification
    rules one out.  Returns (u, v, scale_exp) with <u,v> = pi^scale_exp.
    Found once, from ``standard_span(lat)`` on, and kept on L."""
    if lat._hyperbolic is None:
        lat._hyperbolic = (_search_pair(lat),)
    return lat._hyperbolic[0]


def _search_pair(lat):
    span = standard_span(lat) if lat.n else None
    while span is not None:
        found = span.pair or _cross_pair(lat, span)
        if found is not None:
            return found
        span = _next_round(lat, span)
    return None


def _next_round(lat, span):
    """The span left when the first piece of the span's first block is
    dropped, or None.  When that block is one piece, what is left is the
    deeper part, whose split is reused."""
    pieces = [[c] for c in span.lines] + [[x, y] for x, y, _ in span.planes]
    if len(pieces) == 1:
        if not span.deeper_cols:
            return None
        return _arrange_first_block(lat, span.deeper_cols, span.deeper(lat)[0])
    cols = [v for piece in pieces[1:] for v in piece] + span.deeper_cols
    return _arrange_first_block(lat, cols, _jordan_cols(lat, cols))


def standard_span(lat):
    """The span of the standard basis of L, kept on L and grouped by the
    blocks of ``lat.jordan_split()``, so L is not split again."""
    if lat._span is None:
        lat._span = _arrange_first_block(
            lat, list(cols_of(identity(lat.alg, lat.n))),
            [list(blk.cols) for blk in lat.jordan_split().blocks])
    return lat._span


def _jordan_cols(lat, cols):
    """Group cols (after projection) into Jordan blocks of span(cols);
    returns the list of column groups, shallowest scale first."""
    alg = lat.alg
    gram = _gram_of(lat, cols)
    sub = HermitianLattice(alg, gram, _skip_checks=True)
    split = sub.jordan_split()
    groups = []
    for blk in split.blocks:
        group = []
        for local in blk.cols:
            full = None
            for cf, base in zip(local, cols):
                term = vec_scale(cf, base)
                full = term if full is None else vec_add(full, term)
            group.append(full)
        groups.append(group)
    return groups


def _arrange_first_block(lat, cols, groups):
    """The ``Span`` of cols, whose Jordan column groups are ``groups``:
    reduce the minimal-scale block and try to extract a hyperbolic pair
    inside it."""
    first = groups[0]
    scale_i = _min_vP_sym(lat.alg, _gram_of(lat, first))
    pair, (lines, planes) = extract_hyperbolic_in_modular(lat, first, scale_i)
    return Span(cols, groups, scale_i, pair, lines, planes)


def _cross_pair(lat, span):
    """The hyperbolic pair (u, v, scale) across the span's first block and
    its deeper part, or None when the classification excludes it."""
    alg = lat.alg
    if alg.kind != EtaleAlgebra.RAMIFIED:
        return None
    if not span.deeper_cols:
        return None
    lines, planes, scale_i = span.lines, span.planes, span.scale
    groups, _, j, n = span.deeper(lat)

    if len(planes) == 1 and not lines:
        x1, _, k = planes[0]
        if n <= k:
            return (*cross_pair_norm_drop(lat, planes[0], span.deeper_cols, scale_i),
                    scale_i)
        if j - scale_i <= n - k:
            return _pair_after_rearrange(lat, span, x1, k)
        return None

    if lines and not planes:
        donor = min(lines, key=lambda c: lat.q_value(c).valuation())
        k = lat.q_value(donor).valuation()
        m_norm = _norm_exp_of_gram(alg, _gram_of(lat, groups[0]))
        if alg.vK_in_P(m_norm) == j:
            return None  # the deeper part's first block is normal
        if j - scale_i <= n - k and n == m_norm:
            return _pair_after_rearrange(lat, span, donor, k)
        return None
    return None


def _pair_after_rearrange(lat, span, donor, k):
    """Arrange the first plane of the span's deeper part (first block at
    scale j) to norm p^(j-i+k), then build the hyperbolic pair via the
    H-type or A-type recipe; None if excluded."""
    alg = lat.alg
    found = span.deeper_plane(lat)
    if found is None:
        return None
    (x2, y2, n2), rest2 = found
    j, i = span.deeper(lat)[2], span.scale
    if n2 > j - i + k:
        z, y2b = rearrange_columns(lat, span, donor)
        x2, y2, n2 = normalize_plane(lat, z, y2b, j)
    if plane_is_hyperbolic(lat, (x2, y2, n2), j):
        return (*combine_pieces_pair(lat, donor, (x2, y2, n2), j), j)
    if i + alg.e - 2 * k > j - i:
        return (*cross_pair_A_second(lat, donor, (x2, y2, n2), j), j)
    # remaining shape: a second deeper piece of norm <= n' next to the plane
    if rest2:
        n_rest = _norm_exp_of_gram(alg, _gram_of(lat, rest2))
        if n_rest <= n2:
            return (*cross_pair_norm_drop(lat, (x2, y2, n2), rest2, j), j)
    return None


# ---------------------------------------------------------------------------
# public rearrangement of a deeper Jordan block (norm adjustment)
# ---------------------------------------------------------------------------


def rearrange_jordan(lat):
    """Rewrite L = P ⟂ M (P the minimal-scale modular block of norm p^k, M
    deeper with scale P^j and norm p^n, 0 < j-i <= n-k) into an isometric
    lattice whose deeper block has norm p^(j-i+k).

    Returns (new_lattice, transform); raises UnsupportedCase when the
    inputs do not satisfy the rearrangement hypotheses."""
    alg = lat.alg
    if alg.kind != EtaleAlgebra.RAMIFIED:
        raise UnsupportedCase("rearrangement applies to the ramified kind")
    blocks = lat.jordan_split().blocks
    if len(blocks) < 2:
        raise UnsupportedCase("need at least two Jordan blocks")
    span, first = standard_span(lat), blocks[0]
    k = first.norm_exp
    _, _, j, n = span.deeper(lat)
    if not 0 < j - span.scale <= n - k:
        raise UnsupportedCase("rearrangement needs 0 < j-i <= n-k")
    donor, _ = _norm_attainer(lat, first.cols, first.gram, k)
    plane = rearrange_columns(lat, span, donor)
    if plane is None:
        raise UnsupportedCase("deeper block has no subnormal plane")
    new_cols = _complement(lat, span.cols, plane) + list(plane)
    t = mat_from_cols(new_cols)
    gram = _gram_of(lat, new_cols)
    new_lat = HermitianLattice(alg, gram)
    ok, failed, _ = isometry_conditions(lat, new_lat)
    if not ok:
        raise UnsupportedCase(
            f"rearranged lattice failed the isometry check (condition {failed})")
    return new_lat, t

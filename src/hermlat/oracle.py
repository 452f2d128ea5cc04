"""Brute-force oracles and seeded random data for property tests.

The enumeration oracles recompute trace-ideal exponents and norm-residue
images directly from residue systems, independently of the closed forms used
by the algebra layer; property tests compare the two routes.
"""

from __future__ import annotations

import random

from .errors import HermlatError, UnsupportedCase
from .etale import EtaleAlgebra
from .classify import splits_hyperbolic
from .isometries import (
    Symmetry,
    apply_word,
    in_unitary_group,
    make_eichler,
)
from .linalg import _dot, basis_vector, identity, vec_add, vec_scale, vec_sub


def enumerate_trace_image(alg, i, modulus_exp):
    """Minimal v_p over Tr of representatives of P^i, by enumeration modulo
    P^(i + modulus_exp); requires two consecutive moduli to agree."""
    if alg.kind != EtaleAlgebra.RAMIFIED:
        raise HermlatError("trace-image enumeration is for the ramified kind")
    vals = []
    for m in (modulus_exp, modulus_exp + 1):
        best = None
        pi_i = alg.uniformizer_pow(i)
        for r in alg.residue_system_O(m):
            t = (pi_i * r).trace()
            if t.is_zero():
                continue
            v = t.valuation()
            best = v if best is None else min(best, v)
        vals.append(best)
    if vals[0] != vals[1]:
        raise UnsupportedCase("trace image enumeration did not stabilize")
    return vals[0]


def enumerate_norm_image(alg, modulus_exp):
    """Set of canonical keys mod 𝔭_K^modulus_exp (``key_mod_p``: the power
    of the maximal ideal of K, not of p) of Nr(O^x), by taking the norm of
    every unit of O/P^(2*modulus_exp), together with the full set of unit
    keys, as (image, units).  The brute-force reference for the generated
    subgroup of ``EtaleAlgebra._unit_norm_keys``."""
    image = set()
    units = set()
    K = alg.base
    depth = 2 * modulus_exp if alg.kind == EtaleAlgebra.RAMIFIED else modulus_exp
    for x in alg.unit_residues_O(max(depth, 1)):
        image.add(alg.key_mod_p(x.norm(), modulus_exp))
    for r in K.residue_system(modulus_exp):
        if not r.is_zero() and r.valuation() == 0:
            units.add(alg.key_mod_p(r, modulus_exp))
    return image, units


def norm_image_index(alg, modulus_exp):
    image, units = enumerate_norm_image(alg, modulus_exp)
    if len(units) % len(image):
        raise UnsupportedCase("norm image does not evenly divide the units")
    return len(units) // len(image)


def random_vector(lat, rng, depth=3):
    alg = lat.alg
    K = alg.base
    coords = []
    for _ in range(lat.n):
        a = K.from_int(rng.randrange(-2 ** depth, 2 ** depth))
        b = K.from_int(rng.randrange(-2 ** depth, 2 ** depth))
        coords.append(alg.element(a, b))
    return tuple(coords)


def random_symmetry(lat, rng):
    alg = lat.alg
    for _ in range(60):
        s = random_vector(lat, rng)
        if all(c.is_zero() for c in s):
            continue
        gs = lat.gram_conj(s)
        qs = _dot(s, gs)
        if qs.is_zero():
            continue
        pairings = [_dot(b, gs) for b in lat.basis()]
        for sigma in _sigma_candidates(lat, qs, rng):
            if sigma.is_zero():
                continue
            # cheap sufficient test <L,s> inside sigma*O before the exact one
            vs = alg.valuation_P(sigma)
            ok = True
            for e in pairings:
                if e.is_zero():
                    continue
                ve = alg.valuation_P(e)
                if ve.a < vs.a or ve.b < vs.b:
                    ok = False
                    break
            if not ok:
                continue
            g = Symmetry(s, sigma)
            try:
                if in_unitary_group(lat, g):
                    return g
            except HermlatError:
                continue
    raise UnsupportedCase("no random symmetry found")


def _sigma_candidates(lat, qs, rng):
    alg = lat.alg
    qk = qs.as_K()
    if alg.kind == EtaleAlgebra.SPLIT:
        K = alg.base
        for _ in range(6):
            a = K.from_int(rng.randrange(-8, 9))
            other = qk - a
            if a.is_zero() or other.is_zero():
                continue
            yield alg.element(a, other)
        return
    base = alg.from_K(qk) * alg.rho()
    yield base
    e = alg.e
    v0 = alg.vP(base) if not base.is_zero() else None
    lo = alg.vP(alg.from_K(qk)) - 2 * e - 2
    for t in range(max(lo, -2 * e - 2), (v0 if v0 is not None else 4) + 2):
        if (t - e) % 2:
            continue
        try:
            yield base + alg.special_skew(t)
        except HermlatError:
            return


def random_eichler(lat, rng):
    """A random Eichler isometry on the pair ``splits_hyperbolic`` keeps on L."""
    found = splits_hyperbolic(lat)
    if found is None:
        return None
    u, v, s_exp = found
    alg = lat.alg
    gu, gv = lat.gram_conj(u), lat.gram_conj(v)
    puv = _dot(u, gv)
    pvu = _dot(v, gu)
    for _ in range(40):
        raw = random_vector(lat, rng)
        # project into the orthogonal complement of the pair
        y = vec_sub(raw, vec_add(vec_scale(_dot(raw, gu) / pvu, v),
                                 vec_scale(_dot(raw, gv) / puv, u)))
        # force <y, L> inside <u,v> O
        need = 0
        for kdx in range(lat.n):
            q = lat.inner(y, basis_vector(alg, lat.n, kdx))
            if q.is_zero():
                continue
            vq = alg.valuation_P(q)
            vp = alg.valuation_P(puv)
            need = max(need, vp.a - vq.a, vp.b - vq.b)
        if need > 0:
            y = vec_scale(alg.uniformizer_pow(need), y)
        if all(c.is_zero() for c in y):
            continue
        qy = lat.inner(y, y).as_K()
        if not qy.is_zero() and qy.valuation() < alg.trace_ideal_of(puv):
            continue
        try:
            e = make_eichler(lat, u, v, y)
        except HermlatError:
            continue
        if in_unitary_group(lat, e):
            return e
    return None


def random_generator(lat, seed_or_rng):
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) \
        else random.Random(seed_or_rng)
    if rng.random() < 0.3:
        e = random_eichler(lat, rng)
        if e is not None:
            return e
    return random_symmetry(lat, rng)


def random_unitary(lat, k, seed):
    """Product of k random generators; deterministic in the seed."""
    rng = random.Random(seed)
    gens = [random_generator(lat, rng) for _ in range(k)]
    return apply_word(lat, gens, identity(lat.alg, lat.n)), gens

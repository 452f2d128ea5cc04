"""Quadratic etale algebras E over a local field K.

E is either K x K (split), an unramified quadratic field extension (inert),
or a ramified quadratic extension (ramified).  The module carries the
involution, trace and norm, the ideal P of the integral closure O, the
different exponent e, and the special elements rho (trace one, minimal
denominator), eta (skew), and u0 (unit whose 1+u0 represents the nontrivial
norm coset) that the lattice algorithms consume.

Field-kind elements are stored as coordinates x0 + x1*g where g is a root of
the defining polynomial x^2 + b*x + c; conjugation sends g to -b - g.

Flat kernel.  When E is a field over K = Q_p (``base.nbasis == 1``), ``*``,
``conj``, ``trace``, ``norm`` and ``linalg._dot`` work on the raw
``(co[0], shift, ncap)`` integers of the coordinates and build
``FieldElement``s only for the coordinates of the result.  The invariant:
every intermediate is the one the composed formula forms with
``FieldElement`` operations, in the same order, by the same rule
(``localfield._mul_raw`` and ``_add_raw``, which ``FieldElement`` itself
uses), so each result is the same ``(co, shift, ncap)`` triple.  A product
or sum keeps at least the least ncap of its operands, so no intermediate
can fall below the precision guard; the guard runs on the results.  Each
operand's valuation is taken once per product, and those of b and c once,
when the algebra is built.  Split algebras and bases with ``nbasis > 1``
go through the composed path.  A product of field kind with a zero factor
multiplies no integers: the flat kernel works out the shift and ncap of
each intermediate inline, and over ``nbasis > 1`` the zero products of K
are added by precision alone (the zero rule of ``localfield``).
"""

from __future__ import annotations

import math

from .errors import HermlatError, UnsupportedCase
from .localfield import (
    FieldElement,
    _add_raw,
    _int_valuation,
    _mul_raw,
    _normal,
    gf_add,
    gf_elements,
    gf_mul,
)

INF = math.inf

NORM = "Norm"
NONNORM = "NonNorm"


class IdealExp:
    """Exponent data of a fractional O-ideal: P^k (symmetric) or, in the
    split case, p^a x p^b.  `INF` components mark the zero ideal."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        self.a = a
        self.b = a if b is None else b

    @property
    def symmetric(self):
        return self.a == self.b

    def exponent(self):
        if not self.symmetric:
            raise HermlatError(f"ideal {self} is not conjugation-stable")
        return self.a

    def conj(self):
        return IdealExp(self.b, self.a)

    def join(self, other):
        """Ideal sum (componentwise min of exponents)."""
        return IdealExp(min(self.a, other.a), min(self.b, other.b))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.symmetric and self.a == other
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        if self.symmetric:
            return f"P^{self.a}"
        return f"(p^{self.a} x p^{self.b})"


class EtaleAlgebra:
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"

    def __init__(self, kind, base, b=None, c=None):
        self.kind = kind
        self.base = base
        self.dyadic = base.p == 2
        if kind == self.SPLIT:
            self.b = None
            self.c = None
            self.e = 0
            self._b_zero = True
            self._flat = False
        else:
            self.b = b if isinstance(b, FieldElement) else base.from_int(b)
            self.c = c if isinstance(c, FieldElement) else base.from_int(c)
            self._b_zero = self.b.is_zero()
            self._flat = base.nbasis == 1
            if self._flat:
                self._b_raw = _raw(self.b)
                self._c_raw = _raw(self.c)
                self._two_raw = _raw(base.from_int(2))
            if kind == self.RAMIFIED:
                # different exponent: valuation of g'(Pi) = 2*Pi + b
                self.e = self.vP(self.gen() * 2 + self.from_K(self.b))
            else:
                self.e = 0
        self.zero = self.from_K(base.zero)
        self.one = self.from_K(base.one)
        self._upows = [self.one]  # ramified kind: powers of g, filled on use
        # tables filled on use (an lru_cache on a method would hold self)
        self._residues = {}  # m -> residue_system_O(m) as a tuple
        self._unit_residues = {}  # m -> unit_residues_O(m)
        self._norm_keys = None  # _unit_norm_keys()
        self._norm_key_units = {}  # (k, target) -> _unit_of_norm_key(k, target)
        self._rho = None
        self._eta = None
        self._u0 = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def split(cls, base):
        return cls(cls.SPLIT, base)

    @classmethod
    def quadratic(cls, base, b, c):
        """Field extension defined by x^2 + b*x + c; classifies inert/ramified."""
        b = b if isinstance(b, FieldElement) else base.from_int(b)
        c = c if isinstance(c, FieldElement) else base.from_int(c)
        vb = None if b.is_zero() else b.valuation()
        vc = None if c.is_zero() else c.valuation()
        if vc == 1 and (vb is None or vb >= 1):
            return cls(cls.RAMIFIED, base, b, c)
        if (vb is None or vb >= 0) and (vc is None or vc >= 0):
            if cls._residue_irreducible(base, b, c):
                return cls(cls.INERT, base, b, c)
        raise HermlatError(
            "defining polynomial must be Eisenstein or irreducible mod p")

    @staticmethod
    def _residue_irreducible(base, b, c):
        rb, rc = b.residue(), c.residue()
        red = base._respoly
        p = base.p
        for x in gf_elements(p, base.f):
            val = gf_add(gf_mul(x, x, p, red),
                         gf_add(gf_mul(rb, x, p, red), rc, p), p)
            if not any(val):
                return False
        return True

    # -- elements -----------------------------------------------------------

    def element(self, x0, x1):
        x0 = x0 if isinstance(x0, FieldElement) else self.base.from_int(x0)
        x1 = x1 if isinstance(x1, FieldElement) else self.base.from_int(x1)
        return AlgElement(self, x0, x1)

    def from_K(self, x):
        x = x if isinstance(x, FieldElement) else self.base.from_int(x)
        if self.kind == self.SPLIT:
            return AlgElement(self, x, x)
        return AlgElement(self, x, self.base.zero)

    def from_int(self, n):
        return self.from_K(self.base.from_int(n))

    def divider(self, d):
        """The map x -> x / d, its reciprocal part made once: conj(d) and
        1/N(d), or the inverse of each slot when split.  Each quotient is
        x * conj(d) * (1/N(d)), or x0 / d0 and x1 / d1 slot by slot, the
        products that ``/`` forms."""
        if self.kind == self.SPLIT:
            if d.x0.is_zero() or d.x1.is_zero():
                raise HermlatError(
                    "split divisor has a zero component at precision")
            i0, i1 = d.x0._invert(), d.x1._invert()
            return lambda x: AlgElement(self, x.x0 * i0, x.x1 * i1)
        nr = d.norm()
        if nr.is_zero():
            raise HermlatError("divisor is zero at precision")
        cd, inv = d.conj(), self.from_K(nr._invert())
        return lambda x: x * cd * inv

    def gen(self):
        """The second basis generator: (1,0) for split, the root g otherwise."""
        if self.kind == self.SPLIT:
            return AlgElement(self, self.base.one, self.base.zero)
        return AlgElement(self, self.base.zero, self.base.one)

    def uniformizer(self):
        """Generator of the largest conjugation-invariant proper ideal P."""
        if self.kind == self.RAMIFIED:
            return self.gen()
        pi = self.base.uniformizer()
        return self.from_K(pi)

    def uniformizer_pow(self, k):
        if self.kind == self.RAMIFIED:
            if k >= 0:
                # g^k, each power made once by the chain g^(k-1) * g
                pows = self._upows
                if k >= len(pows):
                    g = self.gen()
                    while k >= len(pows):
                        pows.append(pows[-1] * g)
                return pows[k]
            return self.one / self.uniformizer_pow(-k)
        return self.from_K(self.base.uniformizer_pow(k))

    # -- valuations ----------------------------------------------------------

    def vP(self, x):
        """Normalized P-adic valuation; field kinds only."""
        if self.kind == self.SPLIT:
            raise HermlatError("split algebra has componentwise valuations")
        v0 = x.x0.valuation_or_none()
        v1 = x.x1.valuation_or_none()
        if v0 is None and v1 is None:
            raise HermlatError("element is zero at working precision")
        if self.kind == self.INERT:
            return min(v for v in (v0, v1) if v is not None)
        cands = []
        if v0 is not None:
            cands.append(2 * v0)
        if v1 is not None:
            cands.append(2 * v1 + 1)
        return min(cands)

    def valuation_P(self, x):
        """IdealExp of the principal ideal xO."""
        if self.kind == self.SPLIT:
            v0 = x.x0.valuation_or_none()
            v1 = x.x1.valuation_or_none()
            if v0 is None and v1 is None:
                raise HermlatError("element is zero at working precision")
            return IdealExp(INF if v0 is None else v0, INF if v1 is None else v1)
        return IdealExp(self.vP(x))

    def vK_in_P(self, k_exp):
        """v_P of an element of K with v_p = k_exp."""
        return 2 * k_exp if self.kind == self.RAMIFIED else k_exp

    # -- special elements -----------------------------------------------------

    def rho(self):
        """Element with Tr(rho) = 1, of maximal ideal P^(1-e) in the ramified case."""
        if self._rho is not None:
            return self._rho
        K = self.base
        if self.kind == self.SPLIT:
            self._rho = self.element(K.one, K.zero)
        elif self.kind == self.RAMIFIED:
            g = self.gen()
            self._rho = g / (g * 2 + self.from_K(self.b))
        else:
            if not self.b.is_zero() and self.b.valuation() == 0:
                self._rho = self.element(K.zero, -self.b.invert_unit())
            else:
                self._rho = self.from_K(K.one / 2)
        assert self._rho.trace() == K.one
        return self._rho

    def eta(self):
        """Canonical skew element: g'(gen) = 2*gen + b (split: (1,-1))."""
        if self._eta is not None:
            return self._eta
        if self.kind == self.SPLIT:
            self._eta = self.element(self.base.one, self.base.from_int(-1))
        else:
            self._eta = self.gen() * 2 + self.from_K(self.b)
        assert self._eta.trace().is_zero()
        return self._eta

    def special_skew(self, target_valuation):
        """Skew element of the requested valuation (parity must match e mod 2)."""
        if self.kind == self.SPLIT:
            lam = self.base.uniformizer_pow(target_valuation)
            return AlgElement(self, lam, -lam)
        eta = self.eta()
        ve = self.vP(eta)
        if (target_valuation - ve) % 2 != 0:
            raise HermlatError(
                f"skew elements have valuation = {ve % 2} mod 2; "
                f"requested {target_valuation}")
        shift = (target_valuation - ve) // 2
        return eta * self.from_K(self.base.uniformizer_pow(shift))

    def u0(self):
        """u0 in o with u0*o = p^(e-1) and 1 + u0 a non-norm unit (ramified)."""
        if self.kind != self.RAMIFIED:
            raise HermlatError("u0 is defined for ramified algebras")
        if self._u0 is not None:
            return self._u0
        K = self.base
        pk = K.uniformizer_pow(self.e - 1)
        for r in K.unit_residues(2):
            cand = pk * r
            one_plus = K.one + cand
            if one_plus.is_zero() or one_plus.valuation() != 0:
                continue
            if self.norm_class(one_plus) == NONNORM:
                self._u0 = cand
                return cand
        raise UnsupportedCase("no u0 found; enumeration or precision bug")

    # -- trace ideals -----------------------------------------------------------

    def different_exponent(self):
        """e with different = P^e; ramified kind only (0 by convention
        otherwise, but asking is treated as a usage error)."""
        if self.kind != self.RAMIFIED:
            raise HermlatError("the different exponent is for the ramified kind")
        return self.e

    def trace_ideal(self, i):
        """Exponent a with Tr(P^i) = p^a; ramified kind."""
        if self.kind != self.RAMIFIED:
            raise HermlatError("trace_ideal applies to the ramified kind")
        return (i + self.e) // 2

    def trace_ideal_of(self, x):
        """Exponent of the o-ideal Tr(x*O); INF for exact zero."""
        if x.is_zero():
            return INF
        if self.kind == self.SPLIT:
            v = self.valuation_P(x)
            return min(v.a, v.b)
        v = self.vP(x)
        if self.kind == self.INERT:
            return v
        return self.trace_ideal(v)

    def solve_trace(self, c, t):
        """mu in O with Tr(mu*c) = t exactly; raises if t is not in Tr(c*O)."""
        if not isinstance(t, FieldElement):
            t = self.base.from_int(t)
        if t.is_zero():
            return self.zero
        if c.is_zero():
            raise HermlatError("c = 0 but t != 0")
        vt = t.valuation()
        if self.kind == self.SPLIT:
            cands = []
            if not c.x0.is_zero():
                cands.append((c.x0.valuation(), 0))
            if not c.x1.is_zero():
                cands.append((c.x1.valuation(), 1))
            v, slot = min(cands)
            if vt < v:
                raise HermlatError("t is not in the trace ideal of c*O")
            if slot == 0:
                return AlgElement(self, t / c.x0, self.base.zero)
            return AlgElement(self, self.base.zero, t / c.x1)
        a = c.trace()
        bq = (self.gen() * c).trace()
        va = INF if a.is_zero() else a.valuation()
        vb = INF if bq.is_zero() else bq.valuation()
        if va <= vb:
            if vt < va:
                raise HermlatError("t is not in the trace ideal of c*O")
            return self.from_K(t / a)
        if vt < vb:
            raise HermlatError("t is not in the trace ideal of c*O")
        return self.gen() * self.from_K(t / bq)

    # -- canonical residues -------------------------------------------------------

    def residue_system_O(self, m):
        return list(self._residue_system_O(m))

    def _residue_system_O(self, m):
        if m not in self._residues:
            self._residues[m] = tuple(self._residue_walk(m))
        return self._residues[m]

    def _residue_walk(self, m):
        """The residues of O modulo P^m (p^m outside the ramified kind),
        yielded one at a time in the order of residue_system_O(m): the
        digits sum a_i * step^i by Horner steps r * step + lift from the top
        digit, the top digit in the outer loop.  The one enumeration order
        of O-residues; the tables and the norm-key search all read it."""
        if m <= 0:
            yield self.zero
            return
        K = self.base
        if self.kind == self.SPLIT:
            reps = K.residue_system(m)
            yield from (AlgElement(self, a, b) for a in reps for b in reps)
            return
        if self.kind == self.INERT:
            lifts = [self.element(a, b)
                     for a in K.residue_lifts() for b in K.residue_lifts()]
            step = self.from_K(K.uniformizer())
        else:
            lifts = [self.from_K(r) for r in K.residue_lifts()]
            step = self.gen()

        def digits(r, left):
            if left == 1:
                for lift in lifts:
                    yield r * step + lift
            else:
                for lift in lifts:
                    yield from digits(r * step + lift, left - 1)

        yield from digits(self.zero, m)

    def unit_residues_O(self, m):
        """The units of residue_system_O(m), in its order (a kept tuple)."""
        if m not in self._unit_residues:
            self._unit_residues[m] = tuple(
                r for r in self._residue_system_O(m) if r.is_unit())
        return self._unit_residues[m]

    def key_mod_p(self, x, m):
        """Canonical hashable key of an integral x in K modulo 𝔭_K^m, the
        m-th power of the maximal ideal of o (p^m only when K is unramified
        over Q_p): coordinate k, of t-degree tdeg, is kept modulo
        p^ceil((m - tdeg)/d)."""
        K = self.base
        if m <= 0:
            return ()
        co, shift = x.flat()
        p, d, f = K.p, K.d, K.f
        if shift > 0:
            pk = p ** shift
            co = tuple(c * pk for c in co)
        elif shift < 0:
            pk = p ** (-shift)
            if any(c % pk for c in co):
                raise HermlatError("key_mod_p of a non-integral element")
            co = tuple(c // pk for c in co)
        key = []
        for k, cval in enumerate(co):
            tdeg = k // f
            digits = max(0, -(-(m - tdeg) // d))  # ceil((m - tdeg)/d)
            key.append(cval % (p ** digits) if digits else 0)
        return tuple(key)

    # -- norm classes ----------------------------------------------------------

    def _unit_norm_keys(self):
        """Keys mod 𝔭^e of Nr(O^x), ramified kind: the subgroup of
        (o/𝔭^e)^x generated by the norms of generators of (O/P^e)^x.

        Nr(u) mod 𝔭^e depends on u mod P^e only, as Tr(P^e) = 𝔭^e and
        Nr(P^e) = 𝔭^e.  The nonzero residue lifts and 1 + b*g^i, for
        1 <= i < e and b a lift of an F_p-basis of the residue field,
        generate (O/P^e)^x; a breadth-first closure over keys multiplies
        their norms out.  Nr(O^x) has index 2 in o^x and contains
        1 + 𝔭^e (O'Meara, Introduction to Quadratic Forms, §63),
        so the closure must hold half of the (q-1)*q^(e-1) unit keys."""
        if self._norm_keys is None:
            K, e = self.base, self.e
            basis = [self.from_K(K.from_coeffs((0,) * a + (1,)))
                     for a in range(K.f)]  # w^a, 0 <= a < f
            gens = [self.from_K(r) for r in K.residue_lifts()[1:]]
            gens += [self.one + b * self.uniformizer_pow(i)
                     for i in range(1, e) for b in basis]
            norms = [u.norm() for u in gens]
            keys = {self.key_mod_p(K.one, e)}
            frontier = [K.one]
            while frontier:
                fresh = []
                for x in frontier:
                    for n in norms:
                        y = x * n
                        key = self.key_mod_p(y, e)
                        if key not in keys:
                            keys.add(key)
                            fresh.append(y)
                frontier = fresh
            if 2 * len(keys) != (K.q - 1) * K.q ** (e - 1):
                raise UnsupportedCase(
                    f"norm keys mod pi_K^{e}: {len(keys)} classes, not half of "
                    f"the {(K.q - 1) * K.q ** (e - 1)} unit classes")
            self._norm_keys = frozenset(keys)
        return self._norm_keys

    def norm_class(self, a):
        """Decide a in Nr(O^x) for a unit a of o."""
        if not isinstance(a, FieldElement):
            a = self.base.from_int(a)
        if a.is_zero() or a.valuation() != 0:
            raise HermlatError("norm_class requires a unit of o")
        if self.kind == self.SPLIT:
            return NORM
        if self.kind == self.INERT:
            return NORM
        return NORM if self.key_mod_p(a, self.e) in self._unit_norm_keys() else NONNORM

    def in_E_norm_group(self, a):
        """Decide a in Nr(E^x) for a in K^x."""
        if self.kind == self.SPLIT:
            return True
        v = a.valuation()
        if self.kind == self.INERT:
            return v % 2 == 0
        nrpi = self.uniformizer().norm()
        red = a / nrpi ** v
        return self.norm_class(red) == NORM

    def solve_norm_approx(self, a, k):
        """epsilon in O^x with a = Nr(epsilon) mod 𝔭^k; k <= e-1 always solvable."""
        if self.kind == self.SPLIT:
            return AlgElement(self, a, self.base.one)
        if k <= 0:
            return self.one
        eps = self._unit_of_norm_key(k, self.key_mod_p(a, k))
        if eps is None:
            raise HermlatError(
                f"no unit norm matches mod pi_K^{k}; class obstruction")
        return eps

    def _unit_of_norm_key(self, k, target):
        """The first unit residue mod P^(2k) (p^k unramified) whose norm has
        key `target` mod 𝔭^k, or None.  The residues are walked one at a
        time and the walk stops at the first hit, so no table is built."""
        if (k, target) not in self._norm_key_units:
            depth = 2 * k if self.kind == self.RAMIFIED else k
            self._norm_key_units[(k, target)] = next(
                (u for u in self._residue_walk(max(depth, 1))
                 if u.is_unit() and self.key_mod_p(u.norm(), k) == target),
                None)
        return self._norm_key_units[(k, target)]

    def solve_norm_unit(self, a):
        """epsilon in O^x with Nr(epsilon) = a exactly (a must be a unit norm)."""
        if self.kind == self.SPLIT:
            return AlgElement(self, a, self.base.one)
        e = self.e
        start = e + 1 if self.kind == self.RAMIFIED else 1
        eps = self.solve_norm_approx(a, start)
        prev = None
        for _ in range(200):
            diff = a / eps.norm() - self.base.one
            if diff.is_zero():
                return eps
            cur = diff.valuation()
            if prev is not None and cur <= prev:
                raise HermlatError("norm-equation lifting stalled")
            prev = cur
            # Nr(1+z) = 1 + Tr(z) + Nr(z); one second-order correction pass
            z = self.solve_trace(self.one, diff)
            z = self.solve_trace(self.one, diff - z.norm())
            eps = eps * (self.one + z)
        raise HermlatError("norm-equation lifting did not converge")

    def solve_norm(self, a):
        """epsilon in E with Nr(epsilon) = a exactly, for a in Nr(E^x):
        pi^k * solve_norm_unit(a / Nr(pi)^k) with k = v(a) / v(Nr(pi))."""
        if self.kind == self.SPLIT:
            return self.solve_norm_unit(a)
        nrpi = self.uniformizer().norm()
        k = a.valuation() // nrpi.valuation()
        return self.uniformizer_pow(k) * self.solve_norm_unit(a / nrpi ** k)

    # -- the normic defect -------------------------------------------------------

    def normic_defect(self, a):
        """sup over beta of v_p(a - Nr(beta)) as an exponent; INF iff a in Nr(E).

        A ramified non-norm a = Nr(pi)^v * unit has defect v + e - 1:
        - at most: if v(a - Nr(beta)) >= v + e, then a / Nr(beta) is in
          1 + 𝔭^e, which is a norm (O'Meara §63), so a would be one;
        - at least: Nr(O^x) has index 2 in o^x and 1 + u0, v(u0) = e - 1,
          is not a norm, so unit = Nr(beta) (1 + u0) for a unit beta, and
          a - Nr(pi^v beta) has valuation v + e - 1."""
        if self.kind == self.SPLIT:
            return INF
        if not isinstance(a, FieldElement):
            a = self.base.from_int(a)
        if a.is_zero():
            return INF
        v = a.valuation()
        if v < 0:
            raise HermlatError("normic_defect requires an integral argument")
        if self.in_E_norm_group(a):
            return INF
        if self.kind == self.INERT:
            # v is odd here (even-valuation elements reduce to unit norms)
            return v
        return v + self.e - 1


class AlgElement:
    """Element of a quadratic etale algebra: components (split) or coordinates
    in the basis {1, g} (field kinds)."""

    __slots__ = ("alg", "x0", "x1")

    def __init__(self, alg, x0, x1):
        self.alg = alg
        self.x0 = x0
        self.x1 = x1

    def _coerce(self, other):
        if isinstance(other, AlgElement):
            if other.alg is not self.alg:
                raise HermlatError("elements of different algebras")
            return other
        if isinstance(other, FieldElement):
            return self.alg.from_K(other)
        if isinstance(other, int):
            return self.alg.from_int(other)
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not AlgElement or other.alg is not self.alg:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return AlgElement(self.alg, self.x0 + other.x0, self.x1 + other.x1)

    __radd__ = __add__

    def __neg__(self):
        return AlgElement(self.alg, -self.x0, -self.x1)

    def __sub__(self, other):
        if other.__class__ is not AlgElement or other.alg is not self.alg:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        # in place: the same triples as self + (-other)
        return AlgElement(self.alg, self.x0 - other.x0, self.x1 - other.x1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not AlgElement or other.alg is not self.alg:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        a = self.alg
        if a._flat:
            c0, s0, n0, c1, s1, n1 = _flat_product(a, self, other)
            K = a.base
            return AlgElement(a, _normal(K, (c0,), s0, n0), _normal(K, (c1,), s1, n1))
        if a.kind == EtaleAlgebra.SPLIT:
            return AlgElement(a, self.x0 * other.x0, self.x1 * other.x1)
        x0, x1, y0, y1 = self.x0, self.x1, other.x0, other.x1
        if not (any(x0.co) or any(x1.co)) or not (any(y0.co) or any(y1.co)):
            # a zero factor: every product and sum is a zero (see "Normal
            # form" in localfield), so the sums need only precision data
            cross = x1 * y1
            new1 = (x0 * y1, x1 * y0) if a._b_zero else (x0 * y1, x1 * y0, a.b * cross)
            return AlgElement(a, _zero_sum(a.base, (x0 * y0, a.c * cross)),
                              _zero_sum(a.base, new1))
        cross = x1 * y1
        new1 = x0 * y1 + x1 * y0
        if not a._b_zero:
            new1 = new1 - a.b * cross
        return AlgElement(a, x0 * y0 - a.c * cross, new1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not AlgElement or other.alg is not self.alg:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self.alg.divider(other)(self)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __pow__(self, n):
        if n < 0:
            return (self.alg.one / self) ** (-n)
        out = self.alg.one
        base = self
        while n:
            if n & 1:
                out = out * base
            if n > 1:
                base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return False
        return (self - other).is_zero()

    def __ne__(self, other):
        return not self.__eq__(other)

    # -- structure maps ------------------------------------------------------

    def conj(self):
        a = self.alg
        if a.kind == EtaleAlgebra.SPLIT:
            return AlgElement(a, self.x1, self.x0)
        if a._b_zero:
            return AlgElement(a, self.x0, -self.x1)
        if a._flat:
            K = a.base
            d, t, m, _ = _mul_raw(K, *a._b_raw, *_raw(self.x1))
            x0 = self.x0
            c, s, n = _add_raw(K, x0.co[0], x0.shift, x0.ncap, d, t, m, -1)
            return AlgElement(a, _normal(K, (c,), s, n), -self.x1)
        return AlgElement(a, self.x0 - a.b * self.x1, -self.x1)

    def trace(self):
        a = self.alg
        if a.kind == EtaleAlgebra.SPLIT:
            return self.x0 + self.x1
        if a._flat:
            K = a.base
            c, s, n, _ = _mul_raw(K, *_raw(self.x0), *a._two_raw)
            if not a._b_zero:
                d, t, m, _ = _mul_raw(K, *a._b_raw, *_raw(self.x1))
                c, s, n = _add_raw(K, c, s, n, d, t, m, -1)
            return _normal(K, (c,), s, n)
        if a._b_zero:
            return self.x0 * 2
        return self.x0 * 2 - a.b * self.x1

    def norm(self):
        a = self.alg
        if a.kind == EtaleAlgebra.SPLIT:
            return self.x0 * self.x1
        if a._flat:
            K = a.base
            x0, x1 = _raw(self.x0), _raw(self.x1)
            c, s, n, _ = _mul_raw(K, *x0, *x0)
            if not a._b_zero:
                d, t, m, _ = _mul_raw(K, *_mul_raw(K, *a._b_raw, *x0), *x1)
                c, s, n = _add_raw(K, c, s, n, d, t, m, -1)
            d, t, m, _ = _mul_raw(K, *_mul_raw(K, *a._c_raw, *x1), *x1)
            c, s, n = _add_raw(K, c, s, n, d, t, m, 1)
            return _normal(K, (c,), s, n)
        if a._b_zero:
            return self.x0 * self.x0 + a.c * self.x1 * self.x1
        return self.x0 * self.x0 - a.b * self.x0 * self.x1 + a.c * self.x1 * self.x1

    def is_zero(self):
        return self.x0.is_zero() and self.x1.is_zero()

    def is_unit(self):
        a = self.alg
        if self.is_zero():
            return False
        if a.kind == EtaleAlgebra.SPLIT:
            return self.x0.is_unit() and self.x1.is_unit()
        return a.vP(self) == 0

    def is_in_K(self):
        if self.alg.kind == EtaleAlgebra.SPLIT:
            return (self.x0 - self.x1).is_zero()
        return self.x1.is_zero()

    def as_K(self):
        if not self.is_in_K():
            raise HermlatError("element is not in the base field")
        return self.x0

    def is_integral(self):
        if self.is_zero():
            return True
        v = self.alg.valuation_P(self)
        return v.a >= 0 and v.b >= 0

    def __repr__(self):
        return f"AlgElement({self.str_pair()})"

    def str_pair(self):
        if self.alg.kind == EtaleAlgebra.SPLIT:
            return f"({self.x0.poly_str()}, {self.x1.poly_str()})"
        if self.x1.is_zero():
            return self.x0.poly_str()
        return f"{self.x0.poly_str()} + ({self.x1.poly_str()})*pi"


def _zero_sum(K, zeros):
    """The sum of zeros of K, by ``_add_raw``'s rule: the least shift and
    the least absolute precision, with no coefficient arithmetic."""
    s = min(z.shift for z in zeros)
    return _normal(K, K.zero.co, s, min(z.shift + z.ncap for z in zeros) - s)


# ---------------------------------------------------------------------------
# the flat kernel: field kinds over K = Q_p
# ---------------------------------------------------------------------------


def _raw(x):
    """``(co[0], shift, ncap, valuation)`` of a single-coordinate element,
    the valuation capped at ncap as ``_int_valuation`` gives it."""
    c, n = x.co[0], x.ncap
    return c, x.shift, n, _int_valuation(c, x.field.p, n)


def _flat_product(alg, a, b):
    """The coordinates of a*b over a flat algebra as two raw normal-form
    triples ``(c0, s0, n0, c1, s1, n1)``.  The intermediates are those of
    the composed product, ``cross = x1*y1``, ``x0*y1 + x1*y0 - b*cross``
    and ``x0*y0 - c*cross``, each formed by the rule of its
    ``FieldElement`` operation; only the operands' valuations are new.
    When a or b is zero, every intermediate is a zero, worked out inline by
    the zero rule of ``localfield``'s "Normal form" paragraph."""
    K = alg.base
    e = a.x0
    x0, s0, n0 = e.co[0], e.shift, e.ncap
    e = a.x1
    x1, s1, n1 = e.co[0], e.shift, e.ncap
    e = b.x0
    y0, t0, m0 = e.co[0], e.shift, e.ncap
    e = b.x1
    y1, t1, m1 = e.co[0], e.shift, e.ncap
    if K.p == 2:  # _int_valuation: a nonzero normal-form coefficient has v < ncap
        v0 = (x0 & -x0).bit_length() - 1 if x0 else n0
        v1 = (x1 & -x1).bit_length() - 1 if x1 else n1
        w0 = (y0 & -y0).bit_length() - 1 if y0 else m0
        w1 = (y1 & -y1).bit_length() - 1 if y1 else m1
    else:
        p = K.p
        v0, v1 = _int_valuation(x0, p, n0), _int_valuation(x1, p, n1)
        w0, w1 = _int_valuation(y0, p, m0), _int_valuation(y1, p, m1)
    if not (x0 or x1) or not (y0 or y1):
        # a zero product of valuations v and w has ncap v + w (v(zero) =
        # ncap) at the sum of the shifts, and past mcap it keeps its
        # absolute precision, up to 2*mcap; a sum keeps the least shift and
        # the least absolute precision: (s, r) for x1's, (u, k) for x0's
        M = K.mcap
        M2 = M + M
        cs, cn = s1 + t1, v1 + w1                                # x1*y1
        if cn > M:
            cs, cn = (cs + cn if cs + cn < M2 else M2) - M, M
        s, n = s0 + t1, v0 + w1                                  # x0*y1
        if n > M:
            s, n = (s + n if s + n < M2 else M2) - M, M
        t, m = s1 + t0, v1 + w0                                  # x1*y0
        if m > M:
            t, m = (t + m if t + m < M2 else M2) - M, M
        r = s + n if s + n < t + m else t + m
        if t < s:
            s = t
        if not alg._b_zero:
            _, t, _, m = alg._b_raw                              # b*cross
            t, m = t + cs, m + cn
            if m > M:
                t, m = (t + m if t + m < M2 else M2) - M, M
            if t + m < r:
                r = t + m
            if t < s:
                s = t
        u, k = s0 + t0, v0 + w0                                  # x0*y0
        if k > M:
            u, k = (u + k if u + k < M2 else M2) - M, M
        _, t, _, m = alg._c_raw                                  # c*cross
        t, m = t + cs, m + cn
        if m > M:
            t, m = (t + m if t + m < M2 else M2) - M, M
        k += u
        if t + m < k:
            k = t + m
        if t < u:
            u = t
        return 0, u, k - u, 0, s, r - s
    cross = _mul_raw(K, x1, s1, n1, v1, y1, t1, m1, w1)
    c, s, n, _ = _mul_raw(K, x0, s0, n0, v0, y1, t1, m1, w1)
    d, t, m, _ = _mul_raw(K, x1, s1, n1, v1, y0, t0, m0, w0)
    c, s, n = _add_raw(K, c, s, n, d, t, m, 1)
    if not alg._b_zero:
        d, t, m, _ = _mul_raw(K, *alg._b_raw, *cross)
        c, s, n = _add_raw(K, c, s, n, d, t, m, -1)
    e, u, k, _ = _mul_raw(K, x0, s0, n0, v0, y0, t0, m0, w0)
    d, t, m, _ = _mul_raw(K, *alg._c_raw, *cross)
    return _add_raw(K, e, u, k, d, t, m, -1) + (c, s, n)


def _flat_dot(alg, x, y):
    """``sum(x[i] * y[i])`` over a flat algebra, accumulated left to right
    on raw triples as the composed ``acc + term`` would; None when the
    vectors are empty or hold anything but elements of alg."""
    K = alg.base
    acc = None
    for a, b in zip(x, y):
        if a.__class__ is not AlgElement or b.__class__ is not AlgElement \
                or a.alg is not alg or b.alg is not alg:
            return None
        c0, s0, n0, c1, s1, n1 = _flat_product(alg, a, b)
        if acc is None:
            acc = (c0, s0, n0, c1, s1, n1)
        else:
            acc = (_add_raw(K, acc[0], acc[1], acc[2], c0, s0, n0, 1)
                   + _add_raw(K, acc[3], acc[4], acc[5], c1, s1, n1, 1))
    if acc is None:
        return None
    return AlgElement(alg, _normal(K, acc[:1], acc[1], acc[2]),
                      _normal(K, acc[3:4], acc[4], acc[5]))

"""Exact arithmetic in a local field K of characteristic zero.

K is realized as a tower over the p-adic rationals: one optional unramified
step (generator ``w``, monic integral defining polynomial that stays
irreducible over the residue field) followed by one optional totally ramified
Eisenstein step (generator ``t``).  Elements are stored as coefficient vectors
over the basis ``w^a t^b`` with arbitrary-precision integer coefficients
reduced modulo p^mcap, together with a power-of-p shift and a per-element
digit count, so all ring operations are exact on representatives.

The normalized valuation ``v`` gives the uniformizer of K valuation 1
(so v(p) = d, the ramification degree of the Eisenstein step).

Normal form.  Every element, zero or not, keeps ``ncap <= mcap`` digits,
its coefficients reduced modulo ``p^ncap``.  ``FieldElement.__init__``
brings a result with more digits down to mcap: a nonzero one moves up to
ncap - mcap digits of p-content into its shift, so the cap limits only
relative precision; a zero keeps its absolute precision ``shift + ncap``,
up to ``2*mcap``.  Only products can carry more than mcap digits, since a
sum keeps at most the digits of its lower-shift operand.  The ring
operations hand results already in normal form to ``_normal``, which runs
the precision guard and nothing else; the rest go through ``__init__``.
A product keeps at least the digits of its shorter factor, as
(v1 + v2 + min(d*n1 - v1, d*n2 - v2)) // d >= min(n1, n2), so it needs no
digit check before the guard.
The zero rule: a product with a zero factor is a zero, found from the
precision data alone.  ``_mul_raw``'s rule with v(zero) = ncap gives it
ncap = (d*n_zero + v_other) // d at shift s_x + s_y, where v_other is the
other factor's ``_co_valuation`` (its valuation, capped at d*ncap), so
n_zero + v_other over Q_p; past mcap it is stored as any zero is.  A sum
keeps the least shift and the least absolute precision of its terms, by
``_add_raw``'s rule, so a zero term still bounds the precision of a sum
and is never skipped.
When K is Q_p itself (``nbasis == 1``) the operations work on the single
coefficient directly, through ``_mul_raw`` and ``_add_raw``, which the flat
kernel of ``etale`` shares; for p = 2 they reduce with bit masks.  Both
shortcuts return the same ``(co, shift, ncap)`` as ``__init__`` would, and
raise ``PrecisionLoss`` at the same points.

Inversion.  A nonzero element is a power of p times a unit, after a twist
by a power of t.  The unit is inverted by one exact modular inverse: of its
coefficient modulo p^ncap when K = Q_p, otherwise by elimination on its
multiplication matrix with unit pivots.
"""

from __future__ import annotations

import itertools

from .errors import HermlatError, PrecisionLoss


def _int_valuation(n, p, cap):
    """p-adic valuation of the integer n, capped at `cap` (returns cap for 0)."""
    if n == 0:
        return cap
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v if v < cap else cap
    v = 0
    p16 = p ** 16
    while v + 16 <= cap and n % p16 == 0:
        n //= p16
        v += 16
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# residue-field helpers: elements of GF(p^f) are int tuples of length f,
# low-degree first, reduced mod p and mod the defining polynomial.
# ---------------------------------------------------------------------------

def gf_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def gf_mul(a, b, p, redpoly):
    f = len(a)
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(2 * f - 2, f - 1, -1):
        c = prod[k] % p
        if c:
            # x^f = -redpoly, applied at degree k
            for j, r in enumerate(redpoly):
                prod[k - f + j] -= c * r
        prod[k] = 0
    return tuple(v % p for v in prod[:f])


def gf_pow(a, n, p, redpoly):
    result = tuple([1] + [0] * (len(a) - 1))
    base = a
    while n:
        if n & 1:
            result = gf_mul(result, base, p, redpoly)
        base = gf_mul(base, base, p, redpoly)
        n >>= 1
    return result


def gf_elements(p, f):
    """All q = p^f residue-field elements as coefficient tuples."""
    return [tuple(c) for c in itertools.product(range(p), repeat=f)]


# ---------------------------------------------------------------------------


class _Powers(dict):
    """p**k + offset by k, each computed on first use."""

    __slots__ = ("p", "offset")

    def __init__(self, p, offset=0):
        super().__init__()
        self.p = p
        self.offset = offset

    def __missing__(self, k):
        v = self[k] = self.p ** k + self.offset
        return v


class LocalField:
    """A finite extension of Q_p presented as an unramified-then-Eisenstein tower."""

    def __init__(self, p, unramified_poly=None, eisenstein_poly=None,
                 precision=64, guard=16):
        if p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
            raise HermlatError(f"p = {p} is not prime")
        if precision <= 0 or guard <= 0:
            raise HermlatError("precision and guard must be positive")
        self.p = p
        self.precision = precision
        self.guard = guard

        # unramified step: poly x^f + u_{f-1} x^{f-1} + ... + u_0, ints
        if unramified_poly is None:
            self.f = 1
            self._upoly = (0,)  # x = 0 i.e. w ≡ 0; unused when f == 1
        else:
            upoly = tuple(int(c) for c in unramified_poly)
            self.f = len(upoly)
            if self.f < 1:
                raise HermlatError("unramified polynomial must be non-constant")
            self._upoly = upoly
        self._respoly = tuple(c % p for c in self._upoly)

        # Eisenstein step: coefficients live in the unramified subfield;
        # each is an int or a length-f vector.
        if eisenstein_poly is None:
            self.d = 1
            self._epoly = ()
        else:
            coeffs = []
            for c in eisenstein_poly:
                if isinstance(c, int):
                    vec = (c,) + (0,) * (self.f - 1)
                else:
                    vec = tuple(int(x) for x in c)
                    if len(vec) != self.f:
                        raise HermlatError("Eisenstein coefficient has wrong length")
                coeffs.append(vec)
            self._epoly = tuple(coeffs)
            self.d = len(coeffs)
            if self.d < 1:
                raise HermlatError("Eisenstein polynomial must be non-constant")

        # guaranteed digits, plus working headroom: long dependent chains of
        # divide-and-remultiply burn one digit each, and the factorization
        # pipelines run a few hundred of them before any result is reported
        base_digits = -(-(precision + guard) // self.d)  # ceil
        self.mcap = 3 * base_digits + 8
        self.pmod = p ** self.mcap
        self._ppows = _Powers(p)
        # p = 2: c % 2^k is c & (2^k - 1), for negative c too, and cheaper
        self._masks = _Powers(2, -1) if p == 2 else None
        self.guard_digits = max(1, -(-guard // self.d))
        self.q = p ** self.f
        self.nbasis = self.f * self.d

        if self.f > 1:
            self._check_unramified_irreducible()
        if self.d > 1:
            self._check_eisenstein()

        self._mul_table = self._build_mul_table()
        self.zero = self.from_int(0)
        self.one = self.from_int(1)
        self._upows = [self.one]  # uniformizer powers 0, 1, ..., filled on use
        self._residues = {}  # m -> residue_system(m) as a tuple, filled on use

    # -- construction-time validation -------------------------------------

    def _check_unramified_irreducible(self):
        p, f, red = self.p, self.f, self._respoly
        if not any(red):
            raise HermlatError("unramified polynomial reduces to x^f")
        w = tuple([0, 1] + [0] * (f - 2)) if f >= 2 else (1,)
        # Frobenius order of w must be exactly f
        x = w
        for k in range(1, f):
            x = gf_pow(x, p, p, red)
            if x == w:
                raise HermlatError("unramified polynomial is reducible mod p")
        x = gf_pow(x, p, p, red)
        if x != w:
            raise HermlatError("unramified polynomial is reducible mod p")

    def _check_eisenstein(self):
        p = self.p
        for i, vec in enumerate(self._epoly):
            if any(c % p for c in vec):
                raise HermlatError(
                    f"Eisenstein coefficient {i} is not in the maximal ideal")
        lowest = self._epoly[0]
        if all(c % (p * p) == 0 for c in lowest):
            raise HermlatError("Eisenstein constant term has valuation > 1")

    # -- basis bookkeeping --------------------------------------------------

    def _reduce_poly(self, terms):
        """Reduce a dict {(w_deg, t_deg): int} modulo both defining polynomials."""
        p, f, d = self.p, self.f, self.d
        changed = True
        while changed:
            changed = False
            for (a, b), c in list(terms.items()):
                if c == 0:
                    del terms[(a, b)]
                    continue
                if a >= f:
                    del terms[(a, b)]
                    for j, u in enumerate(self._upoly):
                        if u:
                            terms[(a - f + j, b)] = terms.get((a - f + j, b), 0) - c * u
                    changed = True
                    break
                if b >= d:
                    del terms[(a, b)]
                    for i, vec in enumerate(self._epoly):
                        for j, u in enumerate(vec):
                            if u:
                                key = (a + j, b - d + i)
                                terms[key] = terms.get(key, 0) - c * u
                    changed = True
                    break
        return terms

    def _build_mul_table(self):
        table = []
        for i in range(self.nbasis):
            a1, b1 = i % self.f, i // self.f
            row = []
            for j in range(self.nbasis):
                a2, b2 = j % self.f, j // self.f
                terms = self._reduce_poly({(a1 + a2, b1 + b2): 1})
                vec = [0] * self.nbasis
                for (a, b), c in terms.items():
                    vec[b * self.f + a] = c % self.pmod
                row.append(tuple(vec))
            table.append(tuple(row))
        return tuple(table)

    def _mul_co(self, x, y, mod):
        out = [0] * self.nbasis
        table = self._mul_table
        for i, xi in enumerate(x):
            if xi:
                ti = table[i]
                for j, yj in enumerate(y):
                    if yj:
                        c = xi * yj
                        for k, tk in enumerate(ti[j]):
                            if tk:
                                out[k] += c * tk
        return tuple(v % mod for v in out)

    def _co_valuation(self, co, cap):
        """min over coordinates of d*v_p(coeff) + t_degree, capped at d*cap."""
        p, f, d = self.p, self.f, self.d
        best = d * cap
        for k, c in enumerate(co):
            if c:
                v = d * _int_valuation(c, p, cap) + (k // f)
                if v < best:
                    best = v
        return best

    # -- element constructors ------------------------------------------------

    def from_int(self, n):
        co = [0] * self.nbasis
        co[0] = n % self.pmod
        return FieldElement(self, tuple(co), 0, self.mcap)

    def from_coeffs(self, coeffs, shift=0):
        """Element from a flat coefficient vector over the w^a t^b basis."""
        co = [int(c) % self.pmod for c in coeffs]
        co += [0] * (self.nbasis - len(co))
        return FieldElement(self, tuple(co), shift, self.mcap)

    def gen_unramified(self):
        if self.f == 1:
            raise HermlatError("field has no unramified step")
        co = [0] * self.nbasis
        co[1] = 1
        return FieldElement(self, tuple(co), 0, self.mcap)

    def gen_eisenstein(self):
        if self.d == 1:
            raise HermlatError("field has no ramified step")
        co = [0] * self.nbasis
        co[self.f] = 1
        return FieldElement(self, tuple(co), 0, self.mcap)

    def uniformizer(self):
        return self.gen_eisenstein() if self.d > 1 else self.from_int(self.p)

    def uniformizer_pow(self, k):
        if k >= 0:
            # elements are immutable: every power is made once, by the same
            # chain of products as an uncached pi^(k-1) * pi
            pows = self._upows
            if k >= len(pows):
                u = self.uniformizer()
                while k >= len(pows):
                    pows.append(pows[-1] * u)
            return pows[k]
        return self.one / self.uniformizer_pow(-k)

    # -- residue data ---------------------------------------------------------

    def ppow(self, k):
        """Cached nonnegative power of p."""
        return self._ppows[k]

    def residue_elements(self):
        return gf_elements(self.p, self.f)

    def residue_lifts(self):
        """One integral lift for every residue-field element."""
        return [self.from_coeffs(e + (0,) * (self.nbasis - self.f))
                for e in self.residue_elements()]

    def residue_system(self, m):
        """Representatives of o/𝔭^m as sums sum_i r_i * pi^i."""
        return list(self._residue_system_cached(m))

    def _residue_system_cached(self, m):
        if m not in self._residues:
            pi, lifts = self.uniformizer(), self.residue_lifts()
            reps = [self.zero]
            for _ in range(m):
                reps = [r * pi + lift for r in reps for lift in lifts]
            # note: building high digits first keeps the count at q^m exactly
            self._residues[m] = tuple(reps)
        return self._residues[m]

    def unit_residues(self, m):
        return [r for r in self.residue_system(m) if not r.is_zero() and r.valuation() == 0]

    def __repr__(self):
        parts = [f"Q_{self.p}"]
        if self.f > 1:
            parts.append(f"unramified deg {self.f}")
        if self.d > 1:
            parts.append(f"eisenstein deg {self.d}")
        return f"LocalField({', '.join(parts)}; N={self.precision})"


def _normal(field, co, shift, ncap):
    """The element with these fields, which must already be in normal form
    (``ncap <= mcap``, coefficients reduced modulo p^ncap): runs the
    precision guard of ``FieldElement.__init__`` and nothing else."""
    if ncap <= field.guard_digits:
        raise PrecisionLoss(
            f"element retains only {ncap} digits (guard {field.guard_digits})")
    x = _new_element(FieldElement)
    x.field = field
    x.co = co
    x.shift = shift
    x.ncap = ncap
    return x


# The ring operations of a single-coordinate field on raw fields: an element
# enters as its ``(co[0], shift, ncap)`` and leaves as the normal-form triple
# that ``FieldElement.__init__`` would give it.  ``FieldElement`` and the flat
# kernel of ``etale`` both go through these, so each rule is written once.


def _mul_raw(field, x, sx, nx, vx, y, sy, ny, vy):
    """The product, given each factor's valuation (capped at its ncap, as
    ``_int_valuation`` gives it): its ``(c, shift, ncap)`` and valuation.

    The relative precision of a product is the least of its factors', so
    ncap >= min(nx, ny) and the precision guard cannot fire.  The raw
    product has valuation vx + vy <= ncap.  Past mcap digits it is
    renormalised as ``__init__`` would: a zero keeps mcap digits at its
    absolute precision, up to 2*mcap; otherwise p^t is stripped off, and
    that valuation less t is the result's."""
    v = vx + vy
    r1, r2 = nx - vx, ny - vy
    n = v + (r1 if r1 < r2 else r2)
    s = sx + sy
    mcap = field.mcap
    masks = field._masks
    if n <= mcap:
        if masks is not None:
            return x * y & masks[n], s, n, v
        return x * y % field._ppows[n], s, n, v
    if v >= n:
        a = s + n
        return 0, (a if a < 2 * mcap else 2 * mcap) - mcap, mcap, mcap
    t = v if v < n - mcap else n - mcap
    if masks is not None:
        return x * y >> t & masks[mcap], s + t, mcap, v - t
    return x * y // field._ppows[t] % field.pmod, s + t, mcap, v - t


def _add_raw(field, x, sx, nx, y, sy, ny, sign):
    """``x + sign * y``, sign = 1 or -1: its ``(c, shift, ncap)``.  The sum
    is known modulo p^min(sx + nx, sy + ny), so its ncap is at least
    min(nx, ny), and at most the ncap of the operand of least shift: it
    needs no renormalisation.  Subtracting in place gives the result of
    adding the negation, since the coefficients agree modulo p^ncap of the
    sum."""
    pp = field._ppows
    if sx == sy:
        s = sx
        c = x + y if sign > 0 else x - y
    else:
        s = sx if sx < sy else sy
        c = x * pp[sx - s] + sign * y * pp[sy - s]
    a1, a2 = sx + nx, sy + ny
    n = (a1 if a1 < a2 else a2) - s
    if field._masks is not None:
        return c & field._masks[n], s, n
    return c % pp[n], s, n


_new_element = object.__new__


class FieldElement:
    """An element of a LocalField: p^shift * (coefficient vector), known
    modulo p^(shift + ncap) coefficient-wise.

    Construction pulls exact p-power content out of the coefficient vector
    into the shift, so that the per-element digit cap only limits relative
    precision and round trips through division stay lossless."""

    __slots__ = ("field", "co", "shift", "ncap")

    def __init__(self, field, co, shift, ncap):
        if ncap <= field.guard_digits:
            raise PrecisionLoss(
                f"element retains only {ncap} digits (guard {field.guard_digits})")
        mcap = field.mcap
        mod = field.ppow(ncap)
        co = [c % mod for c in co]
        if ncap > mcap:
            # keep mcap digits: a nonzero vector moves its p-content, up to
            # ncap - mcap digits, into the shift; a zero keeps its absolute
            # precision, up to 2*mcap
            if any(co):
                t = min(min(_int_valuation(c, field.p, ncap) for c in co if c),
                        ncap - mcap)
                if t > 0:
                    pk = field.ppow(t)
                    co = [c // pk for c in co]
                    shift += t
                co = [c % field.pmod for c in co]
            else:
                shift = min(shift + ncap, 2 * mcap) - mcap
            ncap = mcap
        self.field = field
        self.co = tuple(co)
        self.shift = shift
        self.ncap = ncap

    # -- precision bookkeeping -------------------------------------------

    def abs_precision(self):
        """Absolute precision in valuation units: known modulo 𝔭^this."""
        return self.field.d * (self.shift + self.ncap)

    def is_zero(self):
        return not any(self.co)

    def valuation(self):
        """Normalized valuation with v(uniformizer) = 1."""
        fld = self.field
        if fld.nbasis == 1:
            c = self.co[0]
            if not c:
                raise HermlatError("element is zero at working precision")
            return self.shift + _int_valuation(c, fld.p, self.ncap)
        if self.is_zero():
            raise HermlatError("element is zero at working precision")
        return fld.d * self.shift + fld._co_valuation(self.co, self.ncap)

    def valuation_or_none(self):
        return None if self.is_zero() else self.valuation()

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise HermlatError("elements belong to different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        fld = self.field
        ncap = self.ncap
        mod = fld._ppows[ncap]
        if fld.nbasis == 1:
            return _normal(fld, (-self.co[0] % mod,), self.shift, ncap)
        return _normal(fld, tuple(-c % mod for c in self.co), self.shift, ncap)

    def __sub__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _combine(self, other, sign):
        """self + sign * other, by the rule of ``_add_raw``."""
        fld = self.field
        if fld.nbasis == 1:
            c, s, ncap = _add_raw(fld, self.co[0], self.shift, self.ncap,
                                  other.co[0], other.shift, other.ncap, sign)
            return _normal(fld, (c,), s, ncap)
        pp = fld._ppows
        s1, s2 = self.shift, other.shift
        # the sum is known modulo p^min(s1 + ncap1, s2 + ncap2)
        a1, a2 = s1 + self.ncap, s2 + other.ncap
        s = s1 if s1 < s2 else s2
        ncap = (a1 if a1 < a2 else a2) - s
        m1, m2 = pp[s1 - s], sign * pp[s2 - s]
        co = tuple(a * m1 + b * m2 for a, b in zip(self.co, other.co))
        mod = pp[ncap]
        return _normal(fld, tuple(c % mod for c in co), s, ncap)

    def __mul__(self, other):
        """The product, in normal form.  A product with a zero factor
        follows the zero rule of the module docstring."""
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        fld = self.field
        n1, n2 = self.ncap, other.ncap
        if fld.nbasis == 1:
            x, y, p = self.co[0], other.co[0], fld.p
            c, s, ncap, _ = _mul_raw(fld, x, self.shift, n1, _int_valuation(x, p, n1),
                                     y, other.shift, n2, _int_valuation(y, p, n2))
            return _normal(fld, (c,), s, ncap)
        s = self.shift + other.shift
        d = fld.d
        co1, co2 = self.co, other.co
        if not any(co1) or not any(co2):
            # a zero factor: the zero rule of the module docstring, with no
            # integer multiply
            if any(co1):
                co1, co2, n1, n2 = co2, co1, n2, n1
            ncap = n1 + fld._co_valuation(co2, n2) // d
            mcap = fld.mcap
            if ncap > mcap:
                a = s + ncap
                s = (a if a < 2 * mcap else 2 * mcap) - mcap
                ncap = mcap
            return _normal(fld, co1, s, ncap)
        v1 = fld._co_valuation(co1, n1)
        v2 = fld._co_valuation(co2, n2)
        rel1 = d * n1 - v1
        rel2 = d * n2 - v2
        atarget = v1 + v2 + min(rel1, rel2)
        ncap = atarget // d
        co = fld._mul_co(co1, co2, fld._ppows[ncap])
        mcap = fld.mcap
        if ncap > mcap:
            if not any(co):
                return FieldElement(fld, co, s, ncap)
            # renormalise as __init__ would: the least valuation of a
            # nonzero product's coefficients is (v1 + v2) // d, as in _mul_raw
            t = (v1 + v2) // d
            if t > ncap - mcap:
                t = ncap - mcap
            pk, pmod = fld._ppows[t], fld.pmod
            return _normal(fld, tuple(c // pk % pmod for c in co), s + t, mcap)
        return _normal(fld, co, s, ncap)

    __rmul__ = __mul__

    def _invert(self):
        """The inverse, to the relative precision of self.

        Write self = p^shift * t^-r * p^spow * num with num a unit of O_K,
        r < d chosen so that v(self's coordinates) + r is a multiple of d.
        A unit has exactly one inverse modulo p^ncap_u * O_K, and its
        coordinates over the integral basis ``w^a t^b`` are reduced modulo
        p^ncap_u, so any exact method gives the same ``(co, shift, ncap)``:
        one modular inverse of the coefficient when K = Q_p, otherwise the
        solution of ``M_num * y = 1`` modulo p^ncap_u, where M_num is the
        matrix of multiplication by num, eliminated with unit pivots
        (det M_num = N(num) is a unit, so one always exists)."""
        fld = self.field
        if self.is_zero():
            raise HermlatError("division by zero at working precision")
        p, d, f, n = fld.p, fld.d, fld.f, fld.nbasis
        if n == 1:
            c = self.co[0]
            spow = _int_valuation(c, p, self.ncap)
            ncap_u = self.ncap - spow
            if ncap_u <= fld.guard_digits:
                raise PrecisionLoss("inverse would fall below the precision guard")
            mod = fld._ppows[ncap_u]
            # c // p^spow is a unit, so the inverse exists
            return _normal(fld, (pow(c // fld._ppows[spow], -1, mod),),
                           -self.shift - spow, ncap_u)
        vnum = fld._co_valuation(self.co, self.ncap)
        r = (d - vnum % d) % d
        if r:
            tr = [0] * n
            tr[r * f] = 1
            tr = tuple(tr)
            num = fld._mul_co(self.co, tr, fld.pmod)
        else:
            num = self.co
        spow = (vnum + r) // d
        if spow:
            pk = fld._ppows[spow]
            if any(c % pk for c in num):
                raise HermlatError("internal: coordinate division failed")
            num = tuple(c // pk for c in num)
        ncap_u = self.ncap - spow
        if ncap_u <= fld.guard_digits:
            raise PrecisionLoss("inverse would fall below the precision guard")
        mod = fld._ppows[ncap_u]
        # rows[k] = (M_num[k][0..n-1] | [k == 0]): coordinate k of num * y
        rows = [[0] * n + [int(k == 0)] for k in range(n)]
        table = fld._mul_table
        for i, ni in enumerate(num):
            if ni:
                for j, tij in enumerate(table[i]):
                    for k, tk in enumerate(tij):
                        if tk:
                            rows[k][j] += ni * tk
        for col in range(n):
            piv = next(k for k in range(col, n) if rows[k][col] % p)
            rows[col], rows[piv] = rows[piv], rows[col]
            inv = pow(rows[col][col], -1, mod)
            prow = rows[col] = [c * inv % mod for c in rows[col]]
            for k, row in enumerate(rows):
                a = row[col]
                if a and k != col:
                    rows[k] = [(x - a * y) % mod for x, y in zip(row, prow)]
        y = tuple(row[n] for row in rows)
        if r:
            y = fld._mul_co(y, tr, mod)
        # a unit times a power of p: nonzero, and ncap_u <= ncap <= mcap
        return _normal(fld, y, -self.shift - spow, ncap_u)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self * other._invert()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other * self._invert()

    def __pow__(self, n):
        if n < 0:
            return (self._invert()) ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return False
        return (self - other).is_zero()

    def __ne__(self, other):
        return not self.__eq__(other)

    # -- maps -----------------------------------------------------------------

    def invert_unit(self):
        if self.is_zero() or self.valuation() != 0:
            raise HermlatError("invert_unit requires valuation 0")
        return self._invert()

    def is_unit(self):
        return not self.is_zero() and self.valuation() == 0

    def residue(self):
        """Image in the residue field o/𝔭, as a GF(p^f) coefficient tuple."""
        fld = self.field
        if self.is_zero():
            return (0,) * fld.f
        if self.valuation() < 0:
            raise HermlatError("element is not integral")
        co, shift = self.co, self.shift
        if shift > 0:
            return (0,) * fld.f
        if shift < 0:
            pk = fld.p ** (-shift)
            if any(c % pk for c in co):
                raise HermlatError("internal: residue of non-integral representation")
            co = tuple(c // pk for c in co)
        return tuple(c % fld.p for c in co[:fld.f])

    # -- presentation -----------------------------------------------------------

    def flat(self):
        """Canonical integral coefficient vector (mod p^ncap) and shift."""
        return self.co, self.shift

    def __repr__(self):
        return f"FieldElement({self.poly_str()})"

    def poly_str(self):
        fld = self.field
        if self.is_zero():
            return "0"
        names = []
        for k in range(fld.nbasis):
            a, b = k % fld.f, k // fld.f
            s = ""
            if a:
                s += "w" if a == 1 else f"w^{a}"
            if b:
                if s:
                    s += "*"
                s += "t" if b == 1 else f"t^{b}"
            names.append(s or "1")
        half = self.field.p ** self.ncap // 2
        terms = []
        for c, name in zip(self.co, names):
            if not c:
                continue
            cs = c if c <= half else c - self.field.p ** self.ncap
            if name == "1":
                terms.append(str(cs))
            elif cs == 1:
                terms.append(name)
            elif cs == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{cs}*{name}")
        body = " + ".join(terms).replace("+ -", "- ")
        if self.shift:
            return f"{self.field.p}^{self.shift}*({body})"
        return body

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from hermlat.errors import HermlatError, PrecisionLoss
from hermlat.localfield import FieldElement, LocalField, gf_pow


def test_integer_arithmetic_embeds(Q2):
    x, y = Q2.from_int(3), Q2.from_int(5)
    assert x * y == Q2.from_int(15)
    assert (x * y).valuation() == 0
    assert x + 0 == x


def test_eisenstein_relation():
    K = LocalField(2, eisenstein_poly=[-2, 0])
    t = K.uniformizer()
    assert t * t == K.from_int(2)
    assert (t * t).valuation() == 2
    assert t.valuation() == 1
    assert K.from_int(2).valuation() == 2


def test_valuations(Q3, Q2):
    assert Q3.from_int(3).valuation() == 1
    assert Q3.from_int(4).valuation() == 0  # 1 + p
    with pytest.raises(HermlatError, match="element is zero"):
        Q2.from_int(0).valuation()


def test_residue(Q3):
    assert Q3.from_int(1).residue() == (1,)
    assert Q3.from_int(3).residue() == (0,)
    K = LocalField(2, unramified_poly=[1, 1])
    assert K.gen_unramified().residue() == (0, 1)
    with pytest.raises(HermlatError, match="not integral"):
        (Q3.one / 3).residue()


def test_invert_unit(Q2):
    assert Q2.one.invert_unit() == 1
    inv = Q2.from_int(3).invert_unit()
    # 3 * 11 = 33 = 1 mod 32
    diff = inv - Q2.from_int(11)
    assert diff.is_zero() or diff.valuation() >= 5
    assert Q2.from_int(-1).invert_unit() == -1
    with pytest.raises(HermlatError, match="requires valuation 0"):
        Q2.from_int(2).invert_unit()


def test_invert_unit_involution(Q3):
    for n in (2, 5, 7, 100):
        a = Q3.from_int(n)
        if a.valuation() != 0:
            continue
        assert a.invert_unit().invert_unit() == a


@settings(max_examples=40, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_axioms(a, b, c):
    K = LocalField(2, eisenstein_poly=[-2, 0])
    t = K.uniformizer()
    x = K.from_int(a) + t * b
    y = K.from_int(b) + t * c
    z = K.from_int(c) + t * a
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


def test_valuation_multiplicative():
    K = LocalField(3, eisenstein_poly=[-3, 0])
    rng = random.Random(11)
    t = K.uniformizer()
    for _ in range(30):
        a = K.from_int(rng.randrange(1, 200)) + t * rng.randrange(0, 50)
        b = K.from_int(rng.randrange(1, 200)) + t * rng.randrange(0, 50)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_embedding_commutes(Q3):
    for a in (-7, 3, 12):
        for b in (2, 9):
            assert Q3.from_int(a) + Q3.from_int(b) == Q3.from_int(a + b)
            assert Q3.from_int(a) * Q3.from_int(b) == Q3.from_int(a * b)


def test_division_roundtrip():
    K = LocalField(2, eisenstein_poly=[-2, 0])
    t = K.uniformizer()
    x = K.from_int(7) + t
    y = t + 2
    assert x / y * y == x


def test_tower_residue_field_size():
    K = LocalField(2, unramified_poly=[1, 1], eisenstein_poly=[-2, 0])
    assert K.q == 4
    assert K.d == 2
    w = K.gen_unramified()
    assert (w * w + w + 1).is_zero()
    # valuation of p is the ramification degree
    assert K.from_int(2).valuation() == 2


def test_unramified_poly_rejected_when_reducible():
    with pytest.raises(HermlatError, match="reducible"):
        LocalField(2, unramified_poly=[0, 1])  # x^2 + x = x(x+1)


def test_residue_system_counts(Q2):
    assert len(Q2.residue_system(3)) == 8
    K4 = LocalField(2, unramified_poly=[1, 1])
    assert len(K4.residue_system(2)) == 16


def test_precision_guard_raises():
    from hermlat.localfield import _normal

    K = LocalField(2, precision=8, guard=4)
    # a result carrying fewer digits than the guard is refused outright
    with pytest.raises(PrecisionLoss):
        FieldElement(K, (1,), 0, K.guard_digits)
    with pytest.raises(PrecisionLoss):
        _normal(K, (1,), 0, K.guard_digits)
    # dividing by something indistinguishable from zero is refused
    tiny = K.one - (K.one + K.ppow(K.mcap))
    assert tiny.is_zero()
    with pytest.raises(HermlatError, match="division by zero"):
        K.one / tiny


# ---------------------------------------------------------------------------
# the ring operations against the generic normalising constructor
# ---------------------------------------------------------------------------

KERNEL_FIELDS = [
    LocalField(p, unramified_poly=upoly, eisenstein_poly=epoly,
               precision=prec, guard=guard)
    for p, upoly, epoly in ((2, None, None), (3, None, None), (5, None, None),
                            (2, [1, 1], None), (2, None, [-2, 0]),
                            (2, [1, 1], [-2, 0]), (3, None, [3, 3, 0]))
    for prec, guard in ((8, 4), (64, 16))
]


def _generic_mul(x, y):
    fld = x.field
    d = fld.d
    v1 = fld._co_valuation(x.co, x.ncap)
    v2 = fld._co_valuation(y.co, y.ncap)
    ncap = (v1 + v2 + min(d * x.ncap - v1, d * y.ncap - v2)) // d
    if ncap <= 0:
        raise PrecisionLoss("product has no guaranteed digits")
    co = fld._mul_co(x.co, y.co, fld.ppow(ncap))
    r = FieldElement(fld, co, x.shift + y.shift, ncap)
    if ncap > fld.mcap and not any(r.co):
        # a zero with more than mcap digits is stored at its absolute
        # precision, up to 2*mcap
        assert r.shift + r.ncap == min(x.shift + y.shift + ncap, 2 * fld.mcap)
    return r


def _generic_invert(x):
    """The inverse by a Newton lift at full precision: twist x into a unit
    num (times t^r and divided by p^spow), invert num's residue, double the
    known digits until p^ncap_u, and undo the twist."""
    fld = x.field
    p, d, f, n = fld.p, fld.d, fld.f, fld.nbasis
    vnum = fld._co_valuation(x.co, x.ncap)
    r = (d - vnum % d) % d
    tr = tuple(int(k == r * f) for k in range(n))
    num = fld._mul_co(x.co, tr, fld.pmod)
    spow = (vnum + r) // d
    pk = fld.ppow(spow)
    assert not any(c % pk for c in num)
    num = tuple(c // pk for c in num)
    ncap_u = x.ncap - spow
    if ncap_u <= fld.guard_digits:
        raise PrecisionLoss("inverse would fall below the precision guard")
    res = tuple(c % p for c in num[:f])
    y = gf_pow(res, fld.q - 2, p, fld._respoly) + (0,) * (n - f)
    mod = fld.ppow(ncap_u)
    two = (2,) + (0,) * (n - 1)
    known = 1
    while known < ncap_u * d:
        t = fld._mul_co(num, y, mod)
        y = fld._mul_co(y, tuple((a - b) % mod for a, b in zip(two, t)), mod)
        known *= 2
    y = fld._mul_co(y, tr, mod)
    return FieldElement(fld, y, -x.shift - spow, ncap_u)


def _generic_add(x, y):
    fld = x.field
    s = min(x.shift, y.shift)
    m1, m2 = fld.ppow(x.shift - s), fld.ppow(y.shift - s)
    co = tuple(a * m1 + b * m2 for a, b in zip(x.co, y.co))
    return FieldElement(fld, co, s, min(x.shift + x.ncap, y.shift + y.ncap) - s)


def _generic_neg(x):
    return FieldElement(x.field, tuple(-c for c in x.co), x.shift, x.ncap)


def _generic_sub(x, y):
    return _generic_add(x, _generic_neg(y))


ZERO_VALUATION = "element is zero at working precision"


def _generic_valuation(x):
    if not any(x.co):
        raise HermlatError(ZERO_VALUATION)
    return x.field.d * x.shift + x.field._co_valuation(x.co, x.ncap)


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except HermlatError as ex:
        # the guard and a zero valuation are outcomes; any other error is a fault
        if not isinstance(ex, PrecisionLoss) and str(ex) != ZERO_VALUATION:
            raise
        return type(ex).__name__, str(ex)
    if isinstance(r, FieldElement):
        # every result, zero or not, is in the normal form __init__ leaves
        # behind, with at most mcap digits
        assert r.ncap <= r.field.mcap
        again = FieldElement(r.field, r.co, r.shift, r.ncap)
        assert (again.co, again.shift, again.ncap) == (r.co, r.shift, r.ncap)
        return r.co, r.shift, r.ncap
    return r


@st.composite
def kernel_elements(draw, fld, kinds=("unit", "content", "zero", "guard")):
    """Elements built by the public constructor: units, elements with
    p-content in their coefficients, zeros (drawn with up to 3*mcap digits,
    which the constructor brings down to mcap), and digit counts just above
    the guard; shifts of both signs.  ``kinds`` limits the draw to some of
    these."""
    p, g, m = fld.p, fld.guard_digits, fld.mcap
    kind = draw(st.sampled_from(kinds))
    shift = draw(st.integers(-m, m))
    if kind == "zero":
        ncap = draw(st.integers(g + 1, 3 * m))
        return FieldElement(fld, (0,) * fld.nbasis, shift, ncap)
    ncap = draw(st.integers(g + 1, g + 3) if kind == "guard" else st.integers(g + 1, 2 * m))
    co = tuple(draw(st.integers(0, p ** ncap - 1)) for _ in range(fld.nbasis))
    if kind == "content":
        k = draw(st.integers(1, ncap))
        co = tuple(c * p ** k for c in co)
    return FieldElement(fld, co, shift, ncap)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_kernel_matches_generic_constructor(data):
    fld = data.draw(st.sampled_from(KERNEL_FIELDS))
    x = data.draw(kernel_elements(fld))
    y = data.draw(st.one_of(kernel_elements(fld), st.just(x), st.integers(-40, 40)))
    yk = fld.from_int(y) if isinstance(y, int) else y
    for fast, generic in ((operator.mul, _generic_mul), (operator.add, _generic_add),
                          (operator.sub, _generic_sub)):
        assert _outcome(fast, x, y) == _outcome(generic, x, yk)
        assert _outcome(fast, y, x) == _outcome(generic, yk, x)
    assert _outcome(operator.neg, x) == _outcome(_generic_neg, x)
    assert _outcome(FieldElement.valuation, x) == _outcome(_generic_valuation, x)
    if any(x.co):
        assert _outcome(FieldElement._invert, x) == _outcome(_generic_invert, x)


@pytest.mark.parametrize("fld", KERNEL_FIELDS, ids=repr)
def test_inverse_times_element_is_one(fld):
    """x * x^-1 - 1 is zero at working precision, for units and for
    elements with p-content, at every twist t^r the field has."""
    rng = random.Random(f"invert-{fld!r}")
    p, m, g = fld.p, fld.mcap, fld.guard_digits
    twists = set()
    for trial in range(60):
        # content p^k (none on even trials), and a least-valuation
        # coordinate of t-degree b: the inverse keeps at least m - k - 1 > g
        # digits
        k = 0 if trial % 2 == 0 else rng.randrange(1, m - g - 1)
        co = [rng.randrange(p ** (m - k - 1)) * p ** (k + 1) for _ in range(fld.nbasis)]
        b = rng.randrange(fld.d)
        co[b * fld.f] += p ** k * rng.randrange(1, p)
        x = FieldElement(fld, co, rng.randrange(-m, m), m)
        twists.add(-b % fld.d)
        assert (x * x._invert() - 1).is_zero()
    assert twists == set(range(fld.d))


def test_mixed_fields_are_rejected():
    a, b = LocalField(2), LocalField(2)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(HermlatError, match="different fields"):
            op(a.one, b.one)

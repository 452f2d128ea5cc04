"""Small exact linear algebra over a quadratic etale algebra.

Matrices are tuples of row tuples of AlgElements; vectors are tuples of
AlgElements.  Everything is sized for ranks well under ten, so determinants
use cofactor expansion with memoization and inverses go through the adjugate.
"""

from __future__ import annotations

from .errors import HermlatError
from .etale import AlgElement, _flat_dot

def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x):
    return tuple(c * a for a in x)


def vec_eq(x, y):
    """Whether x = y at working precision, entry by entry."""
    return all((a - b).is_zero() for a, b in zip(x, y))


def basis_vector(alg, n, i):
    return tuple(alg.one if j == i else alg.zero for j in range(n))


def identity(alg, n):
    return tuple(tuple(alg.one if i == j else alg.zero for j in range(n))
                 for i in range(n))


def mat_from_cols(cols):
    n = len(cols[0])
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def cols_of(mat):
    if not mat:
        return ()
    return tuple(tuple(row[j] for row in mat) for j in range(len(mat[0])))


def mat_mul(a, b):
    bt = cols_of(b)
    return tuple(tuple(_dot(row, col) for col in bt) for row in a)


def _dot(x, y):
    if x and x[0].__class__ is AlgElement and x[0].alg._flat:
        out = _flat_dot(x[0].alg, x, y)
        if out is not None:
            return out
    acc = None
    for a, b in zip(x, y):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def mat_vec(a, x):
    return tuple(_dot(row, x) for row in a)


def conj_transpose(a):
    return tuple(tuple(a[j][i].conj() for j in range(len(a)))
                 for i in range(len(a[0]) if a else 0))


def mat_eq(a, b):
    return all(x == y for r1, r2 in zip(a, b) for x, y in zip(r1, r2))


def mat_det(a):
    if not a:
        raise HermlatError("determinant of an empty matrix")
    return _minor(a, {}, 0, (1 << len(a)) - 1)


def _minor(a, memo, row, mask):
    """Cofactor expansion of the minor of a on rows row.. and the columns
    in mask, along its first row; memo keeps every minor computed."""
    key = (row, mask)
    if key in memo:
        return memo[key]
    cols = [j for j in range(len(a)) if mask & (1 << j)]
    if len(cols) == 1:
        return a[row][cols[0]]
    acc = None
    sign = 1
    for j in cols:
        entry = a[row][j]
        if not entry.is_zero():
            term = entry * _minor(a, memo, row + 1, mask & ~(1 << j))
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
        sign = -sign
    if acc is None:
        acc = a[0][0].alg.zero
    memo[key] = acc
    return acc


def mat_adjugate(a):
    n = len(a)
    if n == 1:
        return ((a[0][0].alg.one,),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            sub = tuple(tuple(a[r][c] for c in range(n) if c != i)
                        for r in range(n) if r != j)
            d = mat_det(sub)
            if (i + j) % 2:
                d = -d
            row.append(d)
        out.append(tuple(row))
    return tuple(out)


def mat_inv(a):
    d = mat_det(a)
    adj = mat_adjugate(a)
    dinv = a[0][0].alg.one / d
    return tuple(tuple(e * dinv for e in row) for row in adj)


def is_integral_matrix(a):
    return all(e.is_zero() or e.is_integral() for row in a for e in row)


def smith(ring, a, val):
    """Smith reduction over the valuation ring of K or of a field-kind E.

    ``ring`` is the field of the entries (its ``one`` and ``zero`` build the
    transforms) and ``val`` their valuation; each pivot is the first entry of
    least valuation, in row order, of the part not yet reduced.  Returns
    (d, u, w) with d = u * a * w diagonal, valuations non-decreasing, and u,
    w unimodular.  Split algebras go slot by slot over K.
    """
    n = len(a)
    m = len(a[0]) if a else 0
    a = [list(row) for row in a]
    u = [list(row) for row in identity(ring, n)]
    w = [list(row) for row in identity(ring, m)]
    for k in range(min(n, m)):
        piv = None
        for i in range(k, n):
            for j in range(k, m):
                if a[i][j].is_zero():
                    continue
                v = val(a[i][j])
                if piv is None or v < piv[0]:
                    piv = (v, i, j)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != k:
            a[pi], a[k] = a[k], a[pi]
            u[pi], u[k] = u[k], u[pi]
        if pj != k:
            for mat in (a, w):
                for row in mat:
                    row[pj], row[k] = row[k], row[pj]
        pivot = a[k][k]
        for i in range(k + 1, n):
            if a[i][k].is_zero():
                continue
            fac = a[i][k] / pivot
            for j in range(m):
                a[i][j] = a[i][j] - fac * a[k][j]
            for j in range(n):
                u[i][j] = u[i][j] - fac * u[k][j]
        for j in range(k + 1, m):
            if a[k][j].is_zero():
                continue
            fac = a[k][j] / pivot
            for i in range(n):
                a[i][j] = a[i][j] - fac * a[i][k]
            for i in range(m):
                w[i][j] = w[i][j] - fac * w[i][k]
    return (tuple(tuple(r) for r in a),
            tuple(tuple(r) for r in u),
            tuple(tuple(r) for r in w))

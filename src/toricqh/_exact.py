"""Small exact linear algebra kit, used by the geometry layers.

Vectors are tuples, matrices are lists of row tuples; entries are ints or
Fractions. Every elimination runs on Python ints through one fraction-free
Gauss-Jordan core (Bareiss 1968). `integer_rows` is the one place rationals
become integers: it scales all rows by one common denominator D, which
changes neither rank nor kernel, and `det` divides by D^n. The hull and the
fan invert a matrix A by one `echelon` of [A | I]. Everything is copied
before elimination, so callers can share inputs freely.
"""

from fractions import Fraction
from math import gcd, lcm

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


def ratvec(v) -> RatVec:
    return tuple(Fraction(x) for x in v)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def integer_rows(rows) -> tuple[int, list]:
    """(D, D times each row) for the least D > 0 that makes every entry an
    integer. All-int rows come back as they are, with D = 1."""
    if all(type(x) is int for r in rows for x in r):
        return 1, list(rows)
    den = lcm(*(x.denominator for r in rows for x in r))
    return den, [tuple(x.numerator * (den // x.denominator) for x in r) for r in rows]


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows `m` in place,
    over their first `ncols` columns.

    Returns (pivot columns, last pivot D, sign of the row permutation). Every
    division is exact: each entry stays, up to sign, a minor of the input. On
    return, row r < rank holds D times row r of the reduced row echelon form,
    rows from rank on are zero, and D is the determinant of the pivot block.
    """
    pivots: list[int] = []
    prev, sign, r = 1, 1, 0
    for c in range(ncols):
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        pivot_row = m[r]
        pv = pivot_row[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(pv * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pv
        pivots.append(c)
        r += 1
    return pivots, prev, sign


def rank(rows) -> int:
    return len(echelon(rows, len(rows[0]))[0]) if rows else 0


def det(rows) -> Fraction:
    den, m = integer_rows(rows)
    pivots, d, sign = _eliminate(m, len(m))
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(sign * d, den ** len(m))


def echelon(rows, ncols) -> tuple[list[int], int, list]:
    """(pivot columns, D, D times the reduced row echelon form over the first
    `ncols` columns) of the rows scaled by `integer_rows`: one elimination."""
    _, m = integer_rows(rows)
    pivots, d, _ = _eliminate(m, ncols)
    return pivots, d, m


def primitive(v) -> IntVec:
    """Scale a nonzero rational vector by a positive factor to coprime integers."""
    if not any(v):
        raise ValueError("zero vector has no primitive representative")
    ints = integer_rows([v])[1][0]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def affine_rank(points) -> int:
    """Dimension of the affine span of the given points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank([vsub(p, base) for p in points[1:]])

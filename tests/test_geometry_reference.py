"""The integer geometry kernel against scalar Fraction reference copies.

The references below are the Fraction Gaussian elimination loops, the
(d-1)-subset hull, the bounding-box lattice-point scan and the volume by
hulls of projected facets that the integer code replaced. They depend on nothing in `toricqh` except `Facet`, so a fault
in the shared elimination core cannot hide in both sides of a comparison.
"""

import itertools
import random
from fractions import Fraction
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricqh import _exact, corpus
from toricqh.lattice import (
    Facet,
    Polytope,
    convex_hull_facets,
    dual_polytope,
    lattice_points,
    normalized_volume,
)


def _ref_echelon(rows):
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _ref_rank(rows):
    return len(_ref_echelon(rows)[1])


def _ref_det(rows):
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def _ref_solve(rows, rhs):
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(m[i][n] for i in range(n))


def _ref_kernel(rows, ncols):
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    m, pivots = _ref_echelon(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def _ref_primitive(v):
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _ref_dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def _ref_affine_rank(points):
    if len(points) <= 1:
        return 0
    return _ref_rank([[Fraction(a) - b for a, b in zip(p, points[0])] for p in points[1:]])


def _ref_hull(points):
    """Candidate directions from (d-1)-subsets of the difference vectors at
    each point; a direction gives a facet when its support is (d-1)-dimensional."""
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    d = len(pts[0])
    candidates = {(1,)} if d == 1 else set()
    for base in pts if d > 1 else ():
        diffs = sorted(set(tuple(a - b for a, b in zip(q, base)) for q in pts if q != base))
        for subset in itertools.combinations(diffs, d - 1):
            if _ref_rank(list(subset)) != d - 1:
                continue
            ker = _ref_kernel(list(subset), d)
            if len(ker) != 1:
                continue
            n = _ref_primitive(ker[0])
            if next(x for x in n if x != 0) < 0:
                n = tuple(-x for x in n)
            candidates.add(n)
    facets = set()
    for n in candidates:
        vals = [_ref_dot(p, n) for p in pts]
        for normal, offset in ((n, min(vals)), (tuple(-x for x in n), -max(vals))):
            support = [p for p in pts if _ref_dot(p, normal) == offset]
            if _ref_affine_rank(support) == d - 1:
                facets.add(Facet(normal, Fraction(offset)))
    return sorted(facets)


def _ref_lattice_points(P):
    """Every point of the bounding box, kept when it satisfies every facet."""
    lo = [ceil(min(v[i] for v in P.vertices)) for i in range(P.dim)]
    hi = [floor(max(v[i] for v in P.vertices)) for i in range(P.dim)]
    return [
        cand
        for cand in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if all(_ref_dot(cand, f.normal) >= f.offset for f in P.facets)
    ]


def _ref_independent_rows(rows):
    chosen = []
    for i in range(len(rows)):
        if _ref_rank([rows[j] for j in chosen] + [rows[i]]) > len(chosen):
            chosen.append(i)
    return chosen


def _ref_project_affine(points):
    """Coordinates of `points` relative to a basis of their affine span."""
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points]
    basis = [diffs[i] for i in _ref_independent_rows(diffs)]
    coord_idx = _ref_independent_rows([tuple(row[j] for row in basis) for j in range(len(base))])
    square = [[basis[i][j] for i in range(len(basis))] for j in coord_idx]
    return [_ref_solve(square, [dp[j] for j in coord_idx]) for dp in diffs]


def _ref_triangulate(points):
    """Fan from point 0 over the hull facets that miss it, recursing on the
    projected facets."""
    k = len(points[0])
    if len(points) == k + 1:
        return [tuple(range(k + 1))]
    simplices = []
    for f in _ref_hull(points):
        if _ref_dot(points[0], f.normal) == f.offset:
            continue
        fidx = [i for i, p in enumerate(points) if _ref_dot(p, f.normal) == f.offset]
        if len(fidx) == k:
            simplices.append((0, *fidx))
            continue
        for tri in _ref_triangulate(_ref_project_affine([points[i] for i in fidx])):
            simplices.append((0, *(fidx[j] for j in tri)))
    return simplices


def _ref_volume(P, apex):
    total = Fraction(0)
    for f in _ref_hull(P.vertices):
        if _ref_dot(apex, f.normal) == f.offset:
            continue
        fverts = [v for v in P.vertices if _ref_dot(v, f.normal) == f.offset]
        if P.dim == 1:
            total += abs(fverts[0][0] - apex[0])
            continue
        for tri in _ref_triangulate(_ref_project_affine(fverts)):
            total += abs(_ref_det([[a - b for a, b in zip(fverts[i], apex)] for i in tri]))
    return total


def _random_matrix(rng, nrows, ncols, rank, rational):
    """nrows x ncols with the given rank at most, as combinations of `rank` rows."""
    basis = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-2, 2) for _ in range(rank)]
        rows.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ncols)))
    if rational:
        rows = [tuple(Fraction(x, rng.randint(1, 5)) for x in r) for r in rows]
    return rows


@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
def test_elimination_matches_fraction_reference(rational):
    rng = random.Random(41 + rational)
    for _ in range(600):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), rational)
        assert _exact.rank(rows) == _ref_rank(rows)
        assert _exact.kernel(rows, ncols) == _ref_kernel(rows, ncols)
        square = _random_matrix(rng, nrows, nrows, rng.randint(0, nrows), rational)
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nrows)]
        assert _exact.det(square) == _ref_det(square)
        assert _exact.solve(square, rhs) == _ref_solve(square, rhs)


def test_elimination_edge_cases():
    assert _exact.kernel([], 3) == _ref_kernel([], 3)
    assert _exact.rank([(0, 0, 0), (0, 0, 0)]) == 0
    assert _exact.det([]) == 1
    assert _exact.det([(1, 2), (2, 4)]) == 0
    assert _exact.solve([(1, 2), (2, 4)], [1, 2]) is None
    assert _exact.solve([(0, 1), (1, 0)], [Fraction(1, 2), 3]) == (3, Fraction(1, 2))
    assert _exact.det([(0, 1), (1, 0)]) == -1


def test_integer_kernel_is_the_signed_minors_up_to_sign():
    rng = random.Random(5)
    for d in range(2, 6):
        for _ in range(50):
            rows = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d - 1)]
            minors = [
                (-1) ** j * _ref_det([r[:j] + r[j + 1:] for r in rows]) for j in range(d)
            ]
            ker, _ = _exact.integer_kernel(rows, d)
            if not any(minors):
                assert len(ker) != 1
                continue
            (v,) = ker
            assert v == minors or v == [-m for m in minors]


def _point_sets(rng, d, rational):
    """Random full-dimensional point sets, some with collinear subsets."""
    while True:
        count = rng.randint(d + 1, d + (5 if d < 5 else 3))
        pts = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3) if rational else 1) for _ in range(d))
               for _ in range(count)]
        if d > 1 and rng.random() < 0.5:
            a, b = pts[0], pts[1]
            pts += [tuple(x + t * (y - x) for x, y in zip(a, b)) for t in (2, 3)]
        if _ref_affine_rank(sorted(set(tuple(map(Fraction, p)) for p in pts))) == d:
            return pts


@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hull_matches_reference(d, rational):
    rng = random.Random(100 * d + rational)
    for _ in range(12 if d < 5 else 5):
        pts = _point_sets(rng, d, rational)
        assert convex_hull_facets(pts) == _ref_hull(pts)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_lattice_points_match_reference(d):
    rng = random.Random(200 + d)
    for _ in range(8 if d < 5 else 2):
        pts = _point_sets(rng, d, rational=True)
        P = Polytope.from_points(pts)
        assert lattice_points(P) == _ref_lattice_points(P)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_normalized_volume_matches_reference(d):
    rng = random.Random(300 + d)
    for _ in range(8):
        P = Polytope.from_points(_point_sets(rng, d, rational=rng.random() < 0.5))
        centroid = tuple(sum(v[i] for v in P.vertices) / len(P.vertices) for i in range(d))
        assert normalized_volume(P) == _ref_volume(P, centroid)
        assert normalized_volume(P, apex=P.vertices[-1]) == _ref_volume(P, P.vertices[-1])


def test_lattice_points_ceil_and_zero_last_coefficient():
    # non-integral offsets, and the facets x_1 >= c, x_1 <= c' have last coefficient 0
    box = Polytope.from_points([(Fraction(-3, 2), Fraction(-1, 3)), (Fraction(5, 2), Fraction(-1, 3)),
                                (Fraction(-3, 2), Fraction(7, 3)), (Fraction(5, 2), Fraction(7, 3))])
    assert any(f.normal[-1] == 0 and f.offset.denominator != 1 for f in box.facets)
    assert lattice_points(box) == _ref_lattice_points(box) == [(x, y) for x in range(-1, 3) for y in range(0, 3)]
    empty = Polytope.from_points([(Fraction(1, 3), 0), (Fraction(2, 3), 0), (Fraction(1, 2), 1)])
    assert lattice_points(empty) == _ref_lattice_points(empty) == []


def _signed(rows, perm, signs):
    return [tuple(s * r[p] for p, s in zip(perm, signs)) for r in rows]


COUNTS = {"cp5": (7, 462), "cp6": (8, 1716), "u8": (11, 59)}


@pytest.mark.parametrize("name", sorted(COUNTS))
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lattice_point_counts_are_orientation_free(name, data):
    """Ray and moment polytope counts under a random signed permutation;
    the box scan took about 80 s for cp6 in most orientations."""
    rows = corpus.entry(name).dual_vertices
    d = len(rows[0])
    perm = data.draw(st.permutations(range(d)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    ray = Polytope.from_points(_signed(rows, perm, signs))
    assert (len(lattice_points(ray)), len(lattice_points(dual_polytope(ray)))) == COUNTS[name]

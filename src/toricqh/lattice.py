"""Exact lattice-polytope geometry: hulls, duality, reflexivity, Delzant
tests, normalized volume, lattice-point enumeration.

Everything here is exact, with no floating point: vertices and offsets are
rationals, and hulls, eliminations and lattice-point scans run on integers.
Hulls come from the double-description method (Fukuda and Prodon, "Double
description method revisited", 1996): one elimination, then one pass over
the points. Vertices, facets and lattice points are kept in lexicographic
order so that all outputs are byte-deterministic. A `Polytope` is given its
facets at construction, computes its vertex-facet incidence once, and
`from_points` builds one hull per point set.
"""

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import ceil, floor
from operator import and_
from typing import NamedTuple

from . import _exact
from ._exact import IntVec, RatVec, affine_rank, dot, ratvec, vsub
from .errors import NotFullDimensional, OriginNotInterior


class Facet(NamedTuple):
    """Supporting half-space <m, normal> >= offset with primitive inner normal."""

    normal: IntVec
    offset: Fraction


class Polytope:
    """Full-dimensional polytope with exact rational vertices and its facets.

    Vertices and facets are fixed at construction, each in sorted order, and
    the vertices are exactly the extreme points. `from_points` keeps one hull
    per point set. The vertex-facet incidence is computed once, on first use,
    and every face computation reads it.
    """

    def __init__(self, dim: int, vertices, facets):
        self.dim = dim
        self.vertices: tuple[RatVec, ...] = tuple(sorted(ratvec(v) for v in vertices))
        self.facets: tuple[Facet, ...] = tuple(sorted(facets))

    @classmethod
    def from_points(cls, points) -> "Polytope":
        """The convex hull of `points`, silently dropping non-extreme ones; the
        same object for every listing of the same point set, and for the set
        of its vertices."""
        pts = tuple(sorted(set(ratvec(p) for p in points)))
        if pts not in _hulls:
            P = _hull(pts)
            _hulls[pts] = _hulls.setdefault(P.vertices, P)
        return _hulls[pts]

    @cached_property
    def scaled(self) -> tuple[int, list[IntVec], IntVec]:
        """(D, D times each vertex, D times each facet offset) for the least
        D > 0 that makes them all integers."""
        den, rows = _exact.integer_rows([*self.vertices, [f.offset for f in self.facets]])
        return den, rows[:-1], rows[-1]

    @cached_property
    def incidence(self) -> tuple[frozenset[int], ...]:
        """For each facet, the indices of the vertices on it."""
        _, vertices, offsets = self.scaled
        return tuple(
            frozenset(i for i, v in enumerate(vertices) if dot(v, f.normal) == c) for f, c in zip(self.facets, offsets)
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.dim == other.dim and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)})"


# sorted distinct points -> their hull, also keyed by the hull's own vertices
_hulls: dict[tuple[RatVec, ...], Polytope] = {}


def _hull(pts: tuple[RatVec, ...]) -> Polytope:
    """Hull of sorted, distinct rational points: a point is a vertex when no
    other point lies on every facet through it, as the smallest face holding
    a non-vertex holds at least two points. No elimination beyond the hull's."""
    facets = convex_hull_facets(pts)
    *ipts, offsets = _exact.integer_rows([*pts, [f.offset for f in facets]])[1]
    # bit i of a facet's mask is set when point i lies on the facet
    masks = [sum(1 << i for i, q in enumerate(ipts) if dot(q, f.normal) == c) for f, c in zip(facets, offsets)]
    everything = (1 << len(pts)) - 1
    vertices = [p for i, p in enumerate(pts) if reduce(and_, (z for z in masks if z >> i & 1), everything) == 1 << i]
    return Polytope(len(pts[0]), vertices, facets)


def convex_hull_facets(points) -> list[Facet]:
    """Irredundant facet list of conv(points), primitive inner normals, by the
    double-description method (Motzkin et al. 1953; Fukuda and Prodon,
    "Double description method revisited", 1996).

    A facet <n, x> >= c is an extreme ray y = (n, -c) of the cone of all y
    with y . (p, 1) >= 0 for every point p. The first d + 1 affinely
    independent points, in the order given, cut out a simplicial cone: its
    rays are the rows of the inverse of the matrix with columns (p, 1), and
    one elimination finds the points and the inverse. Each further point
    keeps the rays on its nonnegative side and joins each adjacent pair
    across it: a and b are adjacent when no other ray vanishes on every point
    so far on which both vanish. Rational points are scaled to one common
    denominator first, so everything runs on integers.
    """
    pts = list(dict.fromkeys(tuple(p) for p in points))
    if not pts:
        raise NotFullDimensional("no points given")
    d, n = len(pts[0]), len(pts)
    den, ipts = _exact.integer_rows(pts)
    hom = [(*p, 1) for p in ipts]
    # the columns (p, 1) beside an identity block: the pivots are the first
    # d + 1 independent columns, and the block ends as `scale` times the
    # inverse of the matrix they form
    eye = [[int(i == j) for j in range(d + 1)] for i in range(d + 1)]
    pivots, scale, m = _exact.echelon([(*col, *e) for col, e in zip(zip(*hom), eye)], n)
    if len(pivots) <= d:
        raise NotFullDimensional(f"points span affine dimension {len(pivots) - 1} < {d}")
    basis = sum(1 << i for i in pivots)
    # (primitive ray, bit mask of the points so far on which it vanishes)
    rays = [(_exact.primitive([x if scale > 0 else -x for x in row[n:]]), basis ^ 1 << i) for row, i in zip(m, pivots)]
    for i, h in enumerate(hom):
        if basis >> i & 1:
            continue
        vals = [dot(r, h) for r, _ in rays]
        kept = [(r, z | (v == 0) << i) for (r, z), v in zip(rays, vals) if v >= 0]
        for (a, za), va in zip(rays, vals):
            for (b, zb), vb in zip(rays, vals):
                if va > 0 > vb and (z := za & zb).bit_count() >= d - 1 and sum(z & zc == z for _, zc in rays) == 2:
                    kept.append((_exact.primitive([va * y - vb * x for x, y in zip(a, b)]), z | 1 << i))
        rays = kept
    # a primitive ray has a primitive normal: c is <n, p> for a point p on the facet
    return sorted(Facet(r[:d], Fraction(-r[d], den)) for r, _ in rays)


@lru_cache(maxsize=None)
def dual_polytope(P: Polytope) -> Polytope:
    """Polar dual {n : <m, n> >= -1 for all m in P}; requires 0 interior.
    Computed once per polytope."""
    if any(f.offset >= 0 for f in P.facets):
        bad = next(f for f in P.facets if f.offset >= 0)
        raise OriginNotInterior(f"facet {bad.normal} has offset {bad.offset} >= 0")
    dual_vertices = [tuple(Fraction(x) / (-f.offset) for x in f.normal) for f in P.facets]
    # Each vertex v of P supports the dual facet <primitive(v), n> >= -1/scale,
    # so the dual's facet list comes for free from P's vertex list.
    dual_facets = []
    for v in P.vertices:
        prim = _exact.primitive(v)
        scale = next(Fraction(x) / p for x, p in zip(v, prim) if p != 0)
        dual_facets.append(Facet(prim, Fraction(-1) / scale))
    return Polytope(P.dim, dual_vertices, dual_facets)


@lru_cache(maxsize=None)
def is_reflexive(P: Polytope) -> tuple[bool, str | None]:
    """True when 0 is interior and both P and its dual are integral."""
    if any(f.offset >= 0 for f in P.facets):
        return False, "origin is not strictly interior"
    if not P.is_integral():
        return False, "polytope has a non-integral vertex"
    dual = dual_polytope(P)
    if not dual.is_integral():
        bad = next(v for v in dual.vertices if any(x.denominator != 1 for x in v))
        return False, f"dual has non-integral vertex {tuple(map(str, bad))}"
    return True, None


def lattice_points(P: Polytope) -> list[IntVec]:
    """All integral points of P, in lexicographic order.

    Each facet, as the integer inequality <normal, x> >= ceil(offset), bounds
    the next coordinate to an interval once the earlier ones are fixed and
    the later ones range over the bounding box; on the last coordinate the
    interval is exact. Only prefixes that can still be completed are visited,
    so the cost does not depend on the signs of the coordinates.
    """
    d = P.dim
    lo = [ceil(min(v[i] for v in P.vertices)) for i in range(d)]
    hi = [floor(max(v[i] for v in P.vertices)) for i in range(d)]
    normals = [f.normal for f in P.facets]
    # reach[k][j]: the most the coordinates after k add to <normals[j], x> in the box
    reach = [[sum(max(a * lo[i], a * hi[i]) for i, a in enumerate(n) if i > k) for n in normals] for k in range(d)]
    points = []

    def scan(k, head, need):
        if k == d:
            points.append(head)
            return
        low, high = lo[k], hi[k]
        for n, r, extra in zip(normals, need, reach[k]):
            r -= extra
            a = n[k]
            if a > 0:
                low = max(low, -(-r // a))
            elif a < 0:
                high = min(high, r // a)
            elif r > 0:
                return
        for x in range(low, high + 1):
            scan(k + 1, (*head, x), [r - n[k] * x for n, r in zip(normals, need)])

    scan(0, (), [ceil(f.offset) for f in P.facets])
    return points


def _adjacent_vertices(P: Polytope) -> list[list[int]]:
    """Vertex adjacency via facet incidence, by vertex index: v ~ w iff the
    smallest face containing both (P itself when no facet does) has exactly
    two vertices."""
    everything = frozenset(range(len(P.vertices)))
    adj: list[list[int]] = [[] for _ in P.vertices]
    for a, b in itertools.combinations(range(len(P.vertices)), 2):
        if len(everything.intersection(*(g for g in P.incidence if a in g and b in g))) == 2:
            adj[a].append(b)
            adj[b].append(a)
    return adj


@lru_cache(maxsize=None)
def is_delzant(P: Polytope) -> tuple[bool, str | None]:
    """Simple + smooth test: d edges per vertex whose primitive directions,
    taken on the scaled integer vertices, form a lattice basis."""
    scaled = P.scaled[1]
    for v, iv, edges in zip(P.vertices, scaled, _adjacent_vertices(P)):
        if len(edges) != P.dim:
            return False, f"vertex {tuple(map(str, v))} meets {len(edges)} edges, expected {P.dim}"
        dirs = [_exact.primitive(vsub(scaled[j], iv)) for j in edges]
        if abs(_exact.det(dirs)) != 1:
            return False, f"edge directions at vertex {tuple(map(str, v))} are not a lattice basis"
    return True, None


def _triangulate(P: Polytope, face: frozenset[int], k: int) -> list[tuple[int, ...]]:
    """Pulling triangulation of a k-dimensional face of P, given by its vertex
    indices, into simplices of vertex indices. Fans out from the face's first
    vertex over the facets of the face that miss it. Those are the
    (k-1)-dimensional intersections of the face with the facets of P, so no
    hull is computed."""
    if len(face) == k + 1:
        return [tuple(sorted(face))]
    apex = min(face)
    simplices = []
    for sub in {face & g for g in P.incidence}:
        if apex not in sub and len(sub) >= k and affine_rank([P.scaled[1][i] for i in sub]) == k - 1:
            simplices += [(apex, *t) for t in _triangulate(P, sub, k - 1)]
    return simplices


def normalized_volume(P: Polytope) -> Fraction:
    """d! times the Euclidean volume of P, exactly.

    Decomposes P into pyramids over its facets from its vertex centroid, an
    interior point, then triangulates each facet. The determinants run on
    the integer vertices scaled by n D (n vertices, D from `scaled`), with
    n D times the centroid as the apex.
    """
    d, n = P.dim, len(P.vertices)
    den, scaled = P.scaled[:2]
    apex = tuple(sum(v[i] for v in scaled) for i in range(d))
    vertices = [tuple(n * x for x in v) for v in scaled]
    total = sum(abs(_exact.det([vsub(vertices[i], apex) for i in tri]))
                for face in P.incidence for tri in _triangulate(P, face, d - 1))
    return Fraction(total, (n * den) ** d)

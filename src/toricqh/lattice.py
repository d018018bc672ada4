"""Exact lattice-polytope geometry: hulls, duality, reflexivity, Delzant
tests, normalized volume, lattice-point enumeration.

Everything here is exact, with no floating point: vertices and offsets are
rationals, and hulls, eliminations and lattice-point scans run on integers.
Vertices, facets and lattice points are kept in lexicographic order so that
all outputs are byte-deterministic. A `Polytope` is given its facets at
construction, computes its vertex-facet incidence once, and `from_points`
builds one hull per point set.
"""

import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, floor, lcm

from . import _exact
from ._exact import IntVec, RatVec, affine_rank, dot, ratvec, vsub
from .errors import NotFullDimensional, OriginNotInterior

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class Facet:
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
        same object for every listing of the same point set."""
        return _hull(tuple(sorted(set(ratvec(p) for p in points))))

    @cached_property
    def incidence(self) -> tuple[frozenset[int], ...]:
        """For each facet, the indices of the vertices on it."""
        return tuple(
            frozenset(i for i, v in enumerate(self.vertices) if dot(v, f.normal) == f.offset)
            for f in self.facets
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.dim == other.dim and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)})"


@lru_cache(maxsize=None)
def _hull(pts: tuple[RatVec, ...]) -> Polytope:
    """Hull of sorted, distinct rational points: a point is a vertex when the
    normals of the facets through it have full rank."""
    facets = convex_hull_facets(pts)
    dim = len(pts[0])
    vertices = [p for p in pts if _exact.rank([f.normal for f in facets if dot(p, f.normal) == f.offset]) == dim]
    if len(vertices) < len(pts):
        log.debug("dropped %d non-extreme input point(s)", len(pts) - len(vertices))
    return Polytope(dim, vertices, facets)


def convex_hull_facets(points) -> list[Facet]:
    """Irredundant facet list of conv(points), primitive inner normals.

    Every affinely independent d-subset of the points spans a hyperplane
    whose normal is the vector of signed (d-1)-minors of its difference rows;
    the hyperplane carries a facet when all points lie on one side of it.
    Rational points are scaled to one common denominator first, so minors and
    side tests run on integers. C(n, d) candidates: intended for small
    instances (d <= 6, at most a few dozen points).
    """
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        raise NotFullDimensional("no points given")
    d = len(pts[0])
    den = lcm(*(x.denominator for p in pts for x in p))
    ipts = [tuple(int(x * den) for x in p) for p in pts]
    if affine_rank(ipts) < d:
        raise NotFullDimensional(f"points span affine dimension {affine_rank(ipts)} < {d}")

    candidates: set[tuple[IntVec, int]] = set()
    for subset in itertools.combinations(ipts, d):
        base = subset[0]
        ker, _ = _exact.integer_kernel([vsub(q, base) for q in subset[1:]], d)
        if len(ker) != 1:
            continue
        n = _exact.primitive(ker[0])
        if next(x for x in n if x != 0) < 0:
            n = tuple(-x for x in n)
        candidates.add((n, dot(base, n)))

    facets = []
    for n, c in candidates:
        vals = [dot(p, n) for p in ipts]
        if min(vals) == c:
            facets.append(Facet(n, Fraction(c, den)))
        elif max(vals) == c:
            facets.append(Facet(tuple(-x for x in n), Fraction(-c, den)))
    return sorted(facets)


def dual_polytope(P: Polytope) -> Polytope:
    """Polar dual {n : <m, n> >= -1 for all m in P}; requires 0 interior."""
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


def interior_lattice_points(P: Polytope) -> list[IntVec]:
    return [
        p
        for p in lattice_points(P)
        if all(dot(p, f.normal) > f.offset for f in P.facets)
    ]


def _adjacent_vertices(P: Polytope) -> dict[RatVec, list[RatVec]]:
    """Vertex adjacency via facet incidence: v ~ w iff the smallest face
    containing both (P itself when no facet does) has exactly two vertices."""
    everything = frozenset(range(len(P.vertices)))
    adj: dict[RatVec, list[RatVec]] = {v: [] for v in P.vertices}
    for a, b in itertools.combinations(range(len(P.vertices)), 2):
        if len(everything.intersection(*(g for g in P.incidence if a in g and b in g))) == 2:
            v, w = P.vertices[a], P.vertices[b]
            adj[v].append(w)
            adj[w].append(v)
    return adj


@lru_cache(maxsize=None)
def is_delzant(P: Polytope) -> tuple[bool, str | None]:
    """Simple + smooth test: d edges per vertex whose primitive directions
    form a lattice basis."""
    adj = _adjacent_vertices(P)
    for v in P.vertices:
        edges = adj[v]
        if len(edges) != P.dim:
            return False, f"vertex {tuple(map(str, v))} meets {len(edges)} edges, expected {P.dim}"
        dirs = [_exact.primitive(vsub(w, v)) for w in edges]
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
        if apex not in sub and len(sub) >= k and affine_rank([P.vertices[i] for i in sub]) == k - 1:
            simplices += [(apex, *t) for t in _triangulate(P, sub, k - 1)]
    return simplices


def normalized_volume(P: Polytope, apex=None) -> Fraction:
    """d! times the Euclidean volume of P, exactly.

    Decomposes P into pyramids over its facets from an interior apex
    (default: vertex centroid), then triangulates each facet.
    """
    d = P.dim
    if apex is None:
        n = len(P.vertices)
        apex = tuple(sum(v[i] for v in P.vertices) / n for i in range(d))
    else:
        apex = ratvec(apex)
    total = Fraction(0)
    for f, face in zip(P.facets, P.incidence):
        if dot(apex, f.normal) == f.offset:
            continue
        for tri in _triangulate(P, face, d - 1):
            total += abs(_exact.det([vsub(P.vertices[i], apex) for i in tri]))
    return total


def polytope_product(P: Polytope, Q: Polytope) -> Polytope:
    """Product polytope in the direct-sum lattice; vertices are vertex pairs."""
    vertices = [p + q for p in P.vertices for q in Q.vertices]
    zeros_q = (0,) * Q.dim
    zeros_p = (0,) * P.dim
    facets = [Facet(f.normal + zeros_q, f.offset) for f in P.facets]
    facets += [Facet(zeros_p + f.normal, f.offset) for f in Q.facets]
    return Polytope(P.dim + Q.dim, vertices, facets)

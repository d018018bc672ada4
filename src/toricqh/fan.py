"""Complete fans over the faces of reflexive polytopes, and their
combinatorial predicates: smoothness, completeness, minimal-cone location,
primitive collections.

Only simplicial fans are supported. A fan is its rays and its maximal cones;
a cone is the sorted tuple of its ray indices, and every face of a maximal
cone is stored. Each maximal cone is eliminated once, when the fan is built.
"""

import itertools
from collections import Counter
from functools import lru_cache

from . import _exact
from ._exact import IntVec
from .errors import NotComplete, NotReflexive, NotSimplicial, NotSmooth
from .lattice import Polytope, is_reflexive, normalized_volume

Cone = tuple[int, ...]  # sorted ray indices


class Fan:
    """Simplicial fan: primitive ray generators plus cones graded by dimension."""

    def __init__(self, dim: int, rays, maximal):
        """The fan of the given maximal cones (ray index sets) with all their
        faces. Valid for simplicial fans only, where every subset of a cone's
        rays spans a face; a cone on dependent rays is rejected. `inverses` maps
        each d-cone, in `maximal_cones` order, to (D, D B^-1) for B its ray
        columns and D = +-det B: one elimination of [B | I], also the rank check."""
        self.dim = dim
        self.rays: tuple[IntVec, ...] = tuple(tuple(int(x) for x in r) for r in rays)
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("fan rays must be pairwise distinct")
        eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
        cones: dict[int, set[Cone]] = {0: {()}}
        self.inverses: dict[Cone, tuple[int, tuple[IntVec, ...]]] = {}
        for idx in sorted({tuple(sorted(idx)) for idx in maximal}):
            pivots, d, m = _exact.echelon([(*col, *e) for col, e in zip(zip(*self.ray_matrix(idx)), eye)], len(idx))
            if len(pivots) != len(idx):
                raise NotSimplicial(f"rays {idx} are linearly dependent")
            if len(idx) == dim:
                self.inverses[idx] = d, tuple(tuple(row[dim:]) for row in m)
            for k in range(1, len(idx) + 1):
                cones.setdefault(k, set()).update(itertools.combinations(idx, k))
        self.cones: dict[int, tuple[Cone, ...]] = {k: tuple(sorted(v)) for k, v in cones.items()}

    @property
    def maximal_cones(self) -> tuple[Cone, ...]:
        return self.cones.get(self.dim, ())

    def ray_matrix(self, cone: Cone) -> list[IntVec]:
        return [self.rays[i] for i in cone]

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, maximal={len(self.maximal_cones)})"


def fan_from_reflexive(dual: Polytope) -> Fan:
    """The complete fan whose cones span the proper faces of `dual`.

    `dual` must be reflexive with simplicial facets (equivalently, the
    associated variety is quasi-smooth); rays are its vertices.
    """
    ok, why = is_reflexive(dual)
    if not ok:
        raise NotReflexive(why)
    for f, face in zip(dual.facets, dual.incidence):
        if len(face) != dual.dim:
            raise NotSimplicial(
                f"facet with normal {f.normal} has {len(face)} vertices; "
                "only simplicial reflexive polytopes are supported"
            )
    return Fan(dual.dim, dual.vertices, dual.incidence)


@lru_cache(maxsize=None)
def is_smooth(f: Fan) -> tuple[bool, Cone | None]:
    """True iff every d-cone's rays form a lattice basis, |D| = 1 in `inverses`.
    A maximal cone of lower dimension is not checked: its fan is not complete."""
    for cone in f.maximal_cones:
        if abs(f.inverses[cone][0]) != 1:
            return False, cone
    return True, None


@lru_cache(maxsize=None)
def is_complete(f: Fan) -> bool:
    """Completeness via boundary pairing: every stored cone is a face of a
    d-cone, and every ridge of a d-cone lies in exactly two of them."""
    top = f.maximal_cones
    ridges = Counter(r for cone in top for r in itertools.combinations(cone, f.dim - 1))
    faces = {c for cone in top for k in range(f.dim - 1) for c in itertools.combinations(cone, k)}
    return (bool(top) and all(n == 2 for n in ridges.values())
            and len(faces) + len(ridges) + len(top) == sum(map(len, f.cones.values())))


def minimal_cone_containing(f: Fan, v) -> dict[int, int]:
    """The positive integral coordinates of `v` in the ray basis of the unique
    cone with `v` in its relative interior; its keys, in cone order, are
    that cone."""
    if not is_complete(f):
        raise NotComplete("minimal cone location needs a complete fan")
    if not is_smooth(f)[0]:
        raise NotSmooth("minimal cone location needs a smooth fan")
    w = tuple(int(x) for x in v)
    if w != tuple(v):
        raise ValueError(f"minimal cone location needs an integral vector, got {tuple(v)}")
    for cone, (d, inverse) in f.inverses.items():
        x = [d * _exact.dot(row, w) for row in inverse]  # B^-1 w, as d = 1 / d on a smooth fan
        if all(c >= 0 for c in x):
            return {i: c for i, c in zip(cone, x) if c > 0}
    raise NotComplete("no cone contains the given vector")  # unreachable when complete


def primitive_collections(f: Fan) -> list[tuple[int, ...]]:
    """All minimal non-faces: sets of rays spanning no cone while every
    proper subset does, by size and then lexicographically. Each is a stored
    face with one larger ray added. For simplicial complete fans the size is
    <= d+1."""
    if not is_complete(f):
        raise NotComplete("primitive collections need a complete fan")
    stored = {c for cones in f.cones.values() for c in cones}
    collections = [c + (j,) for c in stored if c for j in range(c[-1] + 1, len(f.rays))
                   if c + (j,) not in stored and all((*c[:k], *c[k + 1:], j) in stored for k in range(len(c)))]
    return sorted(collections, key=lambda c: (len(c), c))


def kushnirenko_bound(f: Fan) -> int:
    """Number of torus critical points, with multiplicity, of any section
    with nonzero coefficients supported on the rays: the normalized volume
    of the convex hull of the ray generators.

    When the fan is the face fan of that hull (the Fano case) this equals
    the number of maximal cones; for subdivided fans it can be larger.
    """
    vol = normalized_volume(Polytope.from_points(f.rays))
    assert vol.denominator == 1
    return int(vol)

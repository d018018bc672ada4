"""Complete fans over the faces of reflexive polytopes, and their
combinatorial predicates: smoothness, completeness, minimal-cone location,
primitive collections, products.

Only simplicial fans are supported; cones are stored as sorted tuples of ray
indices, and every face of a stored cone is stored.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import _exact
from ._exact import IntVec
from .errors import NotComplete, NotReflexive, NotSimplicial, NotSmooth
from .lattice import Polytope, is_reflexive, normalized_volume


@dataclass(frozen=True, order=True)
class Cone:
    """A cone of a simplicial fan, identified by its sorted ray indices."""

    ray_indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.ray_indices)


ZERO_CONE = Cone(())


class Fan:
    """Simplicial fan: primitive ray generators plus cones graded by dimension."""

    def __init__(self, dim: int, rays, cones: dict[int, tuple[Cone, ...]]):
        self.dim = dim
        self.rays: tuple[IntVec, ...] = tuple(tuple(int(x) for x in r) for r in rays)
        self.cones = {k: tuple(sorted(v)) for k, v in cones.items()}
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("fan rays must be pairwise distinct")

    @classmethod
    def from_maximal_cones(cls, dim: int, rays, maximal) -> "Fan":
        """Build a fan from its maximal cones; all faces are generated.

        Valid for simplicial fans only: every subset of a simplicial cone's
        rays spans a face. Non-simplicial input is rejected.
        """
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        cones: dict[int, set[Cone]] = {0: {ZERO_CONE}}
        for idx_set in maximal:
            idx = tuple(sorted(idx_set))
            span = [rays[i] for i in idx]
            if _exact.rank(span) != len(idx):
                raise NotSimplicial(f"rays {idx} are linearly dependent")
            for k in range(1, len(idx) + 1):
                cones.setdefault(k, set())
                for sub in itertools.combinations(idx, k):
                    cones[k].add(Cone(sub))
        return cls(dim, rays, {k: tuple(sorted(v)) for k, v in cones.items()})

    @property
    def maximal_cones(self) -> tuple[Cone, ...]:
        return self.cones.get(self.dim, ())

    def ray_matrix(self, cone: Cone) -> list[IntVec]:
        return [self.rays[i] for i in cone.ray_indices]

    @cached_property
    def smooth(self) -> bool:
        return is_smooth(self)[0]

    @cached_property
    def complete(self) -> bool:
        return is_complete(self)

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
    rays = [tuple(int(x) for x in v) for v in dual.vertices]
    for f, face in zip(dual.facets, dual.incidence):
        if len(face) != dual.dim:
            raise NotSimplicial(
                f"facet with normal {f.normal} has {len(face)} vertices; "
                "only simplicial reflexive polytopes are supported"
            )
    return Fan.from_maximal_cones(dual.dim, rays, dual.incidence)


def is_smooth(f: Fan) -> tuple[bool, Cone | None]:
    """True iff every maximal cone's rays form a lattice basis (det +-1)."""
    for cone in f.cones.get(f.dim, ()):
        if abs(_exact.det(f.ray_matrix(cone))) != 1:
            return False, cone
    return True, None


def is_complete(f: Fan) -> bool:
    """Completeness via boundary pairing: all maximal cones are d-dimensional
    and every (d-1)-cone lies in exactly two of them."""
    top = f.cones.get(f.dim, ())
    if not top:
        return False
    top_sets = [set(c.ray_indices) for c in top]
    for k, cones in f.cones.items():
        if k == f.dim:
            continue
        for c in cones:
            if not any(set(c.ray_indices) <= t for t in top_sets):
                return False  # a maximal cone of dimension < d
    for ridge in f.cones.get(f.dim - 1, ()):
        count = sum(1 for t in top_sets if set(ridge.ray_indices) <= t)
        if count != 2:
            return False
    return True


def minimal_cone_containing(f: Fan, v) -> tuple[Cone, dict[int, int]]:
    """The unique cone with `v` in its relative interior, plus the positive
    integral coordinates of `v` in that cone's ray basis."""
    if not f.complete:
        raise NotComplete("minimal cone location needs a complete fan")
    if not f.smooth:
        raise NotSmooth("minimal cone location needs a smooth fan")
    v = tuple(int(x) for x in v)
    if all(x == 0 for x in v):
        return ZERO_CONE, {}
    for cone in f.maximal_cones:
        cols = f.ray_matrix(cone)
        matrix = [[cols[j][i] for j in range(len(cols))] for i in range(f.dim)]
        x = _exact.solve(matrix, v)
        if x is None or any(c < 0 for c in x):
            continue
        if any(c.denominator != 1 for c in x):
            continue  # cannot happen for smooth cones and integral v
        support = [i for i, c in zip(cone.ray_indices, x) if c > 0]
        coeffs = {i: int(c) for i, c in zip(cone.ray_indices, x) if c > 0}
        return Cone(tuple(support)), coeffs
    raise NotComplete("no cone contains the given vector")  # unreachable when complete


def primitive_collections(f: Fan) -> list[tuple[int, ...]]:
    """All minimal non-faces: sets of rays spanning no cone while every
    proper subset does. For simplicial complete fans the size is <= d+1."""
    if not f.complete:
        raise NotComplete("primitive collections need a complete fan")
    stored = {frozenset(c.ray_indices) for cones in f.cones.values() for c in cones}
    collections = []
    for size in range(2, f.dim + 2):
        for subset in itertools.combinations(range(len(f.rays)), size):
            s = frozenset(subset)
            if s in stored:
                continue
            if all(s - {i} in stored for i in subset):
                collections.append(subset)
    return collections


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


def fan_product(f: Fan, g: Fan) -> Fan:
    """Product fan: embedded rays of both factors, cones are products."""
    zeros_g = (0,) * g.dim
    zeros_f = (0,) * f.dim
    rays = [r + zeros_g for r in f.rays] + [zeros_f + r for r in g.rays]
    shift = len(f.rays)
    maximal = [
        tuple(a.ray_indices) + tuple(i + shift for i in b.ray_indices)
        for a in f.maximal_cones
        for b in g.maximal_cones
    ]
    return Fan.from_maximal_cones(f.dim + g.dim, rays, maximal)

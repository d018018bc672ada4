"""Piecewise linear support functions on a fan: the rational-values model of
a toric symplectic class.

A support function stores one rational value per ray. On each maximal cone
of a simplicial fan it is represented by the unique linear form agreeing with
those values on the cone's rays; strict convexity means every off-cone ray
sees a strictly larger value under that form than its own.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _exact
from ._exact import RatVec
from .errors import NotComplete, NotDelzant, NotStrictlyConvex
from .fan import Cone, Fan
from .lattice import Facet, Polytope, is_delzant


@dataclass(frozen=True)
class SupportFunction:
    fan: Fan
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.fan.rays):
            raise ValueError("need one value per ray")

    @cached_property
    def _cone_forms(self) -> dict[Cone, RatVec]:
        """Linear form m_sigma per maximal cone, with <m_sigma, n_rho> = F(n_rho)."""
        forms = {}
        for cone in self.fan.maximal_cones:
            rows = self.fan.ray_matrix(cone)
            rhs = [self.values[i] for i in cone.ray_indices]
            forms[cone] = _exact.solve(rows, rhs)
        return forms

    def cone_form(self, cone: Cone) -> RatVec:
        return self._cone_forms[cone]


def monotone_support(f: Fan) -> SupportFunction:
    """The anticanonical class normalization: value -1 on every ray.

    For a fan over the faces of a reflexive polytope this is strictly convex
    and its moment polytope is the primal reflexive polytope.
    """
    return SupportFunction(f, (Fraction(-1),) * len(f.rays))


def is_strictly_convex(F: SupportFunction) -> tuple[bool, tuple[Cone, int] | None]:
    """Exact witness test: for each maximal cone sigma and ray rho not in it,
    require <m_sigma, n_rho> > F(n_rho)."""
    fan = F.fan
    if not fan.complete:
        raise NotComplete("strict convexity is checked on complete fans")
    for cone in fan.maximal_cones:
        form = F.cone_form(cone)
        members = set(cone.ray_indices)
        for i, ray in enumerate(fan.rays):
            if i in members:
                continue
            if _exact.dot(form, ray) <= F.values[i]:
                return False, (cone, i)
    return True, None


def convexity_margin(F: SupportFunction) -> Fraction:
    """Largest sup-norm perturbation of the values guaranteed to preserve
    strict convexity.

    Each slack <m_sigma, n_rho> - F(n_rho) moves by at most
    (1 + sum |c|) * eps under an eps-perturbation, where c are the
    coordinates of n_rho in sigma's ray basis; the margin divides each slack
    by that sensitivity and takes the minimum.
    """
    fan = F.fan
    margin = None
    for cone in fan.maximal_cones:
        form = F.cone_form(cone)
        rows = fan.ray_matrix(cone)
        matrix = [[rows[j][i] for j in range(len(rows))] for i in range(fan.dim)]
        members = set(cone.ray_indices)
        for i, ray in enumerate(fan.rays):
            if i in members:
                continue
            slack = _exact.dot(form, ray) - F.values[i]
            coords = _exact.solve(matrix, ray)
            sensitivity = 1 + sum(abs(c) for c in coords)
            bound = slack / sensitivity
            margin = bound if margin is None else min(margin, bound)
    return margin


def moment_polytope(F: SupportFunction) -> Polytope:
    """The polytope {m : <m, n_rho> >= F(n_rho)}, vertices solved exactly.

    Vertices are in bijection with maximal cones (the vertex of sigma is its
    linear form m_sigma).
    """
    ok, witness = is_strictly_convex(F)
    if not ok:
        cone, ray = witness
        raise NotStrictlyConvex(f"cone {cone.ray_indices} and ray {ray} violate strict convexity")
    vertices = set(F.cone_form(c) for c in F.fan.maximal_cones)
    if len(vertices) != len(F.fan.maximal_cones):
        raise NotStrictlyConvex("cone forms are not pairwise distinct")
    facets = [Facet(ray, Fraction(v)) for ray, v in zip(F.fan.rays, F.values)]
    return Polytope(F.fan.dim, vertices, facets)


def support_from_polytope(P: Polytope) -> tuple[Fan, SupportFunction]:
    """Normal fan of a Delzant polytope plus the support values read off its
    facet offsets. Inverse of moment_polytope up to a global linear shift."""
    ok, why = is_delzant(P)
    if not ok:
        raise NotDelzant(why)
    rays = [f.normal for f in P.facets]
    maximal = [[j for j, face in enumerate(P.incidence) if i in face] for i in range(len(P.vertices))]
    fan = Fan.from_maximal_cones(P.dim, rays, maximal)
    values = tuple(Fraction(f.offset) for f in P.facets)
    return fan, SupportFunction(fan, values)

"""Piecewise linear support functions on a fan: the rational-values model of
a toric symplectic class.

A support function stores one rational value per ray. On each maximal cone
of a simplicial fan it is represented by the unique linear form agreeing with
those values on the cone's rays; strict convexity means every off-cone ray
sees a strictly larger value under that form than its own.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import _exact
from ._exact import RatVec
from .errors import NotComplete, NotDelzant, NotStrictlyConvex
from .fan import Cone, Fan, is_complete
from .lattice import Facet, Polytope, is_delzant


class SupportFunction(NamedTuple("SupportFunction", [("fan", Fan), ("values", tuple[Fraction, ...])])):
    __slots__ = ()

    def __new__(cls, fan, values):
        if len(values) != len(fan.rays):
            raise ValueError("need one value per ray")
        return super().__new__(cls, fan, values)


@lru_cache(maxsize=None)
def cone_forms(F: SupportFunction) -> dict[Cone, RatVec]:
    """Linear form m_sigma per maximal cone, with <m_sigma, n_rho> = F(n_rho);
    computed once per support function, as u B^-1 for u the cone's values:
    the fan's D B^-1 times c u (integers, c the values' common denominator) over D c."""
    c, (values,) = _exact.integer_rows([F.values])
    return {cone: tuple(Fraction(sum(values[i] * x for i, x in zip(cone, col)), d * c) for col in zip(*inverse))
            for cone, (d, inverse) in F.fan.inverses.items()}


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
    if not is_complete(fan):
        raise NotComplete("strict convexity is checked on complete fans")
    for cone, form in cone_forms(F).items():  # in the order of fan.maximal_cones
        members = set(cone)
        for i, ray in enumerate(fan.rays):
            if i in members:
                continue
            if _exact.dot(form, ray) <= F.values[i]:
                return False, (cone, i)
    return True, None


def moment_polytope(F: SupportFunction) -> Polytope:
    """The polytope {m : <m, n_rho> >= F(n_rho)}, vertices solved exactly.

    Vertices are in bijection with maximal cones (the vertex of sigma is its
    linear form m_sigma); by strict convexity, ray rho's facet holds those of
    the cones containing rho."""
    ok, witness = is_strictly_convex(F)
    if not ok:
        cone, ray = witness
        raise NotStrictlyConvex(f"cone {cone} and ray {ray} violate strict convexity")
    forms = cone_forms(F)
    if len(set(forms.values())) != len(forms):
        raise NotStrictlyConvex("cone forms are not pairwise distinct")
    faces = {Facet(ray, Fraction(v)): [k for k, cone in enumerate(forms) if i in cone]
             for i, (ray, v) in enumerate(zip(F.fan.rays, F.values))}
    return Polytope(F.fan.dim, forms.values(), faces)


def support_from_polytope(P: Polytope) -> tuple[Fan, SupportFunction]:
    """Normal fan of a Delzant polytope plus the support values read off its
    facet offsets. Inverse of moment_polytope up to a global linear shift."""
    ok, why = is_delzant(P)
    if not ok:
        raise NotDelzant(why)
    rays = [f.normal for f in P.facets]
    maximal = [[j for j, face in enumerate(P.incidence) if i in face] for i in range(len(P.vertices))]
    fan = Fan(P.dim, rays, maximal)
    values = tuple(Fraction(f.offset) for f in P.facets)
    return fan, SupportFunction(fan, values)

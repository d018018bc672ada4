"""Univariate Newton polygons over a field with valuation, and the
quasimorphism-distinguishing workflow for the one-point blow-up of the
projective plane.

Valuation convention: order of vanishing, val(s^lambda) = lambda, so smaller
valuation means larger norm. The non-Archimedean norm 10^(-val) appears only
in the report text.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidRegime


class ValuedPoly(NamedTuple("ValuedPoly", [("terms", tuple[tuple[int, Fraction], ...])])):
    """Sparse polynomial known only through coefficient valuations:
    terms are (degree, valuation of that coefficient)."""

    __slots__ = ()

    def __new__(cls, terms):
        degrees = [d for d, _ in terms]
        if len(degrees) < 2:
            raise ValueError("need at least two terms")
        if len(set(degrees)) != len(degrees):
            raise ValueError("degrees must be pairwise distinct")
        if any(d < 0 for d in degrees):
            raise ValueError("degrees must be nonnegative")
        return super().__new__(cls, terms)


def lower_hull(p: ValuedPoly) -> tuple[tuple[Fraction, int], ...]:
    """(slope, horizontal length) of each face of the lower convex hull of
    {(degree, valuation)}, by increasing slope; collinear points merge into a
    single face."""
    pts = sorted((Fraction(d), Fraction(v)) for d, v in p.terms)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point unless the chain turns strictly upward
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return tuple(((y2 - y1) / (x2 - x1), int(x2 - x1)) for (x1, y1), (x2, y2) in zip(hull, hull[1:]))


def root_valuations(p: ValuedPoly) -> tuple[tuple[Fraction, int], ...]:
    """(valuation, count) root classes: a hull face of slope l and horizontal
    length k contributes k roots of valuation -l."""
    return tuple((-slope, length) for slope, length in lower_hull(p))


def blowup_family(alpha, beta) -> ValuedPoly:
    """The eliminated critical-point equation of the one-point blow-up of the
    projective plane with class ratio parameters alpha > beta > 0.

    With support values F(1,0) = F(0,1) = 0, F(0,-1) = beta - alpha and
    F(-1,-1) = -alpha, writing x1 for the monomial of (-1, 0), the two
    log-derivative equations eliminate to
        x1^4 - s^alpha x1 - s^(alpha+beta) = 0,   x2 = s^-alpha x1^2,
    giving coefficient valuations (4, 0), (1, alpha), (0, alpha + beta).
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not alpha > beta > 0:
        raise InvalidRegime(f"need alpha > beta > 0, got alpha={alpha}, beta={beta}")
    return ValuedPoly(((4, Fraction(0)), (1, alpha), (0, alpha + beta)))


def quasimorphism_report(alpha, beta) -> str:
    """The text of the blow-up family's root-valuation report. Two valuation
    classes appear exactly when alpha < 3 beta; each class yields an
    idempotent whose spectral norm separates the induced quasimorphisms."""
    valuations = root_valuations(blowup_family(alpha, beta))
    alpha, beta = Fraction(alpha), Fraction(beta)
    lines = [f"blow-up family with alpha = {alpha}, beta = {beta}",
             "root valuations of x1^4 - s^α x1 - s^(α+β):"]
    lines += [f"  valuation {v} ({count} root{'s' if count > 1 else ''}): "
              f"spectral norm of x^n at the idempotent = 10^({-v})" for v, count in valuations]
    if len(valuations) >= 2:
        lines.append(f"two distinct Calabi quasimorphisms (α/β = {alpha / beta} < 3)")
    else:
        lines.append(f"criterion inconclusive, single valuation (α/β = {alpha / beta} >= 3)")
    return "\n".join(lines) + "\n"

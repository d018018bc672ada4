"""The Landau-Ginzburg superpotential of a fan with a support function:
a Laurent polynomial on the complex torus, with exact evaluation,
log-gradient and affine Hessian over Q.

The evaluation here is exact at points with rational coordinates; it is what
turns "residual 0" claims at such points into certificates. The numeric
evaluation of W at complex points lives in `solver`, one batched kernel in
logarithmic coordinates.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from ._exact import IntVec
from .errors import NonpositiveCoefficient, NotComplete
from .fan import Fan, is_complete
from .support import SupportFunction


class Term(NamedTuple):
    exponent: IntVec
    coefficient: float
    s_exponent: Fraction


class Superpotential(NamedTuple("Superpotential", [("dim", int), ("terms", tuple[Term, ...])])):
    __slots__ = ()

    def __new__(cls, dim, terms):
        exps = [t.exponent for t in terms]
        if len(set(exps)) != len(exps):
            raise ValueError("superpotential exponents must be pairwise distinct")
        return super().__new__(cls, dim, terms)


def build_potential(f: Fan, F: SupportFunction, coeffs=None) -> Superpotential:
    """One term per ray: numeric coefficient b_rho (default 1, the s = 1
    specialization), exponent n_rho, with F(n_rho) kept for display."""
    if not is_complete(f):
        raise NotComplete("superpotentials are built on complete fans")
    if coeffs is None:
        coeffs = [1.0] * len(f.rays)
    if len(coeffs) != len(f.rays):
        raise ValueError("need one coefficient per ray")
    for b in coeffs:
        if not 0 < b < math.inf:
            raise NonpositiveCoefficient(f"coefficient {b} is not positive and finite")
    terms = tuple(
        Term(ray, float(b), F.values[i]) for i, (ray, b) in enumerate(zip(f.rays, coeffs))
    )
    return Superpotential(f.dim, terms)


def _term_values(W: Superpotential, p) -> list[Fraction]:
    """b_rho p^{n_rho} for every term, over Q."""
    if any(x == 0 for x in p):
        raise ValueError("point has a zero coordinate; not on the torus")
    p = tuple(Fraction(x) for x in p)
    return [Fraction(t.coefficient) * math.prod(x ** e for x, e in zip(p, t.exponent)) for t in W.terms]


def jet(W: Superpotential, p):
    """(W, log-gradient, affine Hessian) at p over Q, from one evaluation of
    the terms: W = sum_rho b_rho p^{n_rho}; log-gradient component i is
    sum_rho (n_rho)_i b_rho p^{n_rho}, the derivative of W(exp(u)) along the
    i-th logarithmic coordinate; the affine Hessian holds the ordinary second
    partials d^2 W / dx_i dx_j."""
    values = _term_values(W, p)
    p = tuple(Fraction(x) for x in p)
    d = W.dim
    gradient = tuple(
        sum(t.exponent[i] * v for t, v in zip(W.terms, values) if t.exponent[i]) for i in range(d)
    )
    h = [[Fraction(0)] * d for _ in range(d)]
    for t, v in zip(W.terms, values):
        e = t.exponent
        for i in range(d):
            for j in range(i, d):
                factor = e[i] * (e[j] - (1 if i == j else 0))
                if factor:
                    h[i][j] += factor * v / (p[i] * p[j])
    for i in range(d):
        for j in range(i):
            h[i][j] = h[j][i]
    return sum(values), gradient, tuple(tuple(row) for row in h)


def render(W: Superpotential, symbolic: bool = False) -> str:
    """Display W as a sum of monomials in x1..xd.

    With symbolic=True the recorded s-exponents are shown as s^{F(n_rho)}
    factors; otherwise only the numeric coefficients appear.
    """
    parts = []
    for t in W.terms:
        factors = []
        if symbolic and t.s_exponent != 0:
            factors.append(f"s^{t.s_exponent}")
        if not symbolic and t.coefficient != 1.0:
            factors.append(f"{t.coefficient:.12g}")
        for i, e in enumerate(t.exponent):
            if e == 0:
                continue
            factors.append(f"x{i+1}" if e == 1 else f"x{i+1}^{e}")
        parts.append(" ".join(factors) if factors else "1")
    return " + ".join(parts)

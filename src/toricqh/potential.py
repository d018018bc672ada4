"""The Landau-Ginzburg superpotential of a fan with a support function:
a Laurent polynomial on the complex torus, its definition and its rendering.

Every evaluation of W lives in `solver`: one kernel for the log-gradient and
log-Hessian, run on floats at complex points and on integers at rational ones.
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

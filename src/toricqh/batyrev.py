"""Quantized Stanley-Reisner presentation of the degree-zero quantum
cohomology of a smooth toric Fano variety.

The presentation consists of one variable per ray, the linear relations
coming from lattice characters, and one quantum relation per primitive
collection. Relations are stored structurally (exponent data); rendering to
text or JSON is a separate step so that the substitution identity
z_rho -> q s^{F(n_rho)} x^{n_rho} can be checked exactly.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from ._exact import IntVec
from .errors import NotComplete
from .fan import Fan, is_complete, minimal_cone_containing, primitive_collections
from .support import SupportFunction


@dataclass(frozen=True)
class LinearRelation:
    """sum_rho <m, n_rho> z_rho = 0 for a basis character m."""

    m: IntVec
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class QuantumRelation:
    """Quantization of the Stanley-Reisner monomial of a primitive collection.

    The relation is
        prod_{rho in C} q^-1 s^{-F(n_rho)} z_rho
      - prod_{rho in sigma_C} (q^-1 s^{-F(n_rho)} z_rho)^{a_rho},
    where sigma_C is the minimal cone containing sum_{rho in C} n_rho and the
    a_rho are its strictly positive integer coordinates there.
    """

    collection: tuple[int, ...]
    sigma: tuple[int, ...]
    a: tuple[tuple[int, int], ...]  # (ray index, multiplicity), sorted
    s_values: tuple[tuple[int, Fraction], ...]  # F(n_rho) for rho in C and sigma_C


@dataclass(frozen=True)
class Presentation:
    rays: tuple[IntVec, ...]
    support_values: tuple[Fraction, ...]
    linear: tuple[LinearRelation, ...]
    quantum: tuple[QuantumRelation, ...]


def linear_ideal(f: Fan) -> list[LinearRelation]:
    """One relation per standard basis character of the dual lattice."""
    if not is_complete(f):
        raise NotComplete("the linear ideal is formed for complete fans")
    relations = []
    for i in range(f.dim):
        m = tuple(int(i == j) for j in range(f.dim))
        coeffs = tuple(ray[i] for ray in f.rays)
        relations.append(LinearRelation(m, coeffs))
    return relations


def quantum_sr_generators(f: Fan, F: SupportFunction) -> list[QuantumRelation]:
    """One quantum relation per primitive collection."""
    relations = []
    for collection in primitive_collections(f):
        total = tuple(sum(f.rays[i][k] for i in collection) for k in range(f.dim))
        cone, coeffs = minimal_cone_containing(f, total)
        if set(collection) & set(cone):
            raise AssertionError("minimal cone meets its primitive collection")
        check = tuple(
            sum(mult * f.rays[i][k] for i, mult in coeffs.items()) for k in range(f.dim)
        )
        if check != total:
            raise AssertionError("cone coordinates do not reproduce the ray sum")
        involved = sorted(set(collection) | set(cone))
        relations.append(
            QuantumRelation(
                collection=tuple(collection),
                sigma=cone,
                a=tuple(sorted(coeffs.items())),
                s_values=tuple((i, F.values[i]) for i in involved),
            )
        )
    return relations


def presentation(f: Fan, F: SupportFunction) -> Presentation:
    return Presentation(
        rays=f.rays,
        support_values=F.values,
        linear=tuple(linear_ideal(f)),
        quantum=tuple(quantum_sr_generators(f, F)),
    )


def _fmt_exp(base: str, exponent) -> str:
    if exponent == 1:
        return base
    return f"{base}^{exponent}"


def _monomial(factors: list[tuple[str, object]]) -> str:
    parts = [_fmt_exp(base, e) for base, e in factors if e != 0]
    return " ".join(parts) if parts else "1"


def render_text(p: Presentation) -> str:
    """Human-readable monomial rendering, deterministic."""
    if not p.quantum:
        raise AssertionError("complete fans always carry at least one quantum relation")
    lines = ["variables: " + " ".join(f"z{i+1}" for i in range(len(p.rays)))]
    lines.append("linear relations:")
    for rel in p.linear:
        terms = []
        for i, c in enumerate(rel.coefficients):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            term = f"z{i+1}" if mag == 1 else f"{mag} z{i+1}"
            terms.append((sign, term))
        body = " ".join(f"{s} {t}" for s, t in terms).lstrip("+ ")
        lines.append(f"  {body} = 0")
    lines.append("quantum relations:")
    for rel in p.quantum:
        sF = dict(rel.s_values)
        left_q = -len(rel.collection)
        left_s = sum((-sF[i] for i in rel.collection), Fraction(0))
        left = _monomial(
            [("q", left_q), ("s", left_s)] + [(f"z{i+1}", 1) for i in rel.collection]
        )
        right_q = -sum(m for _, m in rel.a)
        right_s = sum((-sF[i] * m for i, m in rel.a), Fraction(0))
        right = _monomial(
            [("q", right_q), ("s", right_s)] + [(f"z{i+1}", m) for i, m in rel.a]
        )
        lines.append(f"  {left} - {right} = 0")
    lines.append("c1: sum of all z")
    return "\n".join(lines) + "\n"


def to_json(p: Presentation) -> str:
    """The presentation in a stable JSON schema."""
    if not p.quantum:
        raise AssertionError("complete fans always carry at least one quantum relation")
    return json.dumps({
        "rays": [list(r) for r in p.rays],
        "linear": [{"m": list(rel.m), "coeffs": list(rel.coefficients)} for rel in p.linear],
        "quantum": [
            {
                "C": list(rel.collection),
                "sigmaC": list(rel.sigma),
                "a": {str(i): m for i, m in rel.a},
                "sF": [str(v) for _, v in rel.s_values],
            }
            for rel in p.quantum
        ],
        "c1": "sum of all z",
    }, sort_keys=True, indent=1)

"""Quantized Stanley-Reisner presentation of the degree-zero quantum
cohomology of a smooth toric Fano variety.

The presentation consists of one variable per ray, the linear relations
coming from lattice characters, and one quantum relation per primitive
collection. The linear relation of the k-th basis character is the k-th
coordinate row of the rays, so a presentation stores only the rays, the
support values and the quantum relations' exponent data; rendering to text
or JSON is a separate step so that the substitution identity
z_rho -> q s^{F(n_rho)} x^{n_rho} can be checked exactly.
"""

import json
from fractions import Fraction
from typing import NamedTuple

from ._exact import IntVec
from .fan import Fan, minimal_cone_containing, primitive_collections
from .support import SupportFunction


class QuantumRelation(NamedTuple):
    """Quantization of the Stanley-Reisner monomial of a primitive collection.

    The relation is
        prod_{rho in C} q^-1 s^{-F(n_rho)} z_rho
      - prod_{rho in sigma_C} (q^-1 s^{-F(n_rho)} z_rho)^{a_rho},
    where sigma_C is the minimal cone containing sum_{rho in C} n_rho and the
    a_rho are its strictly positive integer coordinates there: sigma_C is
    the rays of `a`.
    """

    collection: tuple[int, ...]
    a: tuple[tuple[int, int], ...]  # (ray index, multiplicity), sorted


class Presentation(NamedTuple):
    rays: tuple[IntVec, ...]
    support_values: tuple[Fraction, ...]
    quantum: tuple[QuantumRelation, ...]


def quantum_sr_generators(f: Fan) -> list[QuantumRelation]:
    """One quantum relation per primitive collection."""
    relations = []
    for collection in primitive_collections(f):
        total = tuple(sum(f.rays[i][k] for i in collection) for k in range(f.dim))
        coeffs = minimal_cone_containing(f, total)
        if set(collection) & set(coeffs):
            raise AssertionError("minimal cone meets its primitive collection")
        relations.append(QuantumRelation(tuple(collection), tuple(sorted(coeffs.items()))))
    return relations


def presentation(f: Fan, F: SupportFunction) -> Presentation:
    quantum = tuple(quantum_sr_generators(f))
    if not quantum:
        raise AssertionError("complete fans always carry at least one quantum relation")
    return Presentation(f.rays, F.values, quantum)


def _fmt_exp(base: str, exponent) -> str:
    if exponent == 1:
        return base
    return f"{base}^{exponent}"


def _monomial(factors: list[tuple[str, object]]) -> str:
    parts = [_fmt_exp(base, e) for base, e in factors if e != 0]
    return " ".join(parts) if parts else "1"


def render_text(p: Presentation) -> str:
    """Human-readable monomial rendering, deterministic."""
    lines = ["variables: " + " ".join(f"z{i+1}" for i in range(len(p.rays)))]
    lines.append("linear relations:")
    for coefficients in zip(*p.rays):  # sum_rho <e_k, n_rho> z_rho = 0: row k of the rays
        terms = []
        for i, c in enumerate(coefficients):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            term = f"z{i+1}" if mag == 1 else f"{mag} z{i+1}"
            terms.append((sign, term))
        body = " ".join(f"{s} {t}" for s, t in terms).lstrip("+ ")
        lines.append(f"  {body} = 0")
    lines.append("quantum relations:")
    sF = p.support_values
    for rel in p.quantum:
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
    linear = list(zip(*p.rays))  # the coefficients of sum_rho <e_k, n_rho> z_rho = 0
    return json.dumps({
        "rays": [list(r) for r in p.rays],
        "linear": [
            {"m": [int(i == k) for i in range(len(linear))], "coeffs": list(coeffs)}
            for k, coeffs in enumerate(linear)
        ],
        "quantum": [
            {
                "C": list(rel.collection),
                "sigmaC": [i for i, _ in rel.a],
                "a": {str(i): m for i, m in rel.a},
                "sF": [str(p.support_values[i]) for i in sorted({*rel.collection, *dict(rel.a)})],  # C and sigma_C
            }
            for rel in p.quantum
        ],
        "c1": "sum of all z",
    }, sort_keys=True, indent=1)

"""Critical-value spectrum of a superpotential.

The multiset of critical values of W equals the set of eigenvalues of the
linear operator "multiplication by q^-1 c1" acting on the degree-zero
quantum cohomology, so this module doubles as the spectrum of that
multiplication operator without ever forming its matrix. It reads the
values that the solver computed once per critical point.
"""

import cmath
import json
from dataclasses import dataclass

from .solver import SolveReport, value_key


@dataclass(frozen=True)
class SpectrumEntry:
    value: complex
    multiplicity_lower_bound: int
    degenerate: bool


@dataclass(frozen=True)
class Spectrum:
    entries: tuple[SpectrumEntry, ...]

    @property
    def values(self) -> tuple[complex, ...]:
        return tuple(e.value for e in self.entries)


def critical_values(report: SolveReport) -> Spectrum:
    """Spectrum of multiplication by q^-1 c1: the eigenvalues are exactly the
    values of W at its critical points.

    Nondegenerate points contribute multiplicity 1; a degenerate point's
    unresolved multiplicity is reported as a lower bound of 1 with a flag.
    """
    entries = [SpectrumEntry(p.value, 1, not p.nondegenerate) for p in report.points]
    entries.sort(key=lambda e: value_key(e.value))
    return Spectrum(tuple(entries))


def cp_closed_form(d: int) -> Spectrum:
    """Analytic oracle for projective d-space: the critical points of
    sum x_j + prod 1/x_j have all coordinates equal to a (d+1)-st root of
    unity zeta, where W evaluates to (d+1) zeta."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    entries = []
    for k in range(d + 1):
        zeta = cmath.exp(2j * cmath.pi * k / (d + 1))
        entries.append(SpectrumEntry((d + 1) * zeta, 1, False))
    entries.sort(key=lambda e: value_key(e.value))
    return Spectrum(tuple(entries))


def to_json_dict(s: Spectrum) -> dict:
    return {
        "values": [
            [e.value.real, e.value.imag, e.multiplicity_lower_bound, e.degenerate]
            for e in s.entries
        ]
    }


def to_json(s: Spectrum) -> str:
    return json.dumps(to_json_dict(s), sort_keys=True)

import cmath
from fractions import Fraction

import numpy as np
import pytest


def frac(x) -> Fraction:
    return Fraction(x)


def fracs(seq):
    return tuple(Fraction(x) for x in seq)


def match_complex_sets(found, expected, tol=1e-8):
    """Greedy matching of two complex multisets within tol; order-free."""
    found = sorted(found, key=lambda z: (z.real, z.imag))
    expected = sorted(expected, key=lambda z: (z.real, z.imag))
    if len(found) != len(expected):
        return False
    remaining = list(expected)
    for z in found:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - z))
        if abs(remaining[best] - z) > tol:
            return False
        remaining.pop(best)
    return True


def match_point_sets(found, expected, tol=1e-8):
    """Match multisets of coordinate tuples within tol per coordinate."""
    if len(found) != len(expected):
        return False
    remaining = list(expected)
    for p in found:
        for i, q in enumerate(remaining):
            if all(abs(a - b) <= tol for a, b in zip(p, q)):
                remaining.pop(i)
                break
        else:
            return False
    return True


def kernel(W, u):
    """Value, log-gradient and log-Hessian of W at one point in log
    coordinates u, from the solver's batched floating-point kernel."""
    from toricqh import solver

    exponents, coeffs = solver._arrays(W)
    t = solver._terms(exponents, coeffs, np.array([u], dtype=complex))
    return t.sum(axis=1)[0], solver._gradient(exponents, t)[0], solver._hessian(solver._outer(exponents), t)[0]


def cp_closed_form(d: int):
    """Analytic oracle for projective d-space: the critical points of
    sum x_j + prod 1/x_j have all coordinates equal to a (d+1)-st root of
    unity zeta, where W evaluates to (d+1) zeta. The values come sorted by
    value_key, in the order of `SolveReport.spectrum`."""
    from toricqh.solver import value_key

    if d < 1:
        raise ValueError("dimension must be >= 1")
    values = []
    for k in range(d + 1):
        zeta = cmath.exp(2j * cmath.pi * k / (d + 1))
        values.append((d + 1) * zeta)
    values.sort(key=value_key)
    return tuple(values)


def roots_of_unity(n):
    return [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]


@pytest.fixture(scope="session")
def u8():
    from toricqh import corpus

    return corpus.build("u8")

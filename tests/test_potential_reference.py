"""The solver's batched floating-point kernel against the scalar complex
evaluator it replaced.

`potential` used to evaluate W, its log-gradient and its log-Hessian at
complex points term by term, raising each coordinate to an integer power. A
standalone copy of that evaluator is kept here as the reference; the kernel
works in logarithmic coordinates, as coeffs * exp(exponents @ u), and must
agree with it to 1e-12 relative at random points of the torus.
"""

import cmath
import math
import random

import numpy as np
import pytest

from conftest import kernel
from toricqh import corpus
from toricqh.potential import build_potential

RTOL = 1e-12


def _ref_power(x, n):
    if n >= 0:
        return x ** n
    return (1 / x) ** (-n)


def _ref_term_values(W, p):
    values = []
    for t in W.terms:
        monomial = complex(1)
        for x, e in zip(p, t.exponent):
            if e:
                monomial = monomial * _ref_power(x, e)
        values.append(t.coefficient * monomial)
    return values


def _ref_eval(W, p):
    return sum(_ref_term_values(W, p))


def _ref_log_gradient(W, p):
    values = _ref_term_values(W, p)
    return tuple(
        sum(t.exponent[i] * v for t, v in zip(W.terms, values) if t.exponent[i])
        for i in range(W.dim)
    )


def _ref_log_hessian(W, p):
    values = _ref_term_values(W, p)
    d = W.dim
    h = [[0j] * d for _ in range(d)]
    for t, v in zip(W.terms, values):
        e = t.exponent
        for i in range(d):
            if not e[i]:
                continue
            for j in range(i, d):
                if e[j]:
                    h[i][j] += e[i] * e[j] * v
    for i in range(d):
        for j in range(i):
            h[i][j] = h[j][i]
    return tuple(tuple(row) for row in h)


def _close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["cp2", "u8", "bl_points_4"])
def test_kernel_matches_scalar_reference(name):
    fan, F = corpus.build(name)
    W = build_potential(fan, F)
    rng = random.Random(2026)
    for _ in range(120):
        u = [complex(rng.uniform(math.log(0.5), math.log(2)), rng.uniform(0, 2 * math.pi)) for _ in range(W.dim)]
        p = tuple(cmath.exp(z) for z in u)
        value, gradient, hessian = kernel(W, u)
        assert _close(value, _ref_eval(W, p))
        assert _close(gradient, _ref_log_gradient(W, p))
        assert _close(hessian, _ref_log_hessian(W, p))

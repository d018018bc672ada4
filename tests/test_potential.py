import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import affine_hessian, exact_kernel, kernel
from toricqh import corpus, solver
from toricqh.errors import NonpositiveCoefficient
from toricqh.potential import build_potential, render
from toricqh.support import SupportFunction

U8_POINT = (-1, -1, -1, 1)
U8_HESSIAN = ((-2, 0, 0, -1), (0, -4, 0, -2), (0, 0, -2, 1), (-1, -2, 1, -2))


def build(name, coeffs=None):
    fan, F = corpus.build(name)
    return build_potential(fan, F, coeffs)


def monomials(W):
    return {t.exponent for t in W.terms}


def test_u8_monomials_match_displayed_potential():
    W = build("u8")
    assert monomials(W) == {
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, -1, 0, 0),
        (0, 0, 0, -1),
        (0, 0, -1, -1),
        (-1, 0, 0, 1),
        (0, -1, 0, 1),
        (0, 1, 0, -1),
    }
    assert all(t.coefficient == 1.0 for t in W.terms)


def test_cp2_monomials():
    assert monomials(build("cp2")) == {(1, 0), (0, 1), (-1, -1)}


def test_bl_points_monomials():
    from toricqh.corpus import bl_points_fan
    from toricqh.support import monotone_support

    for d in (2, 3, 4):
        fan = bl_points_fan(d)
        W = build_potential(fan, monotone_support(fan))
        expected = set()
        for i in range(d):
            e = tuple(int(i == j) for j in range(d))
            expected |= {e, tuple(-x for x in e)}
        expected |= {(1,) * d, (-1,) * d}
        assert monomials(W) == expected


def test_eval_examples():
    assert exact_kernel(build("cp2"), (1, 1))[0] == 3
    assert exact_kernel(build("u8"), U8_POINT)[0] == Fraction(-6)
    log_omega = 2j * cmath.pi / 3
    assert abs(kernel(build("cp2"), (log_omega, log_omega))[0] - 3 * cmath.exp(log_omega)) < 1e-14


def test_log_gradient_cp2_root_of_unity():
    log_omega = 2j * cmath.pi / 3
    _, g, _ = kernel(build("cp2"), (log_omega, log_omega))
    assert max(abs(z) for z in g) < 1e-14


def test_log_gradient_u8_exact_zero():
    g = exact_kernel(build("u8"), U8_POINT)[1]
    assert g == (Fraction(0),) * 4
    _, g_float, _ = kernel(build("u8"), np.log(np.array(U8_POINT, dtype=complex)))
    assert max(abs(z) for z in g_float) < 1e-12


def test_log_hessian_symmetry_and_cp2_value():
    _, _, h = kernel(build("cp2"), (0, 0))
    assert np.array_equal(h, h.T)
    assert np.array_equal(h, [[2, 1], [1, 2]])


def test_affine_hessian_u8_matches_published_matrix():
    h = affine_hessian(build("u8"), U8_POINT)
    assert h == tuple(tuple(Fraction(x) for x in row) for row in U8_HESSIAN)


def test_hessian_rank_agreement_at_critical_point():
    from toricqh._exact import rank

    W = build("u8")
    log_hessian = exact_kernel(W, U8_POINT)[2]
    point = solver._numeric_points(*solver._arrays(W), [U8_POINT])[0]
    assert point.residual < solver.NEWTON_TOL
    assert rank([list(r) for r in log_hessian]) == point.hessian_rank == 3


@pytest.mark.parametrize("name", ["cp2", "u8", "bl_points_4"])
def test_exact_kernel_matches_float_kernel(name):
    # `_certified` runs the float kernel's functions on the integer term
    # values over their common denominator; a float anywhere in that path,
    # such as a float exponent table, would make the certificate inexact
    W = build(name)
    rng = random.Random(23)
    for _ in range(20):
        p = tuple(rng.choice((-1, 1)) * Fraction(rng.uniform(0.5, 2)).limit_denominator(1000) for _ in range(W.dim))
        n, t, den = solver._exact_terms(W, p)
        gradient, hessian = solver._gradient(n, t), solver._hessian(solver._outer(n), t)
        assert all(type(x) is int for x in (den, t.sum(), *n.flat, *t, *gradient, *hessian.flat))
        floats = kernel(W, np.log(np.array([complex(x) for x in p])))
        for exact, approx in zip((t.sum(), gradient, hessian), floats):
            exact = np.vectorize(lambda x: float(Fraction(x, den)))(exact)
            assert np.max(np.abs(approx - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("name", ["cp2", "u8"])
def test_gradient_matches_finite_differences(name):
    W = build(name)
    rng = random.Random(99)
    h = 1e-6
    for _ in range(100):
        u = [
            complex(rng.uniform(math.log(0.5), math.log(2)), rng.uniform(0, 2 * math.pi))
            for _ in range(W.dim)
        ]
        _, grad, _ = kernel(W, u)
        for i in range(W.dim):
            up = list(u)
            up[i] += h
            um = list(u)
            um[i] -= h
            fd = (kernel(W, up)[0] - kernel(W, um)[0]) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


@pytest.mark.parametrize("name", ["cp2", "u8"])
def test_log_hessian_matches_finite_differences(name):
    W = build(name)
    rng = random.Random(17)
    h = 1e-6
    for _ in range(20):
        u = [
            complex(rng.uniform(math.log(0.5), math.log(2)), rng.uniform(0, 2 * math.pi))
            for _ in range(W.dim)
        ]
        _, _, hess = kernel(W, u)
        for j in range(W.dim):
            up = list(u)
            up[j] += h
            um = list(u)
            um[j] -= h
            gp = kernel(W, up)[1]
            gm = kernel(W, um)[1]
            for i in range(W.dim):
                fd = (gp[i] - gm[i]) / (2 * h)
                assert abs(fd - hess[i][j]) <= 1e-6 * max(1.0, abs(hess[i][j]))


def test_rescaled_evaluation_is_recomputed_exactly():
    W = build("cp2")
    rng = random.Random(3)
    for _ in range(20):
        p = tuple(complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)) for _ in range(2))
        t = rng.uniform(0.5, 2)
        scaled = (t * p[0], p[1])
        direct = kernel(W, np.log(scaled))[0]
        by_terms = sum(
            term.coefficient * (t ** term.exponent[0]) * (p[0] ** term.exponent[0]) * (p[1] ** term.exponent[1])
            for term in W.terms
        )
        assert abs(direct - by_terms) < 1e-10 * max(1.0, abs(direct))


def test_nonpositive_coefficient_rejected():
    fan, F = corpus.build("cp2")
    with pytest.raises(NonpositiveCoefficient):
        build_potential(fan, F, [1.0, -0.5, 1.0])
    with pytest.raises(NonpositiveCoefficient):
        build_potential(fan, F, [1.0, 0.0, 1.0])


def test_render_monotone_cp2():
    assert render(build("cp2")) == "x1^-1 x2^-1 + x2 + x1"


def test_render_symbolic_section_six_values():
    fan = corpus.build("bl1_cp2")[0]
    table = {(1, 0): 0, (0, 1): 0, (0, -1): -1, (-1, -1): -2}
    F = SupportFunction(fan, tuple(Fraction(table[r]) for r in fan.rays))
    text = render(build_potential(fan, F), symbolic=True)
    assert "s^-1 x2^-1" in text
    assert "s^-2 x1^-1 x2^-1" in text
    assert "x1" in text and "x2" in text


def test_render_numeric_coefficients():
    fan, F = corpus.build("cp1")
    text = render(build_potential(fan, F, [0.5, 2.0]))
    assert "0.5" in text and "2" in text

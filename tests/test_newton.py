import random
from fractions import Fraction

import numpy as np
import pytest

from toricqh.errors import InvalidRegime
from toricqh.newton import (
    ValuedPoly,
    blowup_family,
    lower_hull,
    quasimorphism_report,
    root_valuations,
)


def test_hull_two_faces():
    poly = blowup_family(2, 1)
    faces = lower_hull(poly)
    assert faces == ((Fraction(-1), 1), (Fraction(-2, 3), 3))


def test_hull_boundary_collinear():
    faces = lower_hull(blowup_family(3, 1))
    assert faces == ((Fraction(-1), 4),)


def test_hull_single_face_above():
    faces = lower_hull(blowup_family(4, 1))
    assert faces == ((Fraction(-5, 4), 4),)


def test_hull_constant_valuations():
    poly = ValuedPoly(((2, Fraction(0)), (0, Fraction(0))))
    assert lower_hull(poly) == ((Fraction(0), 2),)
    assert root_valuations(poly) == ((Fraction(0), 2),)


def test_root_valuations_blowup():
    assert root_valuations(blowup_family(2, 1)) == (
        (Fraction(1), 1),
        (Fraction(2, 3), 3),
    )
    assert root_valuations(blowup_family(4, 1)) == ((Fraction(5, 4), 4),)


def test_valued_poly_validation():
    with pytest.raises(ValueError):
        ValuedPoly(((3, Fraction(0)),))
    with pytest.raises(ValueError):
        ValuedPoly(((3, Fraction(0)), (3, Fraction(1))))


def test_blowup_family_terms():
    assert blowup_family(2, 1).terms == ((4, Fraction(0)), (1, Fraction(2)), (0, Fraction(3)))
    assert blowup_family(3, 2).terms == ((4, Fraction(0)), (1, Fraction(3)), (0, Fraction(5)))


@pytest.mark.parametrize("alpha,beta", [(1, 2), (1, 1), (2, 0), (2, -1), (0, 0)])
def test_blowup_family_regime_validation(alpha, beta):
    with pytest.raises(InvalidRegime):
        blowup_family(alpha, beta)


def test_blowup_elimination_rederivation():
    """Re-derive the univariate equation from the two-variable critical
    system once, symbolically, as the construction oracle."""
    import sympy

    x1, x2, s = sympy.symbols("x1 x2 s", nonzero=True)
    for a_val, b_val in ((2, 1), (5, 2)):
        W = 1 / x1 + x2 + s ** (b_val - a_val) / x2 + s ** (-a_val) * x1 / x2
        eq1 = sympy.expand(x1 * sympy.diff(W, x1))
        eq2 = sympy.expand(x2 * sympy.diff(W, x2))
        # eq1 = -1/x1 + s^-a x1/x2 = 0 forces x2 = s^-a x1^2
        x2_sub = s ** (-a_val) * x1 ** 2
        assert sympy.simplify(eq1.subs(x2, x2_sub)) == 0
        reduced = sympy.simplify(eq2.subs(x2, x2_sub) * s ** (-a_val) * x1 ** 2)
        expected = sympy.expand(
            (x1 ** 4 - s ** a_val * x1 - s ** (a_val + b_val)) * s ** (-2 * a_val)
        )
        assert sympy.simplify(reduced - expected) == 0


def test_length_conservation_and_slope_monotonicity():
    rng = random.Random(11)
    for _ in range(40):
        beta = Fraction(rng.randint(1, 20), rng.randint(1, 10))
        alpha = beta + Fraction(rng.randint(1, 30), rng.randint(1, 10))
        poly = blowup_family(alpha, beta)
        faces = lower_hull(poly)
        assert sum(length for _, length in faces) == 4
        slopes = [slope for slope, _ in faces]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == len(slopes)
        vals = root_valuations(poly)
        assert sum(count for _, count in vals) == 4


def test_regime_boundary():
    rng = random.Random(13)
    for _ in range(60):
        beta = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        alpha = beta + Fraction(rng.randint(1, 40), rng.randint(1, 6))
        classes = len(root_valuations(blowup_family(alpha, beta)))
        assert classes == (2 if alpha < 3 * beta else 1), (alpha, beta)


def test_valuations_match_root_moduli_numerically():
    # continue the four roots of x^4 - eps^a x - eps^(a+b) toward eps -> 0
    for alpha, beta in ((2, 1), (5, 2)):
        vals = root_valuations(blowup_family(alpha, beta))
        for eps in (1e-2, 1e-3):
            roots = np.roots([1, 0, 0, -(eps ** alpha), -(eps ** (alpha + beta))])
            moduli = sorted(abs(r) for r in roots)
            expected = sorted(
                eps ** float(v) for v, count in vals for _ in range(count)
            )
            for m, e in zip(moduli, expected):
                assert abs(m - e) / e < 0.1, (alpha, beta, eps)


def test_quasimorphism_report_distinct():
    text = quasimorphism_report(2, 1)
    assert text.count("  valuation ") == 2
    assert "two distinct Calabi quasimorphisms" in text.splitlines()[-1]
    assert "spectral norm of x^n at the idempotent" in text
    assert "10^(-2/3)" in text
    assert "10^(-1)" in text


def test_quasimorphism_report_single():
    text = quasimorphism_report(4, 1)
    assert text.count("  valuation ") == 1
    assert "inconclusive" in text.splitlines()[-1]


def test_quasimorphism_report_invalid():
    with pytest.raises(InvalidRegime):
        quasimorphism_report(1, 2)

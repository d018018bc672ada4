import cmath
import itertools
import json

import numpy as np
import pytest

from conftest import cp_closed_form, match_complex_sets
from toricqh import corpus
from toricqh.potential import build_potential
from toricqh.solver import SolverConfig, solve, spectrum_to_json, value_key, verify_point, SolveReport


def spectrum_of(name, seed=0, starts=None):
    fan, F = corpus.build(name)
    W = build_potential(fan, F)
    report = solve(W, len(fan.maximal_cones), SolverConfig(seed=seed, starts=starts))
    return W, report, report.spectrum


def values(spectrum):
    return [value for value, _ in spectrum]


def test_cp_closed_form_small():
    assert match_complex_sets(cp_closed_form(1), [2, -2], tol=1e-12)
    omega = cmath.exp(2j * cmath.pi / 3)
    assert match_complex_sets(cp_closed_form(2), [3, 3 * omega, 3 * omega.conjugate()], tol=1e-12)
    assert all(abs(abs(v) - 5) < 1e-12 for v in cp_closed_form(4))


def test_cp1_spectrum():
    _, _, spec = spectrum_of("cp1")
    assert match_complex_sets(values(spec), [2, -2], tol=1e-8)


def test_cp2_spectrum_matches_closed_form():
    _, _, spec = spectrum_of("cp2")
    assert match_complex_sets(values(spec), cp_closed_form(2), tol=1e-8)


def test_cp1xcp1_spectrum():
    _, _, spec = spectrum_of("cp1xcp1")
    assert match_complex_sets(values(spec), [4, 0, 0, -4], tol=1e-8)


def test_product_spectrum_is_minkowski_sum():
    _, _, one = spectrum_of("cp1")
    pairwise = [a + b for a in values(one) for b in values(one)]
    _, _, prod = spectrum_of("cp1xcp1")
    assert match_complex_sets(values(prod), pairwise, tol=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cpd_values_have_modulus_d_plus_one(d):
    _, _, spec = spectrum_of(f"cp{d}")
    assert all(abs(abs(v) - (d + 1)) < 1e-8 for v in values(spec))


def test_u8_degenerate_value_flagged(u8):
    fan, F = u8
    W = build_potential(fan, F)
    point = verify_point(W, (-1, -1, -1, 1))
    report = SolveReport(24, (point,))
    assert len(report.spectrum) == 1
    value, degenerate = report.spectrum[0]
    assert degenerate
    assert abs(value - (-6)) < 1e-12
    assert json.loads(spectrum_to_json(report))["values"] == [[-6.0, 0.0, 1, True]]


def test_sorted_deterministic_order():
    # bl1_cp2's conjugate values differ in the last bits of their real parts:
    # the order rounds those away and puts the pair in order of imaginary part
    _, _, spec = spectrum_of("bl1_cp2")
    keys = [value_key(value) for value in values(spec)]
    assert keys == sorted(keys)
    pair = [value.imag for value in values(spec) if abs(value.imag) > 1]
    assert len(pair) == 2 and pair[0] < 0 < pair[1]


def test_spectrum_json_schema():
    _, report, _ = spectrum_of("cp1")
    data = json.loads(spectrum_to_json(report))
    assert set(data) == {"values"}
    for row in data["values"]:
        assert len(row) == 4
        re, im, mult, flag = row
        assert mult >= 1 and isinstance(flag, bool)


def fano_index(fan) -> int:
    """The largest r that divides -K, the sum of the toric divisors, in Pic:
    some m in M / rM has <m, n_rho> = -1 mod r on every ray. Brute force over
    m mod r; r is at most dim + 1."""
    rays = np.array(fan.rays)
    for r in range(fan.dim + 1, 1, -1):
        m = np.array(list(itertools.product(range(r), repeat=fan.dim)))
        if np.all((m @ rays.T + 1) % r == 0, axis=1).any():
            return r
    return 1


FANO = ["cp1", "cp2", "cp3", "cp4", "cp5", "cp6", "cp1xcp1", "bl1_cp2", "bl2_cp2", "bl3_cp2", "u8"]


@pytest.mark.parametrize("name", FANO)
def test_largest_critical_values_are_the_fano_index_many_and_one_is_positive(name):
    # Conjecture O (Galkin-Golyshev-Iritani, Duke Math. J. 165, 2016): the
    # spectral radius T of c1 is an eigenvalue, and the eigenvalues of modulus
    # T are T times the r-th roots of unity, r the Fano index
    _, _, spec = spectrum_of(name)
    T = max(abs(v) for v in values(spec))
    assert any(abs(v - T) <= 1e-9 * T for v in values(spec))
    assert sum(abs(abs(v) - T) <= 1e-9 * T for v in values(spec)) == fano_index(corpus.build(name)[0])


def test_eigenvalue_interpretation_documented():
    assert "eigenvalue" in SolveReport.spectrum.__doc__
    assert "multiplication" in SolveReport.spectrum.__doc__

import cmath
import json

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


def test_eigenvalue_interpretation_documented():
    assert "eigenvalue" in SolveReport.spectrum.__doc__
    assert "multiplication" in SolveReport.spectrum.__doc__

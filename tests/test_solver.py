import json
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import match_complex_sets, match_point_sets, roots_of_unity
from toricqh import corpus, solver, spectra
from toricqh.cli import run_cli
from toricqh.errors import NotCritical, OverCount
from toricqh.fan import kushnirenko_bound
from toricqh.potential import Superpotential, Term, build_potential
from toricqh.solver import (
    CriticalPoint,
    SolveReport,
    SolverConfig,
    Verdict,
    classify,
    report_to_json,
    solve,
    verify_point,
)


def build(name, coeffs=None):
    fan, F = corpus.build(name)
    return build_potential(fan, F, coeffs), len(fan.maximal_cones)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cpd_critical_points_are_roots_of_unity(d):
    W, expected = build(f"cp{d}")
    report = solve(W, expected, SolverConfig(seed=0))
    assert report.verdict is Verdict.SEMISIMPLE
    assert report.found_count == d + 1
    # oracle: all coordinates equal zeta with zeta^(d+1) = 1
    oracle = [(z,) * d for z in roots_of_unity(d + 1)]
    assert match_point_sets([p.coords for p in report.points], oracle, tol=1e-8)
    assert all(p.nondegenerate for p in report.points)


def test_verify_point_u8_degenerate(u8):
    fan, F = u8
    W = build_potential(fan, F)
    cp = verify_point(W, (-1, -1, -1, 1))
    assert cp.exact
    assert cp.residual == 0.0
    assert cp.hessian_rank == 3
    assert not cp.nondegenerate


def test_verify_point_bl_points():
    from toricqh.corpus import bl_points_fan
    from toricqh.support import monotone_support

    for d in (2, 3, 4):
        fan = bl_points_fan(d)
        W = build_potential(fan, monotone_support(fan))
        cp = verify_point(W, (-1,) * d)
        assert cp.exact and cp.residual == 0.0
        assert cp.hessian_rank == d
        assert cp.nondegenerate


def test_verify_point_cp2_real_point():
    W, _ = build("cp2")
    cp = verify_point(W, (1, 1))
    assert cp.exact and cp.residual == 0.0 and cp.nondegenerate


def test_verify_point_rejects_non_critical():
    W, _ = build("cp2")
    with pytest.raises(NotCritical):
        verify_point(W, (2, 1))


def test_classify_rules():
    def pt(nondeg, rank=2):
        return CriticalPoint((1 + 0j, 1 + 0j), 0.0, rank if not nondeg else 2, nondeg, 1)

    semis = SolveReport(3, tuple(pt(True) for _ in range(3)), Verdict.SEMISIMPLE, ())
    assert classify(semis)[0] is Verdict.SEMISIMPLE

    mixed_points = tuple([pt(True) for _ in range(21)] + [pt(False, rank=1)])
    mixed = SolveReport(24, mixed_points, Verdict.FIELD_SUMMAND, ())
    verdict, why = classify(mixed)
    assert verdict is Verdict.FIELD_SUMMAND
    assert "multiplicities" in why

    empty = SolveReport(3, (), Verdict.UNDETERMINED, ())
    assert classify(empty)[0] is Verdict.UNDETERMINED


def test_semisimple_implies_field_summand_conditions():
    W, expected = build("cp2")
    report = solve(W, expected, SolverConfig(seed=0))
    assert report.verdict is Verdict.SEMISIMPLE
    assert any(p.nondegenerate for p in report.points)


def test_overcount_raises():
    W, _ = build("cp2")
    with pytest.raises(OverCount):
        solve(W, 1, SolverConfig(seed=0, starts=300))


def test_solver_deterministic_same_seed():
    W, expected = build("bl2_cp2")
    a = solve(W, expected, SolverConfig(seed=5, starts=400))
    b = solve(W, expected, SolverConfig(seed=5, starts=400))
    assert report_to_json(a) == report_to_json(b)


def test_solver_deterministic_across_blocking(monkeypatch):
    W, expected = build("bl2_cp2")
    outputs = set()
    for block in (1, 7, solver._BLOCK):
        monkeypatch.setattr(solver, "_BLOCK", block)
        outputs.add(report_to_json(solve(W, expected, SolverConfig(seed=5, starts=400))))
    assert len(outputs) == 1


GOLDEN = json.loads((Path(__file__).parent / "data" / "solver_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['target']}-seed{c['seed']}-starts{c['starts']}")
def test_solve_matches_golden_reports(case):
    """Reports recorded from the scalar per-start solver; the batched solver
    must reproduce them byte for byte."""
    fan, F = corpus.build(case["target"])
    W = build_potential(fan, F)
    report = solve(W, case["expected"], SolverConfig(seed=case["seed"], starts=case["starts"]))
    assert report_to_json(report) == case["solve_json"]
    assert spectra.to_json(spectra.critical_values(W, report)) == case["spectrum_json"]


def _reference_newton_run(exponents, coeffs, u0, tol, max_iters):
    """Scalar Newton run, one start at a time: the semantics the batched
    kernel must reproduce row by row."""
    u = u0.copy()
    best = None
    polish_left = 30
    for _ in range(max_iters + 30):
        if np.any(np.abs(u.real) > 50.0):
            break
        t = coeffs * np.exp(exponents @ u)
        g = exponents.T @ t
        residual = float(np.max(np.abs(g)))
        if not np.isfinite(residual):
            break
        if residual < tol:
            if best is None or residual < best[1]:
                best = (u.copy(), residual)
            elif best is not None:
                break
            polish_left -= 1
            if polish_left <= 0 or residual == 0.0:
                break
        elif best is not None:
            break
        h = exponents.T @ (t[:, None] * exponents)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        u = u + step
    if best is None:
        return None
    return np.exp(best[0]), best[1]


def _reference_merge(samples, tol):
    """First-match merge by complex modulus, one pair of points at a time."""
    clusters = []
    for coords, res in samples:
        for cl in clusters:
            if all(abs(a - b) <= tol * max(abs(a), abs(b)) for a, b in zip(coords, cl["coords"])):
                cl["size"] += 1
                if res < cl["residual"]:
                    cl["coords"], cl["residual"] = coords, res
                break
        else:
            clusters.append({"coords": coords, "residual": res, "size": 1})
    return clusters


def test_merge_matches_scalar_reference():
    # Samples scattered around a few centres at about the merge radius, so
    # that which sample is a cluster's centre decides later matches.
    rng = np.random.default_rng(11)
    tol = 1e-6
    centres = [(1.0 + 1.0j, -2.0 + 0.0j), (1.0 + 1.0j, -2.0 + 3e-6j), (0.5j, 4.0 + 0.0j)]
    samples = []
    for _ in range(400):
        c = centres[rng.integers(len(centres))]
        noise = rng.normal(scale=0.6 * tol, size=(2, 2))
        coords = tuple(z + abs(z) * complex(*n) for z, n in zip(c, noise))
        samples.append((coords, float(rng.uniform(1e-16, 1e-13))))
    samples.sort(key=lambda item: (solver._coord_key(item[0]), item[1]))
    expected = _reference_merge(samples, tol)
    got = solver._merge([{"coords": c, "residual": r, "size": 1} for c, r in samples], tol)
    assert len(expected) > len(centres)
    assert got == expected


def _seeded_starts(dim, n, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(np.log(0.5), np.log(2.0), (n, dim)) + 1j * rng.uniform(0.0, 2.0 * np.pi, (n, dim))


def _assert_kernel_matches_reference(W, u0):
    exponents, coeffs = solver._arrays(W)
    cfg = SolverConfig()
    xs, residuals = solver._newton_block(exponents, coeffs, u0, cfg.newton_tol, cfg.max_iters)
    outcomes = []
    for row, x, residual in zip(u0, xs, residuals):
        ref = _reference_newton_run(exponents, coeffs, row, cfg.newton_tol, cfg.max_iters)
        if ref is None:
            assert residual == np.inf
        else:
            assert residual == ref[1]
            assert np.array_equal(x, ref[0])
        outcomes.append(ref is not None)
    return outcomes


@pytest.mark.parametrize("name", ["u8", "cp6"])
def test_newton_kernel_matches_scalar_reference(name):
    W, _ = build(name)
    u0 = _seeded_starts(W.dim, 300)
    u0[5, 0] = 51.0 + 0.3j  # escaped before the first step
    u0[6, -1] = -50.5
    outcomes = _assert_kernel_matches_reference(W, u0)
    assert not outcomes[5] and not outcomes[6]
    assert sum(outcomes) > 250


def test_newton_kernel_singular_hessian_rows_stop_alone():
    # W = x - 1/x has log-gradient x + 1/x and log-Hessian x - 1/x, which is
    # exactly 0 at u = 0, where the gradient is 2: no Newton step exists there.
    W = Superpotential(1, (Term((1,), 1.0, Fraction(0)), Term((-1,), -1.0, Fraction(0))))
    u0 = _seeded_starts(1, 40)
    u0[[0, 17, 39]] = 0.0
    u0[20] = 60.0
    outcomes = _assert_kernel_matches_reference(W, u0)
    assert [i for i, ok in enumerate(outcomes) if not ok] == [0, 17, 20, 39]


def test_seed_independence_of_point_set():
    W, expected = build("cp2")
    a = solve(W, expected, SolverConfig(seed=1))
    b = solve(W, expected, SolverConfig(seed=2))
    assert a.verdict is b.verdict is Verdict.SEMISIMPLE
    pa = [p.coords for p in a.points]
    pb = [p.coords for p in b.points]
    assert match_point_sets(pa, pb, tol=1e-5)


def test_residual_soundness():
    W, expected = build("bl3_cp2")
    report = solve(W, expected, SolverConfig(seed=0, starts=600))
    cfg = SolverConfig()
    for p in report.points:
        assert p.residual < cfg.newton_tol


def test_u8_solve_small_budget(u8):
    fan, F = u8
    W = build_potential(fan, F)
    report = solve(W, kushnirenko_bound(fan), SolverConfig(seed=1, starts=600))
    assert report.verdict is Verdict.FIELD_SUMMAND
    assert any(p.nondegenerate for p in report.points)
    degenerate = [p for p in report.points if not p.nondegenerate]
    assert degenerate
    paper = [p for p in degenerate if p.exact]
    assert paper and paper[0].coords == (complex(-1), complex(-1), complex(-1), complex(1))
    assert paper[0].hessian_rank == 3


def test_u8_perturbed_coefficients_all_nondegenerate(u8):
    fan, F = u8
    rng = np.random.default_rng(42)
    coeffs = rng.uniform(0.9, 1.1, len(fan.rays)).tolist()
    W = build_potential(fan, F, coeffs)
    report = solve(W, kushnirenko_bound(fan), SolverConfig(seed=2, starts=1200))
    assert report.found_count > 0
    assert all(p.nondegenerate for p in report.points)


def test_report_json_schema():
    W, expected = build("cp1")
    report = solve(W, expected, SolverConfig(seed=0))
    import json

    data = json.loads(report_to_json(report))
    assert set(data) == {"expected", "found", "points", "verdict", "critical_values"}
    assert data["expected"] == 2
    assert data["found"] == 2
    assert data["verdict"] == "semisimple"
    for entry in data["points"]:
        assert set(entry) == {"coords", "residual", "rank", "nondeg"}
        assert all(len(pair) == 2 for pair in entry["coords"])
    assert match_complex_sets(
        [complex(re, im) for re, im in data["critical_values"]], [2, -2], tol=1e-10
    )


@pytest.mark.parametrize("name", ["cp5", "cp6"])
def test_escaped_starts_raise_no_runtime_warning(name, capsys):
    # escaped rows keep a zero best iterate; an uninitialised one can overflow in exp
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(["solve", name, "--starts", "200", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["found"] == int(name[2:]) + 1

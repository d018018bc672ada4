import itertools
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import match_complex_sets, match_point_sets, roots_of_unity
from toricqh import corpus, solver
from toricqh.cli import run_cli
from toricqh.errors import NotCritical, NotIsolated, OverCount
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
    spectrum_to_json,
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


def test_verify_point_rejects_a_point_off_the_torus():
    W, _ = build("cp2")
    with pytest.raises(ValueError, match="zero coordinate"):
        verify_point(W, (0, 1))


@pytest.mark.parametrize("name, seed, starts", [("u8", 1, 4800), ("bl_points_5", 309474798, 600)])
def test_verify_point_certifies_a_reported_exact_point_as_solve_does(name, seed, starts):
    fan, F = corpus.build(name)
    W = build_potential(fan, F)
    report = solve(W, kushnirenko_bound(fan), SolverConfig(seed=seed, starts=starts))
    exact = [p for p in report.points if p.exact]
    assert len(exact) >= 4
    for p in exact:
        assert verify_point(W, p.coords) == p._replace(cluster_size=1)


def test_verify_point_leaves_a_float_near_an_irrational_point_numeric():
    # W = 1/x + 2x has its critical points at x = +-1/sqrt(2)
    W, expected = build("cp1", coeffs=[1.0, 2.0])
    report = solve(W, expected, SolverConfig(seed=0))
    assert report.found_count == 2 and not any(p.exact for p in report.points)
    for p in report.points:
        x = p.coords[0].real
        assert abs(abs(x) - 2 ** -0.5) < 1e-12
        cp = verify_point(W, (x,))
        assert not cp.exact and cp.residual < solver.NEWTON_TOL and cp.coords == (complex(x),)


def test_classify_rules():
    def pt(rank):
        return CriticalPoint((1 + 0j, 1 + 0j), 0.0, rank, 1, 3 + 0j)

    assert pt(2).nondegenerate and not pt(1).nondegenerate
    semis = SolveReport(3, (pt(2),) * 3)
    assert semis.verdict is Verdict.SEMISIMPLE
    assert classify(semis).endswith("nondegenerate: semisimple")

    short = SolveReport(4, (pt(2),) * 3)  # every point nondegenerate, one not found
    assert short.verdict is Verdict.FIELD_SUMMAND
    assert classify(short).endswith("deficit 1: some roots were not located")

    mixed = SolveReport(24, (pt(2),) * 21 + (pt(1),))
    assert mixed.verdict is Verdict.FIELD_SUMMAND
    assert "degenerate point ranks: [1]" in classify(mixed) and "multiplicities" in classify(mixed)

    assert SolveReport(3, (pt(1),) * 3).verdict is Verdict.UNDETERMINED
    empty = SolveReport(3, ())
    assert empty.verdict is Verdict.UNDETERMINED
    assert classify(empty).endswith("no nondegenerate critical point located: undetermined")


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
    for starts in (400, None):  # an explicit budget, and a default one that stops early
        outputs = set()
        for block in (1, 7, 1024, 4096):
            monkeypatch.setattr(solver, "_BLOCK", block)
            outputs.add(report_to_json(solve(W, expected, SolverConfig(seed=5, starts=starts))))
        assert len(outputs) == 1


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_starts_equal_default_rng_per_index(seed):
    # 1- and 2-word seeds; indices on both sides of a Newton block boundary
    n = solver._BLOCK + 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solver._starts(seed, 0, n, 3)
        offset = solver._starts(seed, 1000, n, 3)  # rows k in [1000, n) only
    assert offset.shape == (n - 1000, 3)
    for k in [*range(20), 1000, 1001, solver._BLOCK - 1, solver._BLOCK, n - 1]:
        rng = np.random.default_rng([seed, k])
        logmod = rng.uniform(np.log(0.5), np.log(2.0), 3)
        expected = logmod + 1j * rng.uniform(0.0, 2.0 * np.pi, 3)
        assert got[k].tobytes() == expected.tobytes(), k
        if k >= 1000:
            assert offset[k - 1000].tobytes() == expected.tobytes(), k


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_seeds_outside_the_default_rng_range_are_rejected(seed):
    # default_rng rejects negative seeds; a mask to 64 bits would alias the rest
    with pytest.raises(ValueError, match="seed must be in"):
        SolverConfig(seed=seed)
    assert SolverConfig(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("starts", [0, 2**32 + 1, 2**40])
def test_budgets_outside_the_seeded_start_range_are_rejected(starts):
    # _starts seeds start k from a 32-bit word: past 2**32 starts it would wrap
    # silently and repeat start 0
    with pytest.raises(ValueError, match=r"starts must be in \[1, 2\*\*32\]"):
        SolverConfig(starts=starts)
    assert SolverConfig(starts=2**32).budget(1) == 2**32


def test_each_snapped_point_is_certified_from_one_exact_evaluation(monkeypatch):
    calls = []
    exact_terms = solver._exact_terms
    monkeypatch.setattr(solver, "_exact_terms", lambda W, p: calls.append(p) or exact_terms(W, p))
    fan, F = corpus.build("bl_points_5")
    W = build_potential(fan, F)
    report = solve(W, kushnirenko_bound(fan), SolverConfig(seed=309474798, starts=600))
    assert len(calls) == sum(p.exact for p in report.points) > 20
    calls.clear()
    assert verify_point(W, (-1,) * 5).exact and len(calls) == 1


def test_solve_never_loads_numpy_random():
    probe = (
        "import sys\n"
        "from toricqh import corpus, solve, SolverConfig\n"
        "from toricqh.potential import build_potential\n"
        "fan, F = corpus.build('cp2')\n"
        "assert solve(build_potential(fan, F), 3, SolverConfig(seed=0)).found_count == 3\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _diverged(exponents, coeffs, u0):
    return u0, np.full(len(u0), np.inf)


def test_no_converged_start_gives_an_empty_report(monkeypatch):
    # at coefficients 1, 2, 3 no sign vector is critical, so the closure adds nothing
    monkeypatch.setattr(solver, "_newton", _diverged)
    W, expected = build("cp2", (1, 2, 3))
    report = solve(W, expected, SolverConfig(seed=0, starts=50))
    assert report.points == () and report.verdict is Verdict.UNDETERMINED


def test_a_diverged_monotone_cp2_solve_reports_its_critical_sign_vector(monkeypatch):
    monkeypatch.setattr(solver, "_newton", _diverged)
    W, expected = build("cp2")
    report = solve(W, expected, SolverConfig(seed=0, starts=50))
    assert report.points == (CriticalPoint((1 + 0j, 1 + 0j), 0.0, 2, 0, 3 + 0j, True),)
    assert report.verdict is Verdict.FIELD_SUMMAND


@pytest.mark.parametrize("name", ["cp2", "bl2_cp2", "u8"])
def test_a_dropped_complex_point_comes_back_as_its_partners_conjugate(monkeypatch, name):
    W, expected = build(name)
    full = solve(W, expected, SolverConfig(seed=0))
    dropped = next(p for p in full.points if any(abs(z.imag) > 0.1 for z in p.coords) and p.nondegenerate)
    points = solver._points
    monkeypatch.setattr(solver, "_points", lambda *args: [p for p in points(*args) if p != dropped])
    report = solve(W, expected, SolverConfig(seed=0))
    assert len(report.points) == len(full.points)
    (back,) = [p for p in report.points if p not in full.points]
    partner = next(p for p in full.points if p.coords == tuple(z.conjugate() for z in back.coords))
    assert back.cluster_size == 0 and back.hessian_rank == dropped.hessian_rank and not back.exact
    assert match_point_sets([back.coords], [dropped.coords], tol=1e-10)
    assert partner.value.conjugate() == pytest.approx(back.value, abs=1e-12)


@pytest.mark.parametrize("name", ["cp2", "cp6", "cp1xcp1", "bl3_cp2", "bl_points_4", "u8"])
def test_every_report_is_closed_under_conjugation_and_holds_its_critical_sign_vectors(name):
    W, _ = build(name)
    report = solve(W, kushnirenko_bound(corpus.build(name)[0]), SolverConfig(seed=1))
    coords = [p.coords for p in report.points]
    degenerate = {p.coords for p in report.points if not p.nondegenerate}
    for p in coords:
        tol = solver.WIDE_TOL if p in degenerate else solver.CLUSTER_TOL
        conj = [z.conjugate() for z in p]
        assert any(all(abs(a - b) <= tol * abs(b) for a, b in zip(conj, q)) for q in coords)
    for signs in itertools.product((1, -1), repeat=W.dim):
        if solver._certified(W, solver._numeric_points(*solver._arrays(W), [signs])[0], signs).exact:
            assert tuple(complex(s) for s in signs) in coords


# bl_points_5 --starts 600 found 59 of its 60 points at these seeds of
# random.Random(7).randrange(2**31): a real sign vector was missing, or the
# conjugate of a point found
@pytest.mark.parametrize("seed", [309474798, 818979512, 1021151938, 124464776, 1743948363])
def test_bl_points_5_finds_all_60_points_at_former_miss_seeds(seed):
    W, _ = build("bl_points_5")
    report = solve(W, 60, SolverConfig(seed=seed, starts=600))
    assert report.found_count == 60 and report.verdict is Verdict.SEMISIMPLE


def test_max_iters_lets_a_far_u8_start_converge_and_caps_a_farther_one():
    # Far from the critical points one term of W dominates and a Newton step
    # moves u by about one unit, so starts near the escape radius are slow:
    # the first row below converges at its 115th evaluation, the second at
    # its 161st. So MAX_ITERS lies in [115, 160].
    W, _ = build("u8")
    exponents, coeffs = solver._arrays(W)
    u0 = np.array([[47, -27 + 6j, 45, -3 + 2j], [-40 + 2j, 1 + 4j, 29 + 5j, 46 + 2j]])
    for row, evaluations in zip(u0, (115, 161)):
        assert _reference_newton_run(exponents, coeffs, row, solver.NEWTON_TOL, evaluations - 1) is None
        assert _reference_newton_run(exponents, coeffs, row, solver.NEWTON_TOL, evaluations) is not None
    residuals = solver._newton(exponents, coeffs, u0)[1]
    assert np.isfinite(residuals[0]) and not np.isfinite(residuals[1])


GOLDEN = json.loads((Path(__file__).parent / "data" / "solver_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['target']}-seed{c['seed']}-starts{c['starts']}")
def test_solve_matches_golden_reports(case):
    """Reports recorded when the batched kernel became the one numeric
    evaluation of W (coordinates, ranks and verdicts as recorded from the
    scalar per-start solver before it); the solver must reproduce them byte
    for byte."""
    fan, F = corpus.build(case["target"])
    W = build_potential(fan, F)
    report = solve(W, case["expected"], SolverConfig(seed=case["seed"], starts=case["starts"]))
    assert report_to_json(report) == case["solve_json"]
    assert spectrum_to_json(report) == case["spectrum_json"]


# basin size of each point of the golden reports with an explicit budget, in
# report order, and which points are exact; `report_to_json` shows neither
GOLDEN_BASINS = {
    "u8": ([137, 333, 435, 246, 185, 164, 188, 537, 192, 191, 515, 188, 187, 165, 117, 301, 320, 392],
           [2, 3, 16, 17]),
    "bl_points_5": ([17, 7, 9, 6, 9, 7, 9, 9, 12, 8, 6, 7, 9, 8, 9, 9, 10, 7, 9, 10, 8, 16, 10, 12, 13, 13, 8, 8, 11,
                     11, 13, 14, 14, 5, 9, 11, 10, 14, 16, 12, 12, 6, 9, 7, 14, 6, 7, 11, 8, 11, 12, 8, 11, 7, 6, 13,
                     12, 10, 14, 11], [*range(16), *range(44, 60)]),
}


@pytest.mark.parametrize("case", [c for c in GOLDEN if c["starts"]], ids=lambda c: c["target"])
def test_golden_reports_keep_their_basins(case):
    fan, F = corpus.build(case["target"])
    report = solve(build_potential(fan, F), case["expected"], SolverConfig(seed=case["seed"], starts=case["starts"]))
    sizes, exact = GOLDEN_BASINS[case["target"]]
    coords = [p["coords"] for p in json.loads(case["solve_json"])["points"]]
    assert [[[z.real, z.imag] for z in p.coords] for p in report.points] == coords
    assert [p.cluster_size for p in report.points] == sizes
    assert [i for i, p in enumerate(report.points) if p.exact] == exact


SEMISIMPLE_ENTRIES = [
    "cp1", "cp2", "cp3", "cp4", "cp5", "cp6", "cp1xcp1", "bl1_cp2", "bl2_cp2", "bl3_cp2", "bl_points_4", "bl_points_5"
]


@pytest.mark.parametrize("name", SEMISIMPLE_ENTRIES)
def test_a_default_budget_that_stops_early_finds_what_the_full_budget_finds(name):
    fan, F = corpus.build(name)
    W, expected = build_potential(fan, F), kushnirenko_bound(fan)
    for seed in range(10):
        probed = solve(W, expected, SolverConfig(seed=seed))
        full = solve(W, expected, SolverConfig(seed=seed, starts=200 * expected))
        assert probed.verdict is full.verdict is Verdict.SEMISIMPLE
        assert probed.found_count == full.found_count == expected
        assert probed.starts in (solver._PROBE_PER_POINT * expected, 200 * expected) and full.starts == 200 * expected
        for p in probed.points:  # the same points, each with the same rank and exactness
            match = [q for q in full.points if all(abs(a - b) <= 1e-8 for a, b in zip(p.coords, q.coords))]
            assert [(q.hessian_rank, q.exact) for q in match] == [(p.hessian_rank, p.exact)], (seed, p.coords)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_default_budget_that_does_not_close_runs_every_start(u8, seed):
    fan, F = u8
    W, expected = build_potential(fan, F), kushnirenko_bound(fan)
    default = solve(W, expected, SolverConfig(seed=seed))
    full = solve(W, expected, SolverConfig(seed=seed, starts=4800))
    assert default.starts == full.starts == 4800
    assert report_to_json(default) == report_to_json(full)
    assert spectrum_to_json(default) == spectrum_to_json(full)


def test_a_closed_probe_runs_no_later_start(monkeypatch):
    rows, drawn = [], []
    newton, starts = solver._newton, solver._starts
    monkeypatch.setattr(solver, "_newton", lambda exponents, coeffs, u0: rows.append(u0) or newton(exponents, coeffs, u0))
    monkeypatch.setattr(solver, "_starts", lambda *args: drawn.append(starts(*args)) or drawn[-1])
    W, expected = build("cp6")
    report = solve(W, expected, SolverConfig(seed=0))
    assert report.verdict is Verdict.SEMISIMPLE and report.starts == 8 * expected == 56
    assert np.concatenate(rows).tobytes() == starts(0, 0, 56, W.dim).tobytes()
    assert sum(len(d) for d in drawn) == 56  # not the 1,400 of the full budget


def test_critical_value_order_ignores_the_last_bits():
    # cp2's values -1.5 +- 2.598i have real parts one ulp apart
    W, expected = build("cp2")
    report = solve(W, expected, SolverConfig(seed=0))
    order = [z.imag for z in report.critical_values]
    assert [(round(z.real, 3), round(z.imag, 3)) for z in report.critical_values] == [
        (-1.5, -2.598), (-1.5, 2.598), (3.0, 0.0)
    ]
    for directions in itertools.product((-math.inf, math.inf), repeat=len(report.points)):
        nudged = report._replace(points=tuple(
            p._replace(value=complex(math.nextafter(p.value.real, to), p.value.imag))
            for p, to in zip(report.points, directions)
        ))
        assert [z.imag for z in nudged.critical_values] == order
        assert [value.imag for value, _ in nudged.spectrum] == order


def test_point_order_ignores_the_last_bits():
    # bl3_cp2's conjugate points (-0.5 -+ 0.866i, ...) come out with real parts
    # that differ in the last bits between these two budgets
    W, expected = build("bl3_cp2")
    probed = solve(W, expected, SolverConfig(seed=0))
    full = solve(W, expected, SolverConfig(seed=0, starts=1200))
    assert probed.starts == 48 and full.starts == 1200
    assert len(probed.points) == len(full.points) == expected
    for p, q in zip(probed.points, full.points):
        assert all(abs(a - b) < 1e-8 for a, b in zip(p.coords, q.coords)), (p.coords, q.coords)


def _reference_newton_run(exponents, coeffs, u0, tol, max_iters):
    """Scalar Newton run, one start at a time: the semantics the batched
    kernel must reproduce row by row. The run's first iterate below tol is
    its sample. A run whose step ratio r has settled (residual in [tol,
    1e-4), 0.3 < r < 0.95, r within 2% of the previous ratio) takes the
    geometric-limit step delta / (1 - r) and forgets its step history."""
    dim = len(u0)
    outer = (exponents[:, :, None] * exponents[:, None, :]).reshape(len(exponents), dim * dim)
    u = u0.copy()
    last_norm = last_ratio = math.nan
    for _ in range(max_iters):
        if np.any(np.abs(u.real) > 50.0):
            break
        t = coeffs * np.exp(exponents @ u)
        g = exponents.T @ t
        residual = float(np.max(np.abs(g)))
        if not np.isfinite(residual):
            break
        if residual < tol:
            return u.copy(), residual
        h = (t @ outer).reshape(dim, dim)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        norm = np.max(np.abs(step))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = norm / last_norm
        if tol <= residual < 1e-4 and 0.3 < ratio < 0.95 and abs(ratio - last_ratio) <= 0.02 * last_ratio:
            step = step / (1.0 - ratio)
            last_norm = last_ratio = math.nan
        else:
            last_norm, last_ratio = norm, ratio
        u = u + step
    return None


def _reference_cells(X, tol):
    """`_cells` one row at a time: rows share a cell unless some part (real
    or imaginary) of some coordinate k, sorted, has a gap above twice
    tol * max |x_k| between them. Returns the cells as sorted row lists."""
    keys = [[] for _ in X]
    for k in range(len(X[0]) if len(X) else 0):
        radius = tol * max(abs(complex(row[k])) for row in X)
        for part in ([complex(row[k]).real for row in X], [complex(row[k]).imag for row in X]):
            order = sorted(range(len(X)), key=lambda i: part[i])
            group = 0
            for previous, i in zip([order[0]] + order, order):
                group += part[i] - part[previous] > 2 * radius
                keys[i].append(group)
    cells = {}
    for i, key in enumerate(keys):
        cells.setdefault(tuple(key), []).append(i)
    return sorted(cells.values())


def _assert_cells_match_reference(X, tol):
    X = np.array(X, dtype=complex)
    cells = solver._cells(X, tol)
    assert all(list(rows) == sorted(rows) for rows in cells)
    assert sorted(rows.tolist() for rows in cells) == _reference_cells(X, tol)
    return cells


def _cell_cases(tol):
    """Rows that each stress one step of the cut."""
    chain = [(1 + 0.9 * tol * k, 1j) for k in range(12)]  # each row within tol of the next only
    return {
        "equal first coordinate": [(1 + 1j, 2 + 3j * tol * k) for k in (0, 1, 0, 2, 1, 0)],
        "chain, rows ascending": chain,
        "chain, rows descending": chain[::-1],
        "chain, rows shuffled": [chain[k] for k in (7, 2, 11, 0, 5, 9, 3, 10, 1, 6, 8, 4)],
        "far outlier": [(math.exp(49) * (0.6 + 0.8j), 1 + 0j)] + [(1 + 0.3 * tol * k, 1 + 0j) for k in range(8)],
        "tied duplicates": [(0.5j, 4 + 0j)] * 3 + [(0.5j, 4 + 0.8 * tol)] * 2 + [(0.5j, 4 + 5 * tol)] * 2,
        "two points": [(1 + 1j, -2 + 0j), (1 + 1j, -2 + 3j * tol)] * 3 + [(0.5j, 4 + 0j)] * 2,
    }


@pytest.mark.parametrize("tol", [solver.CLUSTER_TOL, 1e-3])
@pytest.mark.parametrize("case", list(_cell_cases(1e-6)))
def test_cells_match_scalar_reference(case, tol):
    cells = _assert_cells_match_reference(_cell_cases(tol)[case], tol)
    if case.startswith("chain"):  # the cut links a chain into one cell, in any row order
        assert len(cells) == 1
    if case == "far outlier":  # its modulus sets the radius, so the other rows share one cell
        assert sorted(map(len, cells)) == [1, 8]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    n_centres=st.integers(1, 4),
    spread=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
    tol=st.sampled_from([solver.CLUSTER_TOL, 1e-3]),
)
def test_cells_match_scalar_reference_on_clustered_rows(seed, dim, n_centres, spread, tol):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-2, 2, (n_centres, dim)) + 1j * rng.uniform(-2, 2, (n_centres, dim))
    centres[-1, 0] = centres[0, 0]  # two centres may share their first coordinate
    rows = []
    for _ in range(int(rng.integers(1, 80))):
        c = centres[rng.integers(n_centres)]
        rows.append(c + np.abs(c) * spread * tol * (rng.normal(size=dim) + 1j * rng.normal(size=dim)))
    _assert_cells_match_reference(rows, tol)


def _points_of(W, samples):
    """`_points` on hand-built (coords, residual) samples; residual inf marks
    a run that did not converge."""
    exponents, coeffs = solver._arrays(W)
    us = np.log(np.array([c for c, _ in samples], dtype=complex).reshape(len(samples), W.dim))
    return solver._points(W, exponents, coeffs, us, np.array([r for _, r in samples]))


def _near_simple_pair(a, b):
    """A W on a 1-torus whose log-gradient (x - a)(x - b)(x - c) / x has
    simple roots at a and b (c makes its constant term vanish)."""
    c = -a * b / (a + b)
    terms = [((2,), 0.5), ((1,), -(a + b + c)), ((-1,), a * b * c)]
    return Superpotential(1, tuple(Term(e, k, Fraction(0)) for e, k in terms))


def _corank_two():
    """W = f(x) + f(y) with f = (x - 1)^3 / x: critical points (1, 1) of
    log-Hessian rank 0, (1, -1/2) and (-1/2, 1) of rank 1, (-1/2, -1/2) of
    rank 2."""
    terms = [((2, 0), 1.0), ((1, 0), -3.0), ((0, 0), 6.0), ((-1, 0), -1.0),
             ((0, 2), 1.0), ((0, 1), -3.0), ((0, -1), -1.0)]
    return Superpotential(2, tuple(Term(e, c, Fraction(0)) for e, c in terms))


def test_two_simple_points_in_one_wide_cell_stay_two():
    # 1e-4 apart, relative: one cell at WIDE_TOL, two at CLUSTER_TOL
    a, b = 0.7, 0.7 * (1 + 1e-4)
    rng = np.random.default_rng(3)
    samples = [((a,), 1e-15), ((b,), 1e-15)]
    samples += [((z * (1 + 1e-10 * rng.normal()),), 1e-13) for z in [a] * 4 + [b] * 2]
    assert len(solver._cells(np.array([[a], [b]], dtype=complex), solver.WIDE_TOL)) == 1
    points = _points_of(_near_simple_pair(a, b), samples)
    assert [(p.coords, p.nondegenerate, p.cluster_size) for p in points] == [((a,), True, 5), ((b,), True, 3)]


def test_a_degenerate_cell_is_one_point_with_its_samples_as_basin():
    # a double root of the log-gradient at x = 1, samples spread over 1e-4
    W = Superpotential(1, tuple(Term(e, c, Fraction(0)) for e, c in [((2,), 1.0), ((1,), -3.0), ((-1,), -1.0)]))
    samples = [((1 + 2.5e-5 * k,), 1e-13 * (1 + abs(k))) for k in range(-2, 3)] + [((1.5,), np.inf)]
    (point,) = _points_of(W, samples)
    assert (point.coords, point.hessian_rank, point.cluster_size, point.exact) == ((1,), 0, 5, True)


def test_every_cell_of_converged_samples_is_a_point():
    # Coefficients spread over 1e+-4: all samples converged in log coordinates,
    # but four cells measure 1.86e-12 to 1.94e-12 at their printed coordinates
    # exp(u), by rounding. They are points all the same.
    coeffs = [3414.0440189545284, 311.3895087928574, 0.0026808524327566847, 0.04677280361218833, 2696.660090100562,
              4386.026977996275, 0.005710711937789731, 0.02032747715398215, 0.2129427003803032, 8.222646273319443]
    W, expected = build("u8", coeffs)
    report = solve(W, expected, SolverConfig(seed=31))
    assert report.found_count == 16
    assert sum(p.residual > solver.NEWTON_TOL for p in report.points) == 4


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(0, 6), min_size=4, max_size=4),
    spread=st.sampled_from([1e-9, 1e-6, 1e-4]),
)
def test_points_lie_in_wide_cells_and_basins_sum_to_converged_samples(seed, counts, spread):
    # samples of the four critical points of `_corank_two`, each with one
    # exact sample of least residual; the degenerate ones scattered at spread
    rng = np.random.default_rng(seed)
    samples = [((3.0 + 1j, 0.2 + 0j), np.inf)] * int(rng.integers(0, 3))  # runs that did not converge
    for (x, y), count in zip([(-0.5, -0.5), (-0.5, 1.0), (1.0, -0.5), (1.0, 1.0)], counts):
        scale = 1e-9 if x == y == -0.5 else spread
        noise = scale * (rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2)))
        samples += [((x, y), 1e-16)] * bool(count) + [((x + dx, y + dy), 1e-13) for dx, dy in noise[1:]]
    rng.shuffle(samples)
    points = _points_of(_corank_two(), samples)
    X = np.array([c for c, r in samples if np.isfinite(r)], dtype=complex)
    cells = solver._cells(X, solver.WIDE_TOL)
    for p in points:
        homes = [rows for rows in cells if (np.abs(X[rows] - p.coords) <= 1e-3).all(axis=1).any()]
        assert len(homes) == 1 and p.cluster_size <= len(homes[0])
    assert sum(p.cluster_size for p in points) == len(X)
    assert len(points) == sum(map(bool, counts))


def test_a_corank_two_point_stops_the_witness_alone():
    # the witness's normal equations are exactly singular at (1, 1), where the
    # log-Hessian vanishes; only that row stops
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(_corank_two(), 16, SolverConfig(seed=0, starts=400))
    assert [(p.coords, p.hessian_rank, p.exact) for p in report.points] == [
        ((-0.5, -0.5), 2, True), ((-0.5, 1), 1, True), ((1, -0.5), 1, True), ((1, 1), 0, True)]


def test_a_curve_of_critical_points_is_not_isolated():
    # W = xy + 1 / (xy) is critical on the curves xy = 1 and xy = -1, along
    # the log direction (1, -1)
    W = Superpotential(2, (Term((1, 1), 1.0, Fraction(0)), Term((-1, -1), 1.0, Fraction(0))))
    tangent = r"\((0\.7071\+0j, -0\.7071|-0\.7071\+0j, 0\.7071)\+0j\)"  # (1, -1) / sqrt(2), either sign
    with pytest.raises(NotIsolated, match=r"point \(1\+0j, 1\+0j\) lies on a curve .* tangent to " + tangent):
        _points_of(W, [((1.0, 1.0), 1e-16), ((2.0, 0.5), 1e-16)])


def _seeded_starts(dim, n, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(np.log(0.5), np.log(2.0), (n, dim)) + 1j * rng.uniform(0.0, 2.0 * np.pi, (n, dim))


def _assert_kernel_matches_reference(W, u0):
    exponents, coeffs = solver._arrays(W)
    us, residuals = solver._newton(exponents, coeffs, u0)
    outcomes = []
    for row, u, residual in zip(u0, us, residuals):
        ref = _reference_newton_run(exponents, coeffs, row, solver.NEWTON_TOL, solver.MAX_ITERS)
        if ref is None:
            assert residual == np.inf
        else:
            assert residual == ref[1]
            assert np.array_equal(u, ref[0])
        outcomes.append(ref is not None)
    return outcomes


@pytest.mark.parametrize("name", ["u8", "cp6", "bl_points_5"])
def test_newton_kernel_matches_scalar_reference(name):
    W, _ = build(name)
    u0 = _seeded_starts(W.dim, 300)
    u0[5, 0] = 51.0 + 0.3j  # escaped before the first step
    u0[6, -1] = -50.5
    outcomes = _assert_kernel_matches_reference(W, u0)
    assert not outcomes[5] and not outcomes[6]
    assert sum(outcomes) > 250


def test_newton_pool_refills_and_caps_each_row(monkeypatch):
    # 300 starts through 16 active rows: rows join as others stop, and each
    # row, however late it joins, stops after its own MAX_ITERS evaluations,
    # which at 15 cuts some runs short
    W, _ = build("u8")
    exponents, coeffs = solver._arrays(W)
    u0 = _seeded_starts(W.dim, 300)
    uncapped = [_reference_newton_run(exponents, coeffs, row, solver.NEWTON_TOL, solver.MAX_ITERS) for row in u0]
    monkeypatch.setattr(solver, "_BLOCK", 16)
    monkeypatch.setattr(solver, "MAX_ITERS", 15)
    outcomes = _assert_kernel_matches_reference(W, u0)
    cut_short = [i for i, (ok, ref) in enumerate(zip(outcomes, uncapped)) if ref is not None and not ok]
    assert sum(outcomes) > 250 and max(cut_short) > 200  # rows that joined long after the first 16


def _assert_hessian_matches_direct_sum(W):
    # The table product regroups the sum over terms, so it may differ from the
    # direct sum exponents.T @ (t * exponents) in the last bits: with at most a
    # dozen terms the rounding is below 12 * 2**-53 relative to the sum of
    # |t_rho n_rho_i n_rho_j|, so 1e-14 of that sum is a safe bound.
    exponents, coeffs = solver._arrays(W)
    outer = solver._outer(exponents)
    t = solver._terms(exponents, coeffs, _seeded_starts(W.dim, 64, seed=5))
    got = solver._hessian(outer, t)
    for k, row in enumerate(t):
        direct = exponents.T @ (row[:, None] * exponents)
        scale = np.abs(row) @ np.abs(outer).reshape(len(outer), -1)
        assert (np.abs(got[k] - direct).reshape(-1) <= 1e-14 * scale).all(), k
        # each row's bits are those of a one-row call, whatever the stack
        alone = solver._hessian(outer, t[k : k + 1])[0]
        assert got[k].tobytes() == alone.tobytes() == solver._hessian(outer, row).tobytes()


@pytest.mark.parametrize("name", [entry.name for entry in corpus.catalog()])
def test_hessian_table_matches_the_direct_sum(name):
    _assert_hessian_matches_direct_sum(build(name)[0])


def test_hessian_table_matches_the_direct_sum_with_higher_exponents():
    # exponents 2 and 3, so the table holds entries up to 9
    exponents = [(2, 1, 0), (-1, -3, 1), (0, 1, -2), (3, -1, 1), (-1, 0, 0)]
    W = Superpotential(3, tuple(Term(e, c, Fraction(0)) for e, c in zip(exponents, [1.0, 2.5, -0.5, 1.0, 3.0])))
    _assert_hessian_matches_direct_sum(W)


def test_newton_work_on_u8_stays_bounded(monkeypatch):
    # rows evaluated by the kernel for u8's 4,800 starts at seed 5: 93,080
    # with plain Newton steps, 64,680 with geometric-limit steps at the three
    # degenerate points, about 55,900 once a row stops at its first iterate
    # below NEWTON_TOL
    W, _ = build("u8")
    exponents, coeffs = solver._arrays(W)
    sizes, terms = [], solver._terms
    monkeypatch.setattr(solver, "_terms", lambda e, c, u: sizes.append(len(u)) or terms(e, c, u))
    _, residuals = solver._newton(exponents, coeffs, solver._starts(5, 0, 4800, W.dim))
    assert np.isfinite(residuals).sum() > 4700
    assert sum(sizes) <= 60_000, (sum(sizes), len(sizes))


def test_points_on_u8_decompose_few_hessians(monkeypatch):
    # one log-Hessian rank per wide cell and one per point: 36 for u8's
    # 4,800 starts at seed 5, where a rank per CLUSTER_TOL cluster took
    # 1,064; the curve witness decomposes the 3 degenerate points' only
    W, _ = build("u8")
    exponents, coeffs = solver._arrays(W)
    us, residuals = solver._newton(exponents, coeffs, solver._starts(5, 0, 4800, W.dim))
    ranks, witness, svd = [], [], np.linalg.svd

    def counted(h, compute_uv=True):
        (witness if compute_uv else ranks).append(len(h))
        return svd(h, compute_uv=compute_uv)

    monkeypatch.setattr(np.linalg, "svd", counted)
    points = solver._points(W, exponents, coeffs, us, residuals)
    assert len(points) == 18 and sum(not p.nondegenerate for p in points) == 3
    assert sum(ranks) <= 64, ranks
    assert witness == [3]


def test_newton_kernel_singular_hessian_rows_stop_alone():
    # W = x - 1/x has log-gradient x + 1/x and log-Hessian x - 1/x, which is
    # exactly 0 at u = 0, where the gradient is 2: no Newton step exists there.
    W = Superpotential(1, (Term((1,), 1.0, Fraction(0)), Term((-1,), -1.0, Fraction(0))))
    u0 = _seeded_starts(1, 40)
    u0[[0, 17, 39]] = 0.0
    u0[20] = 60.0
    outcomes = _assert_kernel_matches_reference(W, u0)
    assert [i for i, ok in enumerate(outcomes) if not ok] == [0, 17, 20, 39]


def _cpus(monkeypatch, n):
    """Make the solver see n CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forked_newton_matches_the_one_process_kernel_bit_for_bit_on_u8(monkeypatch, u8, seed):
    fan, F = u8
    exponents, coeffs = solver._arrays(build_potential(fan, F))
    u0 = solver._starts(seed, 0, 4800, 4)
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    us, R = solver._newton_per_cpu(exponents, coeffs, u0)
    assert len(forks) == 1
    ref_us, ref_R = solver._newton(exponents, coeffs, u0)
    assert us.tobytes() == ref_us.tobytes() and R.tobytes() == ref_R.tobytes()
    _assert_no_child_left()


@pytest.mark.parametrize("cpus, block, rows, children", [
    (2, solver._BLOCK, 2 * solver._BLOCK + 1, 1),  # uneven shares: 1,025 and 1,024 rows
    (2, solver._BLOCK, 2 * solver._BLOCK - 1, 0),  # one process short of a full pool each
    (8, 64, 300, 3),  # four shares, not eight: each gets a full pool
])
def test_newton_rows_are_dealt_to_processes_with_full_pools(monkeypatch, cpus, block, rows, children):
    W, _ = build("bl_points_5")
    exponents, coeffs = solver._arrays(W)
    u0 = _seeded_starts(W.dim, rows)
    ref_us, ref_R = solver._newton(exponents, coeffs, u0)
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(solver, "_BLOCK", block)
    forks = _count_forks(monkeypatch)
    us, R = solver._newton_per_cpu(exponents, coeffs, u0)
    assert len(forks) == children
    assert us.tobytes() == ref_us.tobytes() and R.tobytes() == ref_R.tobytes()
    _assert_no_child_left()


def test_one_cpu_gives_the_same_report(monkeypatch, u8):
    fan, F = u8
    W, expected = build_potential(fan, F), kushnirenko_bound(fan)
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    forked = report_to_json(solve(W, expected, SolverConfig(seed=1, starts=4800)))
    assert len(forks) == 1
    _cpus(monkeypatch, 1)
    assert report_to_json(solve(W, expected, SolverConfig(seed=1, starts=4800))) == forked
    assert len(forks) == 1


@pytest.mark.parametrize("failure", ["raises", "exits without data", "killed", "exits non-zero after its data"])
def test_a_failed_child_share_runs_in_the_parent(monkeypatch, u8, failure):
    fan, F = u8
    W, expected = build_potential(fan, F), kushnirenko_bound(fan)
    _cpus(monkeypatch, 2)
    reference = report_to_json(solve(W, expected, SolverConfig(seed=1, starts=4800)))
    parent, newton, exit_ = os.getpid(), solver._newton, os._exit
    in_parent = []

    def kernel(exponents, coeffs, u0):
        if os.getpid() == parent:
            in_parent.append(len(u0))
        elif failure == "raises":
            raise MemoryError
        elif failure == "exits without data":
            exit_(0)
        elif failure == "killed":
            os.kill(os.getpid(), 9)
        return newton(exponents, coeffs, u0)

    monkeypatch.setattr(solver, "_newton", kernel)
    if failure == "exits non-zero after its data":
        monkeypatch.setattr(os, "_exit", lambda code: exit_(3))
    forks = _count_forks(monkeypatch)
    assert report_to_json(solve(W, expected, SolverConfig(seed=1, starts=4800))) == reference
    assert len(forks) == 1 and in_parent == [2400, 2400]  # its own share, then the child's
    _assert_no_child_left()


def test_an_exception_in_the_parent_kills_and_reaps_every_child(monkeypatch):
    W, _ = build("bl_points_5")
    exponents, coeffs = solver._arrays(W)
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(solver, "_BLOCK", 16)
    parent, newton = os.getpid(), solver._newton

    def kernel(exponents, coeffs, u0):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return newton(exponents, coeffs, u0)

    monkeypatch.setattr(solver, "_newton", kernel)
    forks = _count_forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        solver._newton_per_cpu(exponents, coeffs, _seeded_starts(W.dim, 4000))
    assert len(forks) == 3
    _assert_no_child_left()


_REAL_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}


@pytest.mark.skipif(len(_REAL_CPUS) < 2, reason="pinning shares to distinct CPUs needs two of them")
@pytest.mark.parametrize("parent_share", ["returns", "raises"])
def test_the_parent_runs_its_share_pinned_and_gets_its_cpu_mask_back(monkeypatch, parent_share):
    W, _ = build("bl_points_5")
    exponents, coeffs = solver._arrays(W)
    u0 = _seeded_starts(W.dim, 200)
    ref_us, ref_R = solver._newton(exponents, coeffs, u0)
    monkeypatch.setattr(solver, "_BLOCK", 16)
    mask, parent, newton, pinned = os.sched_getaffinity(0), os.getpid(), solver._newton, []

    def kernel(exponents, coeffs, u0):
        if os.getpid() == parent:
            pinned.append(os.sched_getaffinity(0))
            if parent_share == "raises":
                raise KeyboardInterrupt
        return newton(exponents, coeffs, u0)

    monkeypatch.setattr(solver, "_newton", kernel)
    if parent_share == "raises":
        with pytest.raises(KeyboardInterrupt):
            solver._newton_per_cpu(exponents, coeffs, u0)
    else:
        us, R = solver._newton_per_cpu(exponents, coeffs, u0)
        assert us.tobytes() == ref_us.tobytes() and R.tobytes() == ref_R.tobytes()
    assert pinned == [{min(mask)}]
    assert os.sched_getaffinity(0) == mask
    _assert_no_child_left()


@pytest.mark.parametrize("why", ["no os.fork", "no os.sched_getaffinity", "a second thread", "one CPU"])
def test_newton_runs_in_one_process_when_forking_is_unsafe_or_useless(monkeypatch, why):
    W, _ = build("cp2")
    exponents, coeffs = solver._arrays(W)
    u0 = _seeded_starts(W.dim, 3000)
    ref_us, ref_R = solver._newton(exponents, coeffs, u0)
    _cpus(monkeypatch, 1 if why == "one CPU" else 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    if why.startswith("no os."):
        monkeypatch.delattr(os, why[6:])
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if why == "a second thread":
        thread.start()
    try:
        us, R = solver._newton_per_cpu(exponents, coeffs, u0)
    finally:
        done.set()
    assert us.tobytes() == ref_us.tobytes() and R.tobytes() == ref_R.tobytes()


def test_the_sweep_and_geometry_solves_stay_in_one_process(monkeypatch):
    # The benchmark's solve_sweep entries at their default budget (at most
    # 200 * 7 - 56 = 1,344 rows in one Newton call) and geometry's bl_points_5
    # at 600 starts never fork, even with many CPUs; if a later threshold makes
    # them fork, this fails.
    _cpus(monkeypatch, 64)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    for name in ("cp1", "cp2", "cp3", "cp4", "cp5", "cp6", "cp1xcp1", "bl1_cp2", "bl2_cp2", "bl3_cp2"):
        fan, F = corpus.build(name)
        W, expected = build_potential(fan, F), kushnirenko_bound(fan)
        assert solve(W, expected, SolverConfig(seed=1)).verdict is Verdict.SEMISIMPLE
        assert 200 * expected - solver._PROBE_PER_POINT * expected < 2 * solver._BLOCK  # a probe that fails too
    fan, F = corpus.build("bl_points_5")
    assert solve(build_potential(fan, F), kushnirenko_bound(fan), SolverConfig(seed=1, starts=600)).found_count == 60


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
    for p in report.points:
        assert p.residual < solver.NEWTON_TOL


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

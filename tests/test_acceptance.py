"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with -s to see them). Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import affine_hessian, cp_closed_form, kernel, match_complex_sets, match_point_sets
from toricqh import _exact, corpus, solver
from toricqh._exact import affine_rank, ratvec
from toricqh.batyrev import presentation, to_json
from toricqh.fan import is_smooth, kushnirenko_bound
from toricqh.lattice import (
    convex_hull_facets,
    dual_polytope,
    is_reflexive,
    lattice_points,
    normalized_volume,
)
from toricqh.potential import build_potential
from toricqh.support import is_strictly_convex
from toricqh.solver import (
    SolveReport,
    SolverConfig,
    Verdict,
    report_to_json,
    solve,
    verify_point,
)
from toricqh.newton import blowup_family, quasimorphism_report, root_valuations

COORD_TOL = 1e-8


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_u8_combinatorics():
    P = corpus.entry("u8").ray_polytope()
    assert len(P.vertices) == 10
    assert len(lattice_points(P)) == 11
    assert len(P.facets) == 24
    D = dual_polytope(P)
    assert len(D.vertices) == 24
    assert len(lattice_points(D)) == 59
    assert is_reflexive(P) == (True, None)
    fan, _ = corpus.build("u8")
    assert len(fan.maximal_cones) == 24
    assert is_smooth(fan) == (True, None)
    _ok(1, "u8 counts 10/24/11/59, reflexive and smooth, all exact")


def test_criterion_02_u8_degenerate_point(u8):
    fan, F = u8
    W = build_potential(fan, F)
    cp = verify_point(W, (-1, -1, -1, 1))
    assert cp.exact and cp.residual == 0.0
    hess = affine_hessian(W, (-1, -1, -1, 1))  # from the exact log-Hessian that ranks cp
    published = ((-2, 0, 0, -1), (0, -4, 0, -2), (0, 0, -2, 1), (-1, -2, 1, -2))
    assert hess == tuple(tuple(Fraction(x) for x in row) for row in published)
    assert cp.hessian_rank == 3 and not cp.nondegenerate
    report = solve(W, kushnirenko_bound(fan), SolverConfig(seed=1, starts=800))
    assert report.verdict is not Verdict.SEMISIMPLE
    _ok(2, "u8 monotone point (-1,-1,-1,1): exact residual 0, published Hessian, rank 3")


def test_criterion_03_u8_field_summand(u8):
    fan, F = u8
    W = build_potential(fan, F)
    report = solve(W, kushnirenko_bound(fan), SolverConfig(seed=1, starts=4800))
    nondeg = [p for p in report.points if p.nondegenerate]
    assert len(nondeg) >= 1
    assert report.verdict is Verdict.FIELD_SUMMAND
    _ok(3, f"u8 (seed 1, 4800 starts): {len(nondeg)} nondegenerate points, field summand")


def test_criterion_04_generic_semisimplicity(u8):
    fan, F = u8
    rng = np.random.default_rng(42)
    coeffs = rng.uniform(0.9, 1.1, len(fan.rays)).tolist()
    W = build_potential(fan, F, coeffs)
    report = solve(W, kushnirenko_bound(fan), SolverConfig(seed=2, starts=2400))
    assert report.found_count > 0
    assert all(p.nondegenerate for p in report.points)
    _ok(4, f"perturbed u8: {report.found_count} points found, every one nondegenerate")


def _surface_critical_oracle(fan):
    """Independent oracle for 2-fold critical points: a lex Groebner basis
    (t > x > y) of the two log-derivative equations with denominators
    cleared, saturated by t*x*y - 1 so that only torus points remain. Its
    last element is univariate in y; at each of its roots, the x-roots of
    the lowest-degree remaining element that zero every other one are the
    points above it."""
    import sympy

    x, y, t = sympy.symbols("x y t")
    W = sum(x ** r[0] * y ** r[1] for r in fan.rays)
    eqs = [sympy.numer(sympy.together(v * sympy.diff(W, v))) for v in (x, y)]
    basis = sympy.groebner(eqs + [t * x * y - 1], t, x, y, order="lex")
    plane = [g for g in basis.exprs if not g.has(t)]
    points = []
    for y0 in sympy.Poly(plane[-1], y).nroots(n=30):
        in_x = [sympy.Poly(g.subs(y, y0), x) for g in plane[:-1]]
        lowest = min((p for p in in_x if p.degree() > 0), key=lambda p: p.degree())
        for x0 in lowest.nroots(n=30):
            if all(abs(complex(p.eval(x0))) < 1e-12 for p in in_x):
                points.append((complex(x0), complex(y0)))
    return points


def test_criterion_05_surfaces_semisimple():
    expected_counts = {
        "cp2": 3, "cp1xcp1": 4, "bl1_cp2": 4, "bl2_cp2": 5, "bl3_cp2": 6,
    }
    for name, count in expected_counts.items():
        fan, F = corpus.build(name)
        W = build_potential(fan, F)
        report = solve(W, len(fan.maximal_cones), SolverConfig(seed=0))
        assert report.found_count == count, name
        assert all(p.nondegenerate for p in report.points), name
        assert report.verdict is Verdict.SEMISIMPLE, name
        oracle = _surface_critical_oracle(fan)
        assert len(oracle) == count, name
        assert match_point_sets(
            [p.coords for p in report.points], oracle, tol=COORD_TOL
        ), name
    _ok(5, "all five toric Fano surfaces semisimple with counts 3/4/4/5/6, oracle-matched")


def test_criterion_06_cpd_spectrum():
    for d in range(1, 5):
        fan, F = corpus.build(f"cp{d}")
        W = build_potential(fan, F)
        report = solve(W, len(fan.maximal_cones), SolverConfig(seed=0))
        spec = [value for value, _ in report.spectrum]
        assert match_complex_sets(spec, cp_closed_form(d), tol=COORD_TOL), d
    assert "eigenvalue" in SolveReport.spectrum.__doc__
    assert "multiplication" in SolveReport.spectrum.__doc__
    _ok(6, "projective-space spectra equal (d+1) times the (d+1)-st roots of unity")


def test_criterion_07_blowup_certificates():
    from toricqh.corpus import bl_points_fan
    from toricqh.support import monotone_support

    for d in (2, 3, 4):
        fan = bl_points_fan(d)
        W = build_potential(fan, monotone_support(fan))
        cp = verify_point(W, (-1,) * d)
        assert cp.exact and cp.residual == 0.0, d
        assert cp.hessian_rank == d and cp.nondegenerate, d
    _ok(7, "blow-ups of projective space: (-1,..,-1) is an exact nondegenerate critical point")


def test_criterion_08_quasimorphism_regimes():
    two_class = [(2, 1), (5, 2), (1, Fraction(2, 5))]
    one_class = [(3, 1), (4, 1), (7, 2)]
    for alpha, beta in two_class:
        vals = root_valuations(blowup_family(alpha, beta))
        assert len(vals) == 2, (alpha, beta)
        assert sum(count for _, count in vals) == 4
        assert "two distinct Calabi quasimorphisms" in quasimorphism_report(alpha, beta)
    for alpha, beta in one_class:
        vals = root_valuations(blowup_family(alpha, beta))
        assert len(vals) == 1, (alpha, beta)
        assert sum(count for _, count in vals) == 4
        assert "criterion inconclusive" in quasimorphism_report(alpha, beta)
    _ok(8, "valuation classes: 2 below the ratio-3 wall, 1 on and above it, counts sum to 4")


def test_criterion_09_valuation_specialization():
    alpha, beta, eps = 2, 1, 1e-3
    vals = root_valuations(blowup_family(alpha, beta))
    assert vals == ((Fraction(1), 1), (Fraction(2, 3), 3))
    roots = np.roots([1, 0, 0, -(eps ** alpha), -(eps ** (alpha + beta))])
    moduli = sorted(abs(r) for r in roots)
    expected = sorted(eps ** float(v) for v, c in vals for _ in range(c))
    for m, e in zip(moduli, expected):
        assert abs(m - e) / e < 0.10
    _ok(9, "root moduli at eps=1e-3 match eps^(2/3) (x3) and eps^1 within 10%")


def test_criterion_10_substitution_identity():
    for e in corpus.catalog():
        fan, F = corpus.build(e.name)
        pres = presentation(fan, F)
        W = build_potential(fan, F)
        terms = {t.exponent: t.s_exponent for t in W.terms}
        for rel in pres.quantum:
            left = tuple(sum(fan.rays[i][k] for i in rel.collection) for k in range(fan.dim))
            right = tuple(sum(m * fan.rays[i][k] for i, m in rel.a) for k in range(fan.dim))
            assert left == right, e.name
            assert not set(rel.collection) & set(dict(rel.a))
        for rel in json.loads(to_json(pres))["linear"]:
            for i, coeff in enumerate(rel["coeffs"]):
                ray = fan.rays[i]
                assert coeff == sum(m * r for m, r in zip(rel["m"], ray))
                assert terms[ray] == F.values[i]
    _ok(10, "substitution identity exact on every catalog presentation")


def test_criterion_11_invariant_suites(u8, monkeypatch):
    # duality involution
    for e in corpus.catalog():
        P = e.ray_polytope()
        assert dual_polytope(dual_polytope(P)).vertices == P.vertices, e.name

    # hull-oracle equivalence on random integral instances, d <= 3
    from test_lattice import _oracle_facets

    rng = random.Random(2024)
    for d in (1, 2, 3):
        done = 0
        while done < 10:
            pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, 8))]
            if affine_rank([ratvec(p) for p in pts]) < d:
                continue
            assert convex_hull_facets([ratvec(p) for p in pts]) == _oracle_facets(pts)
            done += 1

    # fan axioms and primitive-collection definition for every catalog entry
    for e in corpus.catalog():
        fan, _ = corpus.build(e.name)
        stored = {frozenset(c) for cones in fan.cones.values() for c in cones}
        for s in stored:
            for sub in itertools.chain.from_iterable(
                itertools.combinations(sorted(s), k) for k in range(len(s))
            ):
                assert frozenset(sub) in stored
        for a, b in itertools.combinations(stored, 2):
            assert a & b in stored
        from toricqh.fan import primitive_collections

        for c in primitive_collections(fan):
            s = frozenset(c)
            assert s not in stored
            assert all(s - {i} in stored for i in c)

    # Kushnirenko consistency: cone count equals hull volume on Fano entries
    for e in corpus.catalog():
        fan, F = corpus.build(e.name)
        vol = normalized_volume(e.ray_polytope())
        if is_strictly_convex(F)[0]:  # the monotone class is ample: a Fano entry
            assert vol == len(fan.maximal_cones), e.name
        assert kushnirenko_bound(fan) == vol

    # finite-difference agreement below 1e-6
    fan, F = corpus.build("cp2")
    W = build_potential(fan, F)
    rng = random.Random(31)
    h = 1e-6
    for _ in range(30):
        u = [
            complex(rng.uniform(math.log(0.5), math.log(2)), rng.uniform(0, 2 * math.pi))
            for _ in range(W.dim)
        ]
        _, grad, _ = kernel(W, u)
        for i in range(W.dim):
            up, um = list(u), list(u)
            up[i] += h
            um[i] -= h
            fd = (kernel(W, up)[0] - kernel(W, um)[0]) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    # solver determinism across batch blocking at a fixed seed
    fanb, Fb = corpus.build("bl2_cp2")
    Wb = build_potential(fanb, Fb)
    reports = set()
    for block in (1, 7, solver._BLOCK, 4096):
        monkeypatch.setattr(solver, "_BLOCK", block)
        reports.add(report_to_json(solve(Wb, len(fanb.maximal_cones), SolverConfig(seed=5, starts=400))))
    assert len(reports) == 1

    _ok(11, "invariant suites: duality, hull oracle, fan axioms, volumes, FD, determinism")


def test_c1_spectrum_of_batyrevs_ring_matches_the_solved_critical_values(batyrev_ring):
    import sympy

    lam = sympy.Symbol("lam")
    expected = {
        "cp3": (lam**4 - 256, None),
        "u8": (
            (lam - 10) * (lam - 2) ** 2 * (lam + 6) ** 3 * (lam + 2) ** 6 * (lam**2 + 4 * lam + 20) ** 2
            * (lam**4 + 4 * lam**3 - 8 * lam**2 - 144 * lam - 416) ** 2,
            4800,
        ),
    }
    for name, (polynomial, starts) in expected.items():
        fan, F = corpus.build(name)
        ring = batyrev_ring(name)
        assert sympy.expand(ring.charpoly - polynomial) == 0, name
        roots = ring.eigenvalues
        report = solve(build_potential(fan, F), kushnirenko_bound(fan), SolverConfig(seed=0, starts=starts))
        values = [value for value, _ in report.spectrum]
        assert all(any(abs(r - v) <= COORD_TOL for v in values) for r in roots), name
        assert all(any(abs(r - v) <= COORD_TOL for r in roots) for v in values), name


FANO = ("cp1", "cp2", "cp3", "cp4", "cp5", "cp6", "cp1xcp1", "bl1_cp2", "bl2_cp2", "bl3_cp2", "u8")


@pytest.mark.parametrize("name", FANO)
def test_batyrevs_ring_has_the_solved_rank_spectrum_and_trace_form(name, batyrev_ring):
    """On a smooth Fano entry Batyrev's ring is W's Jacobian ring: its rank
    is the cone count and the Kushnirenko bound, c1's distinct eigenvalues
    are the distinct critical values, and its trace form has one unit of
    rank per distinct critical point, full exactly when QH is semisimple."""
    ring = batyrev_ring(name)
    fan, F = corpus.build(name)
    assert len(ring.monomials) == len(fan.maximal_cones) == kushnirenko_bound(fan)
    roots = ring.eigenvalues
    starts = 4800 if name == "u8" else None
    report = solve(build_potential(fan, F), kushnirenko_bound(fan), SolverConfig(seed=0, starts=starts))
    values = [value for value, _ in report.spectrum]
    assert all(any(abs(r - v) <= COORD_TOL for v in values) for r in roots)
    assert all(any(abs(r - v) <= COORD_TOL for r in roots) for v in values)
    rank = _exact.rank(ring.trace_form())
    assert rank == report.found_count
    assert (rank == len(ring.monomials)) == (report.verdict is Verdict.SEMISIMPLE)

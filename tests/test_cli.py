import ast
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from toricqh import corpus, lattice, support
from toricqh.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_entries(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "u8" in out and "cp2" in out and "cp1xcp1" in out


def test_check_u8(capsys):
    code, out, _ = run(capsys, "check", "u8")
    assert code == 0
    assert "vertices: 10" in out
    assert "facets: 24" in out
    assert "lattice points: 11" in out
    assert "vertices: 24" in out
    assert "lattice points: 59" in out
    assert "reflexive: yes" in out
    assert "delzant: yes" in out
    assert "smooth: yes" in out


def test_check_file(tmp_path, capsys):
    path = tmp_path / "cp2.txt"
    path.write_text("2 3\n1 0\n0 1\n-1 -1\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "reflexive: yes" in out


def test_fan_output(capsys):
    code, out, _ = run(capsys, "fan", "bl1_cp2")
    assert code == 0
    assert "rays (4)" in out
    assert "primitive collections (2)" in out


def test_presentation_text(capsys):
    code, out, _ = run(capsys, "presentation", "cp2")
    assert code == 0
    assert "q^-3 s^3 z1 z2 z3 - 1" in out


def test_presentation_json(capsys):
    code, out, _ = run(capsys, "presentation", "cp2", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"rays", "linear", "quantum", "c1"}


def test_potential_render(capsys):
    code, out, _ = run(capsys, "potential", "cp2")
    assert code == 0
    assert "W = " in out


def test_solve_cp2(capsys):
    code, out, _ = run(capsys, "solve", "cp2", "--seed", "0")
    assert code == 0
    assert "verdict: semisimple" in out
    assert "found: 3" in out
    assert "starts: 24 of at most 600" in out


def test_solve_u8_reports_degenerate_point(capsys):
    code, out, _ = run(capsys, "solve", "u8", "--seed", "1", "--starts", "600")
    assert code == 0
    assert "verdict: field_summand" in out
    assert "(-1, -1, -1, 1)" in out
    assert "rank=3" in out
    assert "degenerate" in out


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "cp1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "semisimple"
    assert data["found"] == 2


def test_solve_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "solve", "bl1_cp2", "--seed", "3", "--starts", "300")
    code2, out2, _ = run(capsys, "solve", "bl1_cp2", "--seed", "3", "--starts", "300")
    assert code1 == code2 == 0
    assert out1 == out2


def test_spectrum_cp1xcp1(capsys):
    code, out, _ = run(capsys, "spectrum", "cp1xcp1", "--seed", "0")
    assert code == 0
    assert "eigenvalues of multiplication by q^-1 c1" in out
    assert "-4" in out and "4" in out


def test_valuations_two_classes(capsys):
    code, out, _ = run(capsys, "valuations", "--alpha", "2", "--beta", "1")
    assert code == 0
    assert "two distinct Calabi quasimorphisms" in out
    assert "2/3" in out


def test_valuations_single_class(capsys):
    code, out, _ = run(capsys, "valuations", "--alpha", "4", "--beta", "1")
    assert code == 0
    assert "inconclusive" in out


# the whole stdout of `valuations`, byte for byte
VALUATIONS_TEXT = {
    ("2", "1"): (
        "blow-up family with alpha = 2, beta = 1\n"
        "root valuations of x1^4 - s^α x1 - s^(α+β):\n"
        "  valuation 1 (1 root): spectral norm of x^n at the idempotent = 10^(-1)\n"
        "  valuation 2/3 (3 roots): spectral norm of x^n at the idempotent = 10^(-2/3)\n"
        "two distinct Calabi quasimorphisms (α/β = 2 < 3)\n"
    ),
    ("5", "2"): (
        "blow-up family with alpha = 5, beta = 2\n"
        "root valuations of x1^4 - s^α x1 - s^(α+β):\n"
        "  valuation 2 (1 root): spectral norm of x^n at the idempotent = 10^(-2)\n"
        "  valuation 5/3 (3 roots): spectral norm of x^n at the idempotent = 10^(-5/3)\n"
        "two distinct Calabi quasimorphisms (α/β = 5/2 < 3)\n"
    ),
    ("1", "2/5"): (
        "blow-up family with alpha = 1, beta = 2/5\n"
        "root valuations of x1^4 - s^α x1 - s^(α+β):\n"
        "  valuation 2/5 (1 root): spectral norm of x^n at the idempotent = 10^(-2/5)\n"
        "  valuation 1/3 (3 roots): spectral norm of x^n at the idempotent = 10^(-1/3)\n"
        "two distinct Calabi quasimorphisms (α/β = 5/2 < 3)\n"
    ),
    ("3", "2"): (
        "blow-up family with alpha = 3, beta = 2\n"
        "root valuations of x1^4 - s^α x1 - s^(α+β):\n"
        "  valuation 2 (1 root): spectral norm of x^n at the idempotent = 10^(-2)\n"
        "  valuation 1 (3 roots): spectral norm of x^n at the idempotent = 10^(-1)\n"
        "two distinct Calabi quasimorphisms (α/β = 3/2 < 3)\n"
    ),
    ("3", "1"): (
        "blow-up family with alpha = 3, beta = 1\n"
        "root valuations of x1^4 - s^α x1 - s^(α+β):\n"
        "  valuation 1 (4 roots): spectral norm of x^n at the idempotent = 10^(-1)\n"
        "criterion inconclusive, single valuation (α/β = 3 >= 3)\n"
    ),
    ("4", "1"): (
        "blow-up family with alpha = 4, beta = 1\n"
        "root valuations of x1^4 - s^α x1 - s^(α+β):\n"
        "  valuation 5/4 (4 roots): spectral norm of x^n at the idempotent = 10^(-5/4)\n"
        "criterion inconclusive, single valuation (α/β = 4 >= 3)\n"
    ),
    ("7", "2"): (
        "blow-up family with alpha = 7, beta = 2\n"
        "root valuations of x1^4 - s^α x1 - s^(α+β):\n"
        "  valuation 9/4 (4 roots): spectral norm of x^n at the idempotent = 10^(-9/4)\n"
        "criterion inconclusive, single valuation (α/β = 7/2 >= 3)\n"
    ),
}


@pytest.mark.parametrize("alpha,beta", list(VALUATIONS_TEXT))
def test_valuations_text_is_pinned(capsys, alpha, beta):
    code, out, err = run(capsys, "valuations", "--alpha", alpha, "--beta", beta)
    assert (code, out, err) == (0, VALUATIONS_TEXT[alpha, beta], "")


def test_valuations_invalid_regime(capsys):
    code, out, err = run(capsys, "valuations", "--alpha", "1", "--beta", "2")
    assert code == 1
    assert "error" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1 0\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "parse error" in err


def test_domain_error_exit_code(tmp_path, capsys):
    path = tmp_path / "shifted.txt"
    path.write_text("2 4\n0 0\n1 0\n0 1\n1 1\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1


def test_unknown_target_exit_code(capsys):
    code, _, err = run(capsys, "solve", "not_a_thing")
    assert code == 1
    assert "no catalog entry" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "wrongcommand")
    assert code == 2


@pytest.mark.parametrize("argv", [
    (),                                                 # no command
    ("wrongcommand",),                                  # unknown command
    ("solve", "cp2", "--frobnicate"),                   # unknown option
    ("solve", "cp2", "--see", "3"),                     # an abbreviation is not an option
    ("check", "cp2", "--json"),                         # an option of another command
    ("solve", "cp2", "--seed"),                         # option missing its value
    ("presentation", "cp2", "--support"),
    ("solve",),                                         # missing target
    ("fan", "--primal"),
    ("solve", "cp2", "cp3"),                            # a second target
    ("catalog", "cp2"),                                 # a target for a command without one
    ("solve", "cp2", "--seed", "x"),                    # non-integer --seed / --starts
    ("solve", "cp2", "--seed=1.5"),
    ("spectrum", "cp2", "--starts", "many"),
    ("solve", "cp2", "--json=yes"),                     # a value for a flag
    ("valuations", "--beta", "1"),                      # valuations without --alpha
    ("valuations", "--alpha", "2"),
    ("solve", "cp2", "--coeffs=", "--json"),            # an empty value list
    ("solve", "cp2", "--coeffs", ""),
    ("presentation", "cp2", "--support=", "--json"),
])
def test_every_usage_error_is_a_parse_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("spaced, joined", [
    (("solve", "cp2", "--seed", "3", "--starts", "40"), ("solve", "cp2", "--seed=3", "--starts=40")),
    (("spectrum", "bl1_cp2", "--seed", "3", "--json"), ("spectrum", "bl1_cp2", "--seed=3", "--json")),
])
def test_an_option_value_after_an_equals_sign_reads_the_same(spaced, joined, capsys):
    first = run(capsys, *spaced)
    assert first[0] == 0 and run(capsys, *joined) == first


def test_a_value_may_start_with_a_dash(tmp_path, capsys, monkeypatch):
    spaced = run(capsys, "presentation", "cp2", "--support", "-1,-1,-1")
    assert spaced[0] == 0 and spaced == run(capsys, "presentation", "cp2", "--support=-1,-1,-1")
    # a target is never read as a value: one that starts with "-" is an unknown option
    monkeypatch.chdir(tmp_path)
    Path("-cp2.txt").write_text("2 3\n1 0\n0 1\n-1 -1\n")
    assert run(capsys, "check", "-cp2.txt")[0] == 2
    assert run(capsys, "check", "./-cp2.txt")[0] == 0


def test_help_lists_every_command_and_every_option(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: toricqh COMMAND")
        listed = [line.split()[0] for line in out.split("commands:\n")[1].splitlines()]
        assert listed == ["catalog", "check", "fan", "presentation", "potential", "solve", "spectrum", "valuations"]
    code, out, err = run(capsys, "solve", "-h")
    assert (code, err) == (0, "")
    assert out.startswith("usage: toricqh solve TARGET")
    options = [word for line in out.splitlines() for word in line.split()[:1] if word.startswith("-")]
    assert options == ["-h,", "--primal", "--coeffs", "--seed", "--starts", "--json"]
    # help needs no complete command line: no target and no required option
    assert run(capsys, "valuations", "--help")[:2] == (0, run(capsys, "valuations", "-h")[1])
    assert run(capsys, "solve", "--help")[0] == 0
    assert run(capsys, "catalog", "--help")[1].startswith("usage: toricqh catalog")


def test_primal_file(tmp_path, capsys):
    # the square [-1,1]^2 as a moment polytope
    path = tmp_path / "square.txt"
    path.write_text("2 4\n-1 -1\n-1 1\n1 -1\n1 1\n")
    code, out, _ = run(capsys, "solve", str(path), "--primal", "--seed", "0")
    assert code == 0
    assert "verdict: semisimple" in out
    assert "found: 4" in out


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "toricqh.cli", "solve", "cp2", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["found"] == 3 and data["verdict"] == "semisimple"


def test_check_catalog_primal_reports_the_fan_of_its_own_polytope(capsys):
    # cp2's rays read as moment vertices span the P^2/Z3 triangle, not P^2
    code, out, _ = run(capsys, "check", "cp2", "--primal")
    assert code == 0
    assert "delzant: no" in out
    assert "smooth: no (cone (0, 1))" in out


def test_check_primal_file_with_a_non_smooth_face_fan(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("2 3\n1 0\n0 1\n-1 -1\n")
    code, out, _ = run(capsys, "check", str(path), "--primal")
    assert code == 0
    assert "delzant: no" in out
    assert "smooth: no (cone (0, 1))" in out


@pytest.mark.parametrize("name", [e.name for e in corpus.catalog()])
def test_check_primal_delzant_exactly_when_smooth(name, capsys):
    code, out, _ = run(capsys, "check", name, "--primal")
    fan_line = [line for line in out.splitlines() if line.startswith("fan:")]
    if not fan_line:
        assert code == 1  # a non-simplicial face fan stops the report
        return
    assert code == 0
    assert ("delzant: yes" in out) == ("smooth: yes" in fan_line[0])


@pytest.mark.parametrize("command", ["fan", "presentation", "potential", "solve", "spectrum"])
def test_primal_catalog_label_gives_no_provenance(command, capsys):
    # bl3_cp2's rays read as moment vertices span a Delzant hexagon
    code, out, _ = run(capsys, command, "bl3_cp2", "--primal")
    assert code == 0
    assert out.splitlines()[0] == "input: bl3_cp2"
    assert corpus.entry("bl3_cp2").provenance not in out


# Recorded before `check` and the other target commands shared one resolver.
RECTANGLE_SOLVE = {
    "critical_values": [[-4.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, 0.0]],
    "expected": 4,
    "found": 4,
    "points": [
        {"coords": [[x, 0.0], [y, 0.0]], "nondeg": True, "rank": 2, "residual": 0.0}
        for x in (-1.0, 1.0) for y in (-1.0, 1.0)
    ],
    "verdict": "semisimple",
}
RECTANGLE_PRESENTATION = {
    "c1": "sum of all z",
    "linear": [{"coeffs": [-1, 0, 0, 1], "m": [1, 0]}, {"coeffs": [0, -1, 1, 0], "m": [0, 1]}],
    "quantum": [
        {"C": [0, 3], "a": {}, "sF": ["-2", "0"], "sigmaC": []},
        {"C": [1, 2], "a": {}, "sF": ["-1", "0"], "sigmaC": []},
    ],
    "rays": [[-1, 0], [0, -1], [0, 1], [1, 0]],
}


def test_primal_rectangle_with_the_origin_on_its_boundary(tmp_path, capsys):
    # [0, 2] x [0, 1] is Delzant but has no polar dual
    path = tmp_path / "rectangle.txt"
    path.write_text("2 4\n0 0\n2 0\n0 1\n2 1\n")
    code, out, _ = run(capsys, "solve", str(path), "--primal", "--json")
    assert code == 0
    assert json.loads(out) == RECTANGLE_SOLVE
    code, out, _ = run(capsys, "presentation", str(path), "--primal", "--json")
    assert code == 0
    assert json.loads(out) == RECTANGLE_PRESENTATION


@pytest.mark.parametrize("rows, ray_block", [
    ("0 0\n2 0\n0 1\n2 1\n", "  none: the moment polytope has no polar dual (facet (0, 1) has offset 0 >= 0)\n"),
    ("-1 -1\n2 -1\n-1 1\n2 1\n", "  reflexive: no (polytope has a non-integral vertex)\n"),
])
def test_check_primal_reports_a_delzant_polytope_without_a_reflexive_dual(rows, ray_block, tmp_path, capsys):
    # [0, 2] x [0, 1] has no polar dual, and [-1, 2] x [-1, 1] has a
    # non-reflexive one; both are Delzant, with the normal fan of a square
    path = tmp_path / "rectangle.txt"
    path.write_text("2 4\n" + rows)
    code, out, err = run(capsys, "check", str(path), "--primal")
    assert (code, err) == (0, "")
    assert ray_block in out and "delzant: yes" in out
    assert out.endswith("fan: 4 rays, 4 maximal cones, smooth: yes, complete: yes, monotone class ample: yes\n")


def test_check_primal_reads_the_monotone_class_of_a_non_fano_normal_fan(tmp_path, capsys):
    # the trapezoid's normal fan is the Hirzebruch surface F2, which is not
    # Fano: its own class is ample, the anticanonical one is not
    path = tmp_path / "f2.txt"
    path.write_text("2 4\n0 0\n3 0\n1 1\n0 1\n")
    code, out, err = run(capsys, "check", str(path), "--primal")
    assert (code, err) == (0, "")
    assert out == (
        f"input: {path}\n"
        "ray polytope (dual side):\n"
        "  none: the moment polytope has no polar dual (facet (0, 1) has offset 0 >= 0)\n"
        "moment polytope (primal side):\n"
        "  vertices: 4\n"
        "  facets: 4\n"
        "  lattice points: 6\n"
        "  delzant: yes\n"
        "fan: 4 rays, 4 maximal cones, smooth: yes, complete: yes, monotone class ample: no\n"
    )
    fan, F = support.support_from_polytope(lattice.Polytope.from_points([(0, 0), (3, 0), (1, 1), (0, 1)]))
    assert support.is_strictly_convex(F) == (True, None)
    assert support.is_strictly_convex(support.monotone_support(fan)) == (False, ((0, 1), 3))


def test_check_primal_without_a_fan_stops_at_the_ray_polytope(tmp_path, capsys):
    # a non-Delzant triangle with the origin as a vertex: no dual, no fan
    path = tmp_path / "corner.txt"
    path.write_text("2 3\n0 0\n2 0\n0 1\n")
    code, out, err = run(capsys, "check", str(path), "--primal")
    assert (code, out) == (1, f"input: {path}\n")
    assert err == "error: facet (0, 1) has offset 0 >= 0\n"


def test_check_primal_walks_the_vertex_adjacency_once(tmp_path, capsys, monkeypatch):
    moment = lattice.dual_polytope(corpus.entry("u8").ray_polytope())
    path = tmp_path / "u8_moment.txt"
    path.write_text(f"4 {len(moment.vertices)}\n" + "".join(" ".join(map(str, v)) + "\n" for v in moment.vertices))
    lattice.is_delzant.cache_clear()
    calls = []
    adjacency = lattice._adjacent_vertices
    monkeypatch.setattr(lattice, "_adjacent_vertices", lambda P: calls.append(P) or adjacency(P))
    code, out, _ = run(capsys, "check", str(path), "--primal")
    assert code == 0
    assert "delzant: yes" in out and "smooth: yes" in out
    assert len(calls) == 1


def test_presentation_on_a_non_smooth_primal_triangle_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("2 3\n1 0\n0 1\n-1 -1\n")
    code, _, err = run(capsys, "presentation", str(path), "--primal")
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "target, values, witness",
    [
        ("cp2", "0,0,0", "(cone (0, 1), ray 2)"),  # linear: no strict inequality anywhere
        ("cp2", "-1,-1,2", "(cone (0, 1), ray 2)"),
        ("cp1xcp1", "-1,0,0,-1", "(cone (0, 1), ray 2)"),  # rays 1 and 2 are opposite, F1 + F2 = 0
        ("cp1xcp1", "0,-1,-1,0", "(cone (0, 1), ray 3)"),  # rays 0 and 3 are opposite, F0 + F3 = 0
    ],
)
def test_presentation_rejects_support_values_that_are_not_strictly_convex(target, values, witness, capsys):
    code, out, err = run(capsys, "presentation", target, f"--support={values}")  # "=": values may open with "-"
    assert (code, out) == (1, "")
    assert err == f"error: support values are not strictly convex {witness}\n"
    monotone = ",".join(["-1"] * (values.count(",") + 1))
    assert run(capsys, "presentation", target, f"--support={monotone}")[0] == 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (("solve", "cp2", "--starts", "0"), 2),
        (("solve", "cp2", "--coeffs", "abc,1,1"), 2),
        (("presentation", "cp2", "--support", "a,b,c"), 2),
        (("valuations", "--alpha", "x", "--beta", "1"), 2),
        (("valuations", "--alpha", "1/0", "--beta", "1"), 2),
        (("solve", "cp2", "--coeffs", "inf,1,1"), 1),
        (("solve", "cp2", "--coeffs", "1,1"), 2),
        (("presentation", "cp2", "--support", "1,2"), 2),
        (("valuations", "--alpha", "1 2", "--beta", "1"), 2),
    ],
)
def test_malformed_values_are_errors_not_tracebacks(argv, code, capsys):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "spectrum"])
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551617"])
def test_a_seed_default_rng_would_reject_or_alias_is_a_usage_error(command, seed, capsys):
    code, out, err = run(capsys, command, "cp2", "--seed", seed)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: --seed: seed must be in [0, 2**64)")


def test_a_budget_past_the_seeded_start_range_is_a_usage_error(monkeypatch, capsys):
    # start k is seeded from a 32-bit word, so k >= 2**32 would repeat start
    # k - 2**32; the budget is rejected before any start is drawn
    from toricqh import solver

    monkeypatch.setattr(solver, "_starts", lambda *args: pytest.fail("drew starts"))
    code, out, err = run(capsys, "solve", "cp2", "--starts", "4294967297")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: --starts: starts must be in [1, 2**32]")


def test_a_budget_the_machine_cannot_hold_is_an_error_not_a_traceback(monkeypatch, capsys):
    from toricqh import solver

    def starts(*args):
        raise MemoryError  # what drawing 2**32 rows at once raises
    monkeypatch.setattr(solver, "_starts", starts)
    code, out, err = run(capsys, "solve", "cp2", "--starts", "4294967296")
    assert (code, out) == (1, "")
    assert err == "error: not enough memory to run 4294967296 Newton starts; give a smaller --starts\n"


_NOT_ISOLATED = re.compile(
    r"error: the degenerate critical point \([^()]+\) lies on a curve of critical points, tangent to \([^()]+\) "
    r"in log coordinates \(witness residual [^()]+\); the critical locus is not isolated\n"
)


def test_a_non_isolated_critical_locus_names_no_setting(capsys):
    # bl_points_3's W has curves of critical points (ROADMAP item 4): each
    # seed names a point on one and its tangent, and no solver setting
    for seed in range(10):
        code, out, err = run(capsys, "solve", "bl_points_3", "--seed", str(seed))
        assert (code, out) == (1, ""), seed
        assert _NOT_ISOLATED.fullmatch(err) and "tol" not in err.lower(), err


def test_samples_of_a_critical_curve_give_no_verdict(capsys):
    # at these seeds samples of bl_points_3's curves of critical points once
    # passed for isolated points, with a field_summand verdict
    for seed in (12, 18):
        code, out, err = run(capsys, "solve", "bl_points_3", "--seed", str(seed))
        assert (code, out) == (1, "") and _NOT_ISOLATED.fullmatch(err), (seed, err)


def test_real_critical_values_print_without_noise(capsys):
    argv = ("u8", "--seed", "1", "--starts", "4800")
    code, out, _ = run(capsys, "solve", *argv)
    assert code == 0
    values = out.split("critical values:\n")[1].split()
    code, out, _ = run(capsys, "spectrum", *argv)
    assert code == 0
    spectrum = [line.split()[0] for line in out.splitlines()[2:] if line.startswith("  ")]
    assert spectrum == values and len(values) == 18
    assert not [v for v in values if re.search(r"e-\d+i$", v)]
    assert {"-6", "-3.763297829", "-2", "2", "5.327276155", "10"} <= set(values)
    for command in ("solve", "spectrum"):
        code, out, _ = run(capsys, command, "cp3", "--starts", "200")
        assert code == 0
        assert out.rsplit(":\n", 1)[1].split() == ["-4", "0-4i", "0+4i", "4"], command


NUMPY_PROBE = """
import contextlib, io, sys
import toricqh
from toricqh.cli import run_cli
assert "numpy" not in sys.modules, "import toricqh"
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(argv.split()) == 0, argv
    assert ("numpy" in sys.modules) == (argv.split()[0] == "solve"), argv
"""


def test_only_solve_and_spectrum_load_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    commands = ["catalog", "check cp2", "fan bl1_cp2", "presentation u8 --json", "potential u8",
                "valuations --alpha 2 --beta 1", "solve cp2 --json"]
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *commands],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


IMPORT_PROBE = """
import contextlib, io, sys
loaded = lambda: [sorted(m for m in sys.modules if m.split(".")[0] == "toricqh"),
                  *(m in sys.modules for m in ("numpy", "json", "logging", "dataclasses", "inspect",
                                               "argparse", "gettext", "locale"))]
import toricqh
steps = [loaded()]
from toricqh.cli import run_cli
steps.append(loaded())
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(argv.split()) == 0, argv
    steps.append(loaded())
print(steps)
"""


def _src_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


NO_PARSER = [False, False, False]  # argparse, gettext, locale


def test_each_command_loads_only_the_layers_it_runs():
    commands = ["catalog", "check cp2", "fan bl1_cp2", "presentation u8 --json", "potential u8",
                "valuations --alpha 2 --beta 1", "spectrum cp2 --json", "solve cp2 --json"]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *commands],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    base = ["toricqh", "toricqh._exact", "toricqh.cli", "toricqh.corpus", "toricqh.errors",
            "toricqh.fan", "toricqh.lattice", "toricqh.support"]
    with_batyrev = sorted(base + ["toricqh.batyrev"])
    with_potential = sorted(with_batyrev + ["toricqh.potential"])
    with_newton = sorted(with_potential + ["toricqh.newton"])
    with_solver = sorted(with_newton + ["toricqh.solver"])
    # (toricqh.* modules, numpy, json, logging, dataclasses, inspect, argparse,
    # gettext, locale) after each step: no command loads dataclasses or an
    # argument parser with its translations, and only numpy brings inspect
    assert ast.literal_eval(proc.stdout) == [
        [["toricqh"], False, False, False, False, False, *NO_PARSER],              # import toricqh
        [base, False, False, False, False, False, *NO_PARSER],                     # import toricqh.cli
        [base, False, False, False, False, False, *NO_PARSER],                     # catalog
        [base, False, False, False, False, False, *NO_PARSER],                     # check cp2
        [base, False, False, False, False, False, *NO_PARSER],                     # fan bl1_cp2
        [with_batyrev, False, True, False, False, False, *NO_PARSER],              # presentation u8 --json
        [with_potential, False, True, False, False, False, *NO_PARSER],            # potential u8
        [with_newton, False, True, False, False, False, *NO_PARSER],               # valuations
        [with_solver, True, True, False, False, True, *NO_PARSER],                 # spectrum cp2 --json
        [with_solver, True, True, False, False, True, *NO_PARSER],                 # solve cp2 --json
    ]


def test_every_public_name_resolves_lazily_from_the_package():
    import importlib

    import toricqh

    for name in toricqh.__all__:
        module = importlib.import_module(f"toricqh.{toricqh._LAZY[name]}")
        assert getattr(toricqh, name) is getattr(module, name), name
    assert set(toricqh.__all__) <= set(dir(toricqh))
    with pytest.raises(AttributeError, match="no_such_name"):
        toricqh.no_such_name
    # a submodule is not a lazy name: `from toricqh import corpus` imports it
    probe = "import toricqh; from toricqh import corpus; print(corpus.__name__)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.stdout == "toricqh.corpus\n", proc.stderr


@pytest.mark.parametrize("kind", ["directory", "non-utf-8 file"])
def test_an_unreadable_target_is_a_parse_error(kind, tmp_path):
    target = tmp_path
    if kind == "non-utf-8 file":
        target = tmp_path / "latin1.txt"
        target.write_bytes("2 3\n1 0 # caf\xe9\n0 1\n-1 -1\n".encode("latin-1"))
    proc = subprocess.run([sys.executable, "-c", "from toricqh.cli import main; main()", "check", str(target)],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"parse error: cannot read {target}: ")
    assert "Traceback" not in proc.stderr


def test_a_catalog_name_wins_over_a_directory_of_that_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    expected = run(capsys, "check", "u8")
    Path("u8").mkdir()
    assert expected[0] == 0 and run(capsys, "check", "u8") == expected
    # any other directory stays unreadable
    Path("not_an_entry").mkdir()
    code, out, err = run(capsys, "check", "not_an_entry")
    assert (code, out) == (2, "") and err.startswith("parse error: cannot read not_an_entry: ")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as under `| head`; its descriptor is a file."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_stdout_ends_the_command_quietly(tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
    try:
        assert run_cli(["solve", "cp2", "--starts", "50"]) == 1
        os.write(fd, b"the flush at exit")  # goes to the null device now
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


def test_a_closed_pipe_prints_no_traceback():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c", "from toricqh.cli import main; main()", "catalog"],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=_src_env(), timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("argv", [("fan", "bl_points_5"), ("presentation", "bl_points_5", "--json")])
def test_a_command_on_a_catalog_fan_builds_no_hull(argv, capsys, monkeypatch):
    corpus.build("bl_points_5")  # the catalog's own fan, built once per process
    monkeypatch.setattr(lattice, "_hulls", {})
    calls = []
    hull = lattice.convex_hull_facets
    monkeypatch.setattr(lattice, "convex_hull_facets", lambda points: calls.append(points) or hull(points))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and calls == []


def test_check_file_computes_the_dual_once(tmp_path, capsys):
    path = tmp_path / "u8.txt"
    rows = corpus.entry("u8").dual_vertices
    path.write_text(f"4 {len(rows)}\n" + "".join(" ".join(map(str, v)) + "\n" for v in rows))
    lattice.dual_polytope.cache_clear()
    lattice.is_reflexive.cache_clear()
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and "reflexive: yes" in out
    assert lattice.dual_polytope.cache_info().misses == lattice.is_reflexive.cache_info().misses == 1


def test_solve_file_with_a_non_extreme_row_builds_one_hull(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cp2_and_origin.txt"
    path.write_text("2 4\n1 0\n0 1\n-1 -1\n0 0\n")
    monkeypatch.setattr(lattice, "_hulls", {})
    calls = []
    hull = lattice.convex_hull_facets
    monkeypatch.setattr(lattice, "convex_hull_facets", lambda points: calls.append(points) or hull(points))
    code, out, _ = run(capsys, "solve", str(path), "--json")
    assert code == 0
    assert json.loads(out)["found"] == 3
    assert len(calls) == 1

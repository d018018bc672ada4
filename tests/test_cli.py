import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricqh import corpus, lattice
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

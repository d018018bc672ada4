"""Tests of the benchmark itself: the checker rejects corrupted outputs, the
input generator is deterministic, the speed probe times and kills commands,
and the span aggregation and metric names agree with BENCHMARK.json."""

import base64
import cmath
import json
import random
import sys
from array import array
from pathlib import Path

import pytest

from perfbench import checks, inputs, layers, speed

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = checks.load_reference()


def cp2_report() -> dict:
    """A correct `solve cp2 --json` report: x = y = zeta for the cube roots of unity."""
    points, values = [], []
    for k in range(3):
        z = cmath.exp(2j * cmath.pi * k / 3)
        exact = k == 0
        z = complex(1, 0) if exact else z
        points.append({"coords": [[z.real, z.imag]] * 2, "rank": 2, "nondeg": True,
                       "residual": 0.0 if exact else 1e-16})
        values.append([3 * z.real, 3 * z.imag])
    return {"expected": 3, "found": 3, "points": points, "verdict": "semisimple", "critical_values": values}


CP3_CHECK = """input: cp3.txt
ray polytope (dual side):
  vertices: 4
  facets: 4
  lattice points: 5
  reflexive: yes
moment polytope (primal side):
  vertices: 4
  facets: 4
  lattice points: 35
  delzant: yes
fan: 4 rays, 4 maximal cones, smooth: yes, complete: yes, monotone class ample: yes
"""


def test_checker_accepts_a_correct_solve():
    assert checks.check_output("solve", "cp2", json.dumps(cp2_report()), REFERENCE) == []


def test_checker_flags_flipped_verdict():
    report = cp2_report()
    report["verdict"] = "field_summand"
    assert checks.check_output("solve", "cp2", json.dumps(report), REFERENCE)


def test_checker_flags_changed_count():
    report = cp2_report()
    del report["points"][1]
    report["found"] = 2
    del report["critical_values"][1]
    problems = checks.check_output("solve", "cp2", json.dumps(report), REFERENCE)
    assert any("found is 2" in p for p in problems)


def test_checker_flags_a_point_that_is_not_critical():
    report = cp2_report()
    report["points"][1]["coords"][0] = [0.5, 0.8]
    assert checks.check_output("solve", "cp2", json.dumps(report), REFERENCE)


@pytest.mark.parametrize("kind,subject", [("solve", "u8"), ("check", "cp3"), ("spectrum", "cp3"),
                                          ("fan", "u8"), ("presentation", "u8"), ("valuations", "2 1")])
def test_checker_flags_empty_stdout(kind, subject):
    assert checks.check_output(kind, subject, "", REFERENCE) == [f"{kind} {subject}: empty stdout"]


def test_checker_flags_changed_check_count():
    assert checks.check_output("check", "cp3", CP3_CHECK, REFERENCE) == []
    wrong = CP3_CHECK.replace("lattice points: 35", "lattice points: 34")
    assert checks.check_output("check", "cp3", wrong, REFERENCE) == [
        "check cp3: moment.lattice points is '34', expected '35'"]


def test_generator_is_deterministic_per_seed():
    for name in inputs.FANO:
        assert inputs.polytope_file(name, random.Random(7)) == inputs.polytope_file(name, random.Random(7))
    assert inputs.polytope_file("u8", random.Random(1)) != inputs.polytope_file("u8", random.Random(2))


def test_generator_applies_a_lattice_automorphism():
    rng = random.Random(3)
    for name, rows in inputs.FANO.items():
        lines = [line for line in inputs.polytope_file(name, rng).splitlines() if not line.startswith("#")]
        d, n = map(int, lines[0].split())
        out = {tuple(map(int, line.split())) for line in lines[1:]}
        assert (d, n) == (len(rows[0]), len(rows))
        # same multiset of coordinate magnitudes per row, up to the permutation
        assert sorted(sorted(map(abs, r)) for r in out) == sorted(sorted(map(abs, r)) for r in rows)


def test_two_seeds_give_identical_check_counts(tmp_path, capsys):
    cli = pytest.importorskip("toricqh.cli")
    for name in ("cp3", "bl2_cp2", "u8"):
        counts = []
        for seed in (1, 2):
            path = tmp_path / f"{name}-{seed}.txt"
            path.write_text(inputs.polytope_file(name, random.Random(seed)), encoding="utf-8")
            assert cli.run_cli(["check", str(path)]) == 0
            out = capsys.readouterr().out
            assert checks.check_check(name, out, REFERENCE) == []
            counts.append(checks.parse_check(out))
        assert counts[0] == counts[1]


def test_span_self_times_and_outermost_calls():
    names = ["cli.main", "lattice.convex_hull_facets", "exact.dot"]
    spans = [(0, -1, 0, 100), (1, 0, 10, 60), (2, 1, 20, 30), (2, 1, 40, 45)]
    flat = array("q", [x for s in spans for x in s])
    doc = {"names": names, "counters": {"solver.starts": 0, "solver.converged": 0},
           "spans": base64.b64encode(flat.tobytes()).decode("ascii")}
    totals = layers.empty_totals()
    layers.add_command(totals, doc)
    assert totals["cli.self_s"] * 1e9 == pytest.approx(50)
    assert totals["lattice.self_s"] * 1e9 == pytest.approx(35)
    assert totals["exact.self_s"] * 1e9 == pytest.approx(15)
    assert totals["exact.calls"] == 2
    assert totals["lattice.hull_calls"] == 1
    assert totals["lattice.hull_s"] * 1e9 == pytest.approx(50)
    assert totals["inside_cli_s"] * 1e9 == pytest.approx(100)


def test_metric_names_and_units_match_benchmark_json():
    per_layer = layers.metrics(layers.empty_totals(), setup_s=0.2, commands=1, untraced_wall_s=1.0,
                               traced_wall_s=1.5, startup_s=0.2)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {k: u for k, (_, u) in per_layer.items()}
    assert {w["name"] for w in BENCHMARK["workloads"]} == {"solve_u8", "solve_sweep", "geometry"}


def test_speed_probe_samples_a_running_command():
    timed = speed.run([sys.executable, "-c", "import time; time.sleep(0.3); print('done')"],
                      env={}, cwd=None, timeout=30)
    assert (timed.returncode, timed.stdout) == (0, "done\n")
    assert timed.wall_s >= 0.3 and timed.adjusted_s > 0


def test_speed_probe_kills_a_command_past_its_timeout():
    timed = speed.run([sys.executable, "-c", "import time; time.sleep(30)"], env={}, cwd=None, timeout=0.5)
    assert timed.returncode is None and timed.wall_s < 10

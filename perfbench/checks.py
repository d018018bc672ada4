"""Output checks for every command the benchmark runs.

Two kinds of reference are used:

* independent answers computed here from the mathematics: the critical
  points and values of projective space and of the product of two lines,
  the point counts of the blow-ups of the plane, the U_8 anchors, the
  lattice-point counts of projective space, and, for every solve, that each
  reported point is a critical point of W = sum over rays of x^ray, evaluated
  here from the benchmark's own ray lists;
* answers recorded from the program (`reference.json`, written by
  `record_reference.py`) for everything else, such as the bl_points counts,
  fan and presentation output and the valuation reports.

Floats are compared to stated tolerances, never byte for byte, so a change
that only moves the last bits of the numeric solver still passes.
"""

import cmath
import json
from math import comb
from pathlib import Path

from perfbench.inputs import RAYS

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The solver keeps points whose log-gradient max-norm is below 1e-12; the
# check here allows 1e-8 relative to the largest term of W at the point.
GRAD_TOL = 1e-8
# Critical values are compared to the independent ones to this relative tolerance.
VALUE_TOL = 1e-8
# Two reported points closer than this (relative, per coordinate) are one point.
DISTINCT_TOL = 1e-6


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- parsing

def parse_check(stdout: str) -> dict[str, str]:
    """`check` output as {"ray.vertices": "4", ..., "fan": "..."}; the input
    label is dropped because it names the generated file."""
    fields: dict[str, str] = {}
    section = ""
    for line in stdout.splitlines():
        if line.startswith("ray polytope"):
            section = "ray"
        elif line.startswith("moment polytope"):
            section = "moment"
        elif line.startswith("fan:"):
            fields["fan"] = line[len("fan:"):].strip()
        elif line.startswith("  ") and ":" in line:
            key, value = line.strip().split(":", 1)
            fields[f"{section}.{key}"] = value.strip()
    return fields


def _complex(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def solve_stats(stdout: str) -> tuple[int, int]:
    """(points found, points with an exactly zero residual) of `solve --json`.

    The solver reports residual 0.0 for points certified over the rationals;
    a float residual is never exactly 0 at the non-rational points here.
    """
    report = json.loads(stdout)
    points = report["points"]
    return len(points), sum(1 for p in points if p["residual"] == 0)


# ----------------------------------------------------- independent answers

def _cp_dim(name: str) -> int | None:
    return int(name[2:]) if name.startswith("cp") and name[2:].isdigit() else None


def _roots_of_unity_values(n: int) -> list[complex]:
    return [n * cmath.exp(2j * cmath.pi * k / n) for k in range(n)]


def independent_values(name: str) -> list[complex] | None:
    """Critical values of W known in closed form, or None."""
    d = _cp_dim(name)
    if d is not None:
        return _roots_of_unity_values(d + 1)
    if name == "cp1xcp1":
        return [4, -4, 0, 0]
    return None


def independent_solve(name: str) -> dict:
    d = _cp_dim(name)
    if d is not None:
        return {"expected": d + 1, "found": d + 1, "verdict": "semisimple"}
    if name == "cp1xcp1":
        return {"expected": 4, "found": 4, "verdict": "semisimple"}
    if name.startswith("bl") and name.endswith("_cp2"):
        k = int(name[2])
        return {"found": 3 + k, "verdict": "semisimple"}
    if name == "u8":
        return {"expected": 24, "verdict": "field_summand"}
    return {}


def independent_check(name: str) -> dict[str, str]:
    d = _cp_dim(name)
    if d is None:
        return {}
    return {
        "ray.vertices": str(d + 1),
        "ray.facets": str(d + 1),
        "ray.lattice points": str(d + 2),
        "moment.lattice points": str(comb(2 * d + 1, d)),
    }


# ------------------------------------------------------------- W at points

def _terms(rays, x) -> list[complex]:
    out = []
    for ray in rays:
        t = complex(1)
        for xi, n in zip(x, ray):
            t *= xi ** n
        out.append(t)
    return out


def potential_value(rays, x) -> complex:
    return sum(_terms(rays, x))


def log_gradient_error(rays, x) -> float:
    """max_i |x_i dW/dx_i| relative to the largest term of W at x."""
    terms = _terms(rays, x)
    scale = max(1.0, max(abs(t) for t in terms))
    grad = [sum(ray[i] * t for ray, t in zip(rays, terms)) for i in range(len(x))]
    return max(abs(g) for g in grad) / scale


def _match_values(expected, reported, what: str) -> list[str]:
    """Multiset match with tolerance; greedy nearest is enough at these gaps."""
    left = list(reported)
    problems = []
    for v in expected:
        tol = VALUE_TOL * max(1.0, abs(v))
        best = min(range(len(left)), key=lambda i: abs(left[i] - v), default=None)
        if best is None or abs(left[best] - v) > tol:
            problems.append(f"{what}: no value near {v:.6g}")
        else:
            left.pop(best)
    if left and not problems:
        problems.append(f"{what}: {len(left)} unexpected value(s)")
    return problems


# ------------------------------------------------------------ per command

def check_solve(name: str, stdout: str, reference: dict) -> list[str]:
    try:
        report = json.loads(stdout)
        points = [[_complex(c) for c in p["coords"]] for p in report["points"]]
        values = [_complex(v) for v in report["critical_values"]]
        ranks = sorted(int(p["rank"]) for p in report["points"])
        found, exact = solve_stats(stdout)
        observed = {"expected": report["expected"], "found": report["found"], "exact": exact,
                    "verdict": report["verdict"], "ranks": ranks}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"solve {name}: unreadable report ({exc})"]
    problems = []
    if report["found"] != found:
        problems.append(f"solve {name}: found {report['found']} but {found} points listed")
    wanted = {**reference["solve"][name], **independent_solve(name)}
    for key, value in wanted.items():
        if observed[key] != value:
            problems.append(f"solve {name}: {key} is {observed[key]}, expected {value}")
    if found > report["expected"]:
        problems.append(f"solve {name}: {found} points exceed the expected {report['expected']}")

    rays = RAYS[name]
    try:
        errors = [log_gradient_error(rays, x) for x in points]
        at_points = [potential_value(rays, x) for x in points]
    except (ZeroDivisionError, OverflowError):
        return problems + [f"solve {name}: a point lies off the torus"]
    for x, err in zip(points, errors):
        if not err <= GRAD_TOL:
            problems.append(f"solve {name}: point {x} is not critical (relative gradient {err:.3g})")
    for i in range(len(points)):
        for j in range(i):
            if all(abs(a - b) <= DISTINCT_TOL * max(1.0, abs(a)) for a, b in zip(points[i], points[j])):
                problems.append(f"solve {name}: points {j} and {i} coincide")
    problems += _match_values(at_points, values, f"solve {name} values")
    closed_form = independent_values(name)
    if closed_form is not None:
        problems += _match_values(closed_form, values, f"solve {name} closed-form values")
    if name == "u8":
        anchor = [p for p in report["points"]
                  if [_complex(c) for c in p["coords"]] == [-1, -1, -1, 1]]
        if not anchor or anchor[0]["residual"] != 0 or anchor[0]["rank"] != 3:
            problems.append("solve u8: (-1,-1,-1,1) is not reported exact with rank 3")
    return problems


def check_spectrum(name: str, stdout: str) -> list[str]:
    try:
        rows = json.loads(stdout)["values"]
        values = [complex(float(r[0]), float(r[1])) for r in rows]
        flags = [r[3] for r in rows]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"spectrum {name}: unreadable ({exc})"]
    problems = _match_values(independent_values(name), values, f"spectrum {name}")
    if any(flags):
        problems.append(f"spectrum {name}: a nondegenerate value is flagged degenerate")
    return problems


def check_check(name: str, stdout: str, reference: dict) -> list[str]:
    fields = parse_check(stdout)
    wanted = {**reference["check"][name], **independent_check(name)}
    return [f"check {name}: {key} is {fields.get(key)!r}, expected {value!r}"
            for key, value in wanted.items() if fields.get(key) != value]


def check_output(kind: str, subject: str, stdout: str, reference: dict) -> list[str]:
    """Problems with one command's stdout; empty when it is right."""
    if not stdout.strip():
        return [f"{kind} {subject}: empty stdout"]
    if kind == "solve":
        return check_solve(subject, stdout, reference)
    if kind == "spectrum":
        return check_spectrum(subject, stdout)
    if kind == "check":
        return check_check(subject, stdout, reference)
    if kind == "presentation":
        try:
            same = json.loads(stdout) == reference["presentation"][subject]
        except ValueError:
            same = False
        return [] if same else [f"presentation {subject}: differs from the reference"]
    if kind in ("fan", "valuations"):
        same = stdout == reference[kind][subject]
        return [] if same else [f"{kind} {subject}: differs from the reference"]
    raise ValueError(f"no check for command kind {kind!r}")

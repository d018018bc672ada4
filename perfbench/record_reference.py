"""Write reference.json: the recorded answers that `checks.py` has no
independent source for.

Usage: python3 perfbench/record_reference.py

Run it only when an output change is intended and explained. Each solve is
recorded at two solver seeds and must agree, so a recorded count never
depends on the seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, workloads  # noqa: E402
from perfbench.inputs import RAYS  # noqa: E402

SOLVES = {**{name: [] for name in workloads.SWEEP_ENTRIES}, "u8": ["--starts", "4800"],
          "bl_points_5": ["--starts", "600"]}


def cli(*argv: str) -> str:
    proc = subprocess.run([sys.executable, "-c", "from toricqh.cli import main; main()", *argv],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def solve_record(name: str, seed: int) -> dict:
    out = cli("solve", name, "--seed", str(seed), *SOLVES[name], "--json")
    report = json.loads(out)
    found, exact = checks.solve_stats(out)
    return {"expected": report["expected"], "found": found, "exact": exact,
            "verdict": report["verdict"], "ranks": sorted(p["rank"] for p in report["points"])}


def main() -> None:
    reference = {
        "check": {name: checks.parse_check(cli("check", name)) for name in RAYS},
        "solve": {},
        "fan": {name: cli("fan", name) for name in ("u8", "bl_points_5")},
        "presentation": {name: json.loads(cli("presentation", name, "--json")) for name in ("u8", "bl_points_5")},
        "valuations": {f"{a} {b}": cli("valuations", "--alpha", a, "--beta", b)
                       for a, b in workloads.VALUATION_PARAMS},
    }
    for name in SOLVES:
        first, second = solve_record(name, 1), solve_record(name, 2)
        if first != second:
            raise SystemExit(f"solve {name} differs between seeds: {first} vs {second}")
        reference["solve"][name] = first
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

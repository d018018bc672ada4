"""The answer manifest of `solve`: the canonical answer of each command in
`COMMANDS`, written to tests/data/answers.json and checked by
tests/test_answers.py.

An answer is the report's verdict, found count and starts run, and per point
its Hessian rank, `exact` flag, basin and the coordinates and critical value
rounded by `value_key`; a solve that raises answers with its error. Rounding
at 1e-9 keeps the file independent of the last bits of the floating-point
kernel.

A change that alters answers re-records the manifest from the repository
root and names the changed commands:

    PYTHONPATH=src python tests/record_answers.py
"""

import json
import random
from pathlib import Path

from toricqh import corpus
from toricqh.errors import DomainError
from toricqh.fan import kushnirenko_bound
from toricqh.potential import build_potential
from toricqh.solver import SolverConfig, solve, value_key

MANIFEST = Path(__file__).parent / "data" / "answers.json"

# bl_points_5 --starts 600 finds 59 of its 60 points at these seeds, found
# among the first 1,000 random.Random(7).randrange(2**31) seeds and in the
# geometry benchmark; the first 45 seeds of that sequence are the others.
_MISSES = (309474798, 1799361519, 78009937, 1856188577, 818979512)
_rng = random.Random(7)
_OTHERS = tuple(_rng.randrange(2**31) for _ in range(45))

# Default-budget solves at coefficients 10**uniform(-2, 2), draw d seeded by
# f"{name} {d}" and solved at --seed d.
_SPREAD = ("cp2", "cp3", "cp4", "cp5", "cp6", "cp1xcp1", "bl1_cp2", "bl2_cp2", "bl3_cp2", "u8")


def _coeffs(name, draw) -> tuple[float, ...]:
    rng = random.Random(f"{name} {draw}")
    return tuple(10 ** rng.uniform(-2, 2) for _ in corpus.build(name)[0].rays)


COMMANDS = (
    [(e.name, seed, None, None) for e in corpus.catalog() for seed in range(10)]
    + [("u8", seed, 4800, None) for seed in range(10)]
    + [("bl_points_5", seed, 600, None) for seed in _MISSES + _OTHERS]
    + [(name, draw, None, _coeffs(name, draw)) for name in _SPREAD for draw in range(6)]
)


def command(name, seed, starts, coeffs) -> str:
    return (f"solve {name} --seed {seed}" + (f" --starts {starts}" if starts is not None else "")
            + (f" --coeffs {','.join(map(repr, coeffs))}" if coeffs is not None else ""))


def answer(name, seed, starts, coeffs):
    """The answer of one command, as it reads back from JSON."""
    fan, F = corpus.build(name)
    try:
        report = solve(build_potential(fan, F, coeffs), kushnirenko_bound(fan), SolverConfig(seed, starts))
    except DomainError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return json.loads(json.dumps({
        "verdict": report.verdict.value,
        "found": report.found_count,
        "starts": report.starts,
        "points": [
            {"rank": p.hessian_rank, "exact": p.exact, "basin": p.cluster_size,
             "coords": [value_key(z) for z in p.coords], "value": value_key(p.value)}
            for p in report.points
        ],
    }))


if __name__ == "__main__":
    answers = {command(*c): answer(*c) for c in COMMANDS}
    lines = (f"{json.dumps(c)}: {json.dumps(a, sort_keys=True)}" for c, a in sorted(answers.items()))
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one command a line
    print(f"wrote {len(answers)} answers to {MANIFEST}")

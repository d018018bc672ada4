"""The toricqh benchmark.

Usage:
    python3 perfbench/run.py --workload {solve_u8,solve_sweep,geometry}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Every command runs the CLI as a user
does, in a fresh interpreter (`python -c "from toricqh.cli import main;
main()" ...` with PYTHONPATH=src), and its output is checked. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it, starting with "meta ", holds unmeasured
context (source size, machine, versions, the reason for the workload).

--trace 0 times whole passes of the workload for about S seconds and
reports the end-to-end metrics, as times adjusted to a reference speed of
the vCPU each command ran on (see speed.py). --trace 1 runs one pass untraced and the
same pass again under `traced_cli.py`, and reports the per-layer metrics.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, layers, speed, workloads  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
CLI = "from toricqh.cli import main; main()"
# Fresh interpreters timed through `import toricqh`, half before the passes and
# half after them, so that setup_s, the median of their adjusted times, spans the run.
SETUP_RUNS = 5
# Every run must end within 180 s; no command starts that could not finish by this.
HARD_LIMIT_S = 170.0


@dataclass
class Outcome:
    wall_s: float
    adjusted_s: float  # wall_s at the reference speed of the vCPU, see speed.py
    spawn_ns: int
    problems: list[str]
    stdout: str


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _remaining(t_start: float) -> float:
    return HARD_LIMIT_S - (time.perf_counter() - t_start)


def time_setup(t_start: float) -> list[speed.Timed]:
    times = []
    for _ in range(SETUP_RUNS):
        timed = speed.run([sys.executable, "-c", "import toricqh"], env=_env(), cwd=ROOT,
                          timeout=max(1.0, _remaining(t_start)))
        if timed.returncode != 0:
            raise RuntimeError(f"`import toricqh` failed: exit {timed.returncode}")
        times.append(timed)
    return times


def run_command(cmd: workloads.Command, reference: dict, t_start: float, spans_file=None) -> Outcome:
    """One command in a fresh interpreter, checked against the references."""
    if spans_file is None:
        argv = [sys.executable, "-c", CLI, *cmd.argv]
    else:
        argv = [sys.executable, str(TRACED_CLI), str(spans_file), *cmd.argv]
    timed = speed.run(argv, env=_env(), cwd=ROOT, timeout=max(1.0, _remaining(t_start)))
    if timed.returncode is None:
        return Outcome(timed.wall_s, timed.adjusted_s, timed.spawn_ns, [f"{' '.join(cmd.argv)}: timed out"], "")
    problems = [] if timed.returncode == 0 else [f"{' '.join(cmd.argv)}: exit {timed.returncode}"]
    problems += checks.check_output(cmd.kind, cmd.subject, timed.stdout, reference)
    return Outcome(timed.wall_s, timed.adjusted_s, timed.spawn_ns, problems, timed.stdout)


def solve_points(cmds, outcomes) -> tuple[int, int]:
    found = exact = 0
    for cmd, out in zip(cmds, outcomes):
        if cmd.kind == "solve" and not out.problems:
            f, e = checks.solve_stats(out.stdout)
            found, exact = found + f, exact + e
    return found, exact


def measure(workload: str, rng: random.Random, seconds: int, workdir: Path, reference: dict,
            t_start: float):
    """Whole passes, each command in a fresh interpreter, until another pass
    of median length would overrun `seconds`. Returns (metrics, outcomes, pass walls).

    adjusted_wall_s sums, over the commands of a pass, each command's median
    adjusted time (its wall time at the reference speed of its vCPU, see
    speed.py) across the passes, so that a burst of machine noise during one
    command moves it less than a median of whole passes would.
    """
    setup = time_setup(t_start)
    walls, found, exact, outcomes = [], [], [], []
    by_position: list[list[float]] = []
    t0 = time.perf_counter()
    while True:
        cmds = workloads.make_pass(workload, rng, workdir)
        t = time.perf_counter()
        done = [run_command(c, reference, t_start) for c in cmds]
        walls.append(time.perf_counter() - t)
        by_position += [[] for _ in range(len(done) - len(by_position))]
        for times, out in zip(by_position, done):
            times.append(out.adjusted_s)
        outcomes += [(c, o) for c, o in zip(cmds, done)]
        f, e = solve_points(cmds, done)
        found.append(f)
        exact.append(e)
        step = statistics.median(walls)
        if time.perf_counter() - t0 + step > seconds or step > _remaining(t_start):
            break
    setup_s = statistics.median(t.adjusted_s for t in setup + time_setup(t_start))
    failed = sum(1 for _, o in outcomes if o.problems)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "adjusted_wall_s": (sum(statistics.median(times) for times in by_position), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "ok_ratio": ((len(outcomes) - failed) / len(outcomes), "ratio"),
        "points_found": (statistics.median(found), "count"),
        "exact_points": (statistics.median(exact), "count"),
    }
    return metrics, outcomes, walls


def trace(workload: str, rng: random.Random, workdir: Path, reference: dict, t_start: float):
    """One pass untraced, then the same commands traced; both walls are sums of
    command walls. Returns (metrics, outcomes, pass walls)."""
    setup_s = statistics.median(t.wall_s for t in time_setup(t_start))
    cmds = workloads.make_pass(workload, rng, workdir)
    plain = [run_command(c, reference, t_start) for c in cmds]
    untraced_wall = sum(o.wall_s for o in plain)

    totals = layers.empty_totals()
    startup = 0.0
    traced = []
    for i, cmd in enumerate(cmds):
        spans_file = workdir / f"spans-{i}.json"
        out = run_command(cmd, reference, t_start, spans_file)
        traced.append(out)
        if spans_file.exists():
            doc = json.loads(spans_file.read_text(encoding="utf-8"))
            startup += (doc["imported_ns"] - out.spawn_ns) / 1e9
            layers.add_command(totals, doc)
        else:
            out.problems.append(f"{' '.join(cmd.argv)}: no spans written")
    traced_wall = sum(o.wall_s for o in traced)

    metrics = layers.metrics(totals, setup_s=setup_s, commands=len(cmds), untraced_wall_s=untraced_wall,
                             traced_wall_s=traced_wall, startup_s=startup)
    return metrics, [(c, o) for c, o in zip(cmds + cmds, plain + traced)], [untraced_wall, traced_wall]


def meta(args, walls, outcomes) -> dict:
    per_command: dict[str, list[float]] = {}
    adjusted: dict[str, list[float]] = {}
    for cmd, out in outcomes:
        label = f"{cmd.kind} {cmd.subject}"
        per_command.setdefault(label, []).append(out.wall_s)
        adjusted.setdefault(label, []).append(out.adjusted_s)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_walls_s": [round(w, 4) for w in walls],
        "command_median_s": {k: round(statistics.median(v), 4) for k, v in per_command.items()},
        "command_median_adjusted_s": {k: round(statistics.median(v), 4) for k, v in adjusted.items()},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t_start = time.perf_counter()
    if not (SRC / "toricqh" / "cli.py").is_file():
        print(f"error: no toricqh sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    reference = checks.load_reference()
    rng = random.Random(f"{args.workload}:{args.seed}")
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            metrics, outcomes, walls = trace(args.workload, rng, workdir, reference, t_start)
        else:
            metrics, outcomes, walls = measure(args.workload, rng, args.seconds, workdir, reference, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for _, o in outcomes if o.problems]
    for out in failed:
        for problem in out.problems:
            print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:12.6g} {unit}")
    print("meta " + json.dumps(meta(args, walls, outcomes), sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

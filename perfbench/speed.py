"""Running a command while probing the speed of the CPU it runs on.

On a shared host a vCPU runs the same code 1.5 to 3 times slower for stretches
of seconds to tens of minutes, as neighbours load the hardware under it.
The guest cannot see this: the slowed process's CPU time grows with its wall
time, steal time stays near 0 and there are no hardware counters. Raw wall
times then spread by a quarter from run to run, more than any useful bound.

So while a command runs, a thread of the benchmark wakes every PROBE_PERIOD_S,
moves itself onto the vCPU the command is on and times a fixed piece of work
there (`_probe`). The command's adjusted wall time is its wall time times the
mean of REFERENCE_S / (probe time) over those samples: the time the command
would have taken had its vCPU kept running the probe in REFERENCE_S. The probe
takes a few per cent of that vCPU, the same share in every run.
"""

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

PROBE_PERIOD_S = 0.02
# About the probe's time beside a running command on an unloaded 2.0 GHz Xeon
# vCPU. It sets only the scale of adjusted times, which compare between runs on
# the same kind of host.
REFERENCE_S = 0.0003


@dataclass
class Timed:
    returncode: int | None  # None when the command timed out and was killed
    stdout: str
    spawn_ns: int
    wall_s: float
    adjusted_s: float


# Fixed inputs of the probe: a small Laurent system, rationals and complex tuples.
_EXPONENTS = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 0], [0, -1, 1]], dtype=float)
_COEFFS = np.ones(6, dtype=complex)
_U0 = np.array([0.1 + 0.2j, -0.3 + 0.1j, 0.05 - 0.2j])
_RATIONALS = [Fraction(i + 1, 2 * i + 3) for i in range(12)]
_X = tuple(complex(i, -i) for i in range(4))
_Y = tuple(complex(i, -i) * (1 + 1e-9) for i in range(4))


def _probe() -> float:
    """Time a fixed mix of the kinds of work the CLI does: small numpy Newton
    steps, Fraction arithmetic and complex comparisons in Python loops. It
    shares none of the CLI's code, so a faster CLI does not speed it up."""
    t = time.perf_counter()
    u = _U0
    for _ in range(3):
        terms = _COEFFS * np.exp(_EXPONENTS @ u)
        grad = _EXPONENTS.T @ terms
        hess = _EXPONENTS.T @ (terms[:, None] * _EXPONENTS)
        u = u + 0.01 * np.linalg.solve(hess, -grad)
    acc = Fraction(0)
    for q in _RATIONALS:
        acc += q * _RATIONALS[3] - q
    close = 0
    for _ in range(30):
        close += all(abs(a - b) <= 1e-6 * max(abs(a), abs(b)) for a, b in zip(_X, _Y))
    return time.perf_counter() - t


def _cpu_of(pid: int) -> int | None:
    """The CPU the process last ran on (field 39 of /proc/<pid>/stat)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def run(argv: list[str], *, env: dict[str, str], cwd, timeout: float) -> Timed:
    """Run argv to the end (killed after `timeout` s), probing its vCPU's speed."""
    samples: list[float] = []
    spawn = time.perf_counter_ns()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    done = threading.Event()

    def probe() -> None:
        while not done.is_set():
            cpu = _cpu_of(proc.pid)
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})  # this thread only
                samples.append(_probe())
            done.wait(PROBE_PERIOD_S)

    prober = threading.Thread(target=probe, daemon=True)
    prober.start()
    try:
        stdout, _ = proc.communicate(timeout=timeout)
        returncode = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
        returncode = None
    end = time.perf_counter_ns()
    done.set()
    prober.join()
    wall = (end - spawn) / 1e9
    factor = sum(REFERENCE_S / s for s in samples) / len(samples) if samples else 1.0
    return Timed(returncode, stdout, spawn, wall, wall * factor)

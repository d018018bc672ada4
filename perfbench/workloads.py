"""The three workloads, as lists of CLI commands per pass.

Each workload is a closed loop with one client: the commands of a pass run
one after another, each in a fresh interpreter, and passes repeat. The seed
picks the solver seeds, the valuation parameters and the geometry input
files; the program sees only the generated arguments and files.
"""

import random
from dataclasses import dataclass
from pathlib import Path

from perfbench.inputs import BL_POINTS, FANO, polytope_file

SWEEP_ENTRIES = ("cp1", "cp2", "cp3", "cp4", "cp5", "cp6", "cp1xcp1", "bl1_cp2", "bl2_cp2", "bl3_cp2")
SPECTRUM_ENTRIES = ("cp3", "cp1xcp1")
# (alpha, beta) pairs with recorded reports: three with two valuation classes
# (alpha/beta < 3) and the boundary alpha/beta = 3, which has one.
VALUATION_PARAMS = (("2", "1"), ("3", "2"), ("5", "2"), ("3", "1"))

WHY = {
    "solve_u8": "the paper's main example: 4800 Newton starts and an 18-cluster merge in the solver layer dominate one long command",
    "solve_sweep": "many short solves on small Fano entries: Newton-heavy, clustering-light, and start-up is a third to a half of each command",
    "geometry": "exact Fraction geometry only (hull, lattice-point scan, Kushnirenko volume, fans, presentations) on seeded polytope files",
}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kind: str  # the CLI subcommand whose output check applies
    subject: str  # the catalog entry (or valuation parameters) it is checked against


def _solve_u8(rng: random.Random, workdir: Path) -> list[Command]:
    seed = str(rng.randrange(2**31))
    return [Command(("solve", "u8", "--seed", seed, "--starts", "4800", "--json"), "solve", "u8")]


def _solve_sweep(rng: random.Random, workdir: Path) -> list[Command]:
    seed = str(rng.randrange(2**31))
    cmds = [Command(("solve", name, "--seed", seed, "--json"), "solve", name) for name in SWEEP_ENTRIES]
    cmds += [Command(("spectrum", name, "--seed", seed, "--json"), "spectrum", name) for name in SPECTRUM_ENTRIES]
    alpha, beta = rng.choice(VALUATION_PARAMS)
    cmds.append(Command(("valuations", "--alpha", alpha, "--beta", beta), "valuations", f"{alpha} {beta}"))
    return cmds


def _geometry(rng: random.Random, workdir: Path) -> list[Command]:
    cmds = []
    for name in FANO:
        path = workdir / f"{name}.txt"
        path.write_text(polytope_file(name, rng), encoding="utf-8")
        cmds.append(Command(("check", str(path)), "check", name))
    cmds += [Command(("check", name), "check", name) for name in BL_POINTS]
    for name in ("u8", "bl_points_5"):
        cmds.append(Command(("fan", name), "fan", name))
        cmds.append(Command(("presentation", name, "--json"), "presentation", name))
    seed = str(rng.randrange(2**31))
    cmds.append(Command(("solve", "bl_points_5", "--seed", seed, "--starts", "600", "--json"), "solve", "bl_points_5"))
    return cmds


PASSES = {"solve_u8": _solve_u8, "solve_sweep": _solve_sweep, "geometry": _geometry}


def make_pass(workload: str, rng: random.Random, workdir: Path) -> list[Command]:
    """The commands of one pass; writes the pass's input files into workdir."""
    return PASSES[workload](rng, workdir)

"""Per-layer metrics from the spans that `traced_cli.py` writes.

A span's self time is its duration minus the time its child spans cover.
Every span nests inside the root span around `cli.main`, so the layers' self
times add up to the time the command spent inside the CLI; start-up before
that and exit after it are accounted separately by the runner.
"""

import base64
from array import array

# The package modules; `_exact` is reported as `exact`.
LAYERS = ("cli", "corpus", "exact", "lattice", "fan", "support", "batyrev",
          "potential", "solver", "spectra", "newton")

# Inclusive time of the outermost calls into these functions (a call nested
# in another call of the same group is not counted twice).
FUNCTION_TIMES = {
    "solver.solve_s": ("solver.solve",),
    "lattice.hull_s": ("lattice.convex_hull_facets",),
    "lattice.points_s": ("lattice.lattice_points", "lattice.interior_lattice_points"),
    "lattice.volume_s": ("lattice.normalized_volume",),
    "fan.build_s": ("fan.fan_from_reflexive", "fan.Fan.from_maximal_cones", "fan.fan_product"),
    "fan.kushnirenko_s": ("fan.kushnirenko_bound",),
    "fan.collections_s": ("fan.primitive_collections",),
}
FUNCTION_CALLS = {"lattice.hull_calls": ("lattice.convex_hull_facets",)}
# "<layer>.s": inclusive time from entering the layer until leaving it.
INCLUSIVE_LAYERS = ("potential", "support", "batyrev", "spectra", "newton", "corpus")
COUNTERS = ("solver.starts", "solver.converged")


def empty_totals() -> dict[str, float]:
    totals = {f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("calls", "self_s")}
    totals.update({name: 0 for name in (*FUNCTION_TIMES, *FUNCTION_CALLS, *COUNTERS)})
    totals.update({f"{layer}.s": 0 for layer in INCLUSIVE_LAYERS})
    totals["inside_cli_s"] = 0
    return totals


def add_command(totals: dict[str, float], doc: dict) -> None:
    """Add one traced command's spans (the JSON `traced_cli.py` wrote) to totals."""
    names = doc["names"]
    flat = array("q")
    flat.frombytes(base64.b64decode(doc["spans"]))
    fids, parents, starts, ends = flat[0::4], flat[1::4], flat[2::4], flat[3::4]
    layer_of = [name.split(".", 1)[0] for name in names]
    groups = dict(FUNCTION_TIMES)
    for layer in INCLUSIVE_LAYERS:
        groups[f"{layer}.s"] = [name for name in names if name.startswith(f"{layer}.")]
    # For each function: the time metrics it feeds, each with its group's bitmask.
    feeds = [[] for _ in names]
    for metric, funcs in groups.items():
        mask = sum(1 << i for i, name in enumerate(names) if name in funcs)
        for i, name in enumerate(names):
            if name in funcs:
                feeds[i].append((metric, mask))
    counted = {names.index(f): metric for metric, funcs in FUNCTION_CALLS.items() for f in funcs if f in names}

    n = len(fids)
    child = [0] * n
    ancestors = [0] * n  # bitmask of the functions on the call stack above each span
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
            ancestors[i] = ancestors[p] | (1 << fids[p])
    for i in range(n):
        fid, dur = fids[i], ends[i] - starts[i]
        layer = layer_of[fid]
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.self_s"] += (dur - child[i]) / 1e9
        if parents[i] < 0:
            totals["inside_cli_s"] += dur / 1e9
        for metric, mask in feeds[fid]:
            if not mask & ancestors[i]:
                totals[metric] += dur / 1e9
        if fid in counted:
            totals[counted[fid]] += 1
    for name in COUNTERS:
        totals[name] += doc["counters"][name]


def unit(name: str) -> str:
    return "s" if name.endswith(("_s", ".s")) else "count"


def metrics(totals: dict[str, float], *, setup_s: float, commands: int, untraced_wall_s: float,
            traced_wall_s: float, startup_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    startup_s is the traced commands' time from spawn until `import toricqh`
    finished; trace.unaccounted_s is what start-up and the layers' self times
    leave of the traced wall time (wrapping, writing spans, exit).
    """
    out = {name: (value, unit(name)) for name, value in totals.items() if name != "inside_cli_s"}
    starts = totals["solver.starts"]
    out["solver.converged_ratio"] = (totals["solver.converged"] / starts if starts else 0.0, "ratio")
    out["cli.startup_share"] = (setup_s * commands / untraced_wall_s, "ratio")
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    out["trace.startup_s"] = (startup_s, "s")
    out["trace.unaccounted_s"] = (traced_wall_s - startup_s - totals["inside_cli_s"], "s")
    return out

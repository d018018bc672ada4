"""Run one toricqh command with a span around every call into a layer.

Usage: python perfbench/traced_cli.py SPANS_FILE CLI_ARG...

Every public module-level function and public classmethod of the layer
modules is wrapped, both as the module attribute and under every name
another toricqh module imported it as (for example `lattice` imports `dot`
from `_exact`). Spans stay in memory as (function, parent span, start, end)
and are written to SPANS_FILE when the command ends, together with the time
the imports finished and two solver counts. The command's stdout, stderr
and exit code are those of the untraced CLI.
"""

import base64
import json
import sys
import time
from array import array

import toricqh  # noqa: F401  (imports every layer, as the CLI's start-up does)

T_IMPORTED = time.perf_counter_ns()

import importlib  # noqa: E402

LAYERS = ("cli", "corpus", "_exact", "lattice", "fan", "support", "batyrev",
          "potential", "solver", "spectra", "newton")

names: list[str] = []
spans = array("q")  # flat: function index, parent span index, start ns, end ns
stack: list[int] = []
counters = {"solver.starts": 0, "solver.converged": 0}


def _count_solve(args, kwargs, report):
    """Starts requested and starts that ended in a reported point."""
    expected = args[1] if len(args) > 1 else kwargs["expected_count"]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    starts = cfg.starts if cfg is not None and cfg.starts is not None else 200 * expected
    counters["solver.starts"] += starts
    counters["solver.converged"] += sum(p.cluster_size for p in report.points)


def _wrap(fn, label, after=None):
    fid = len(names)
    names.append(label)
    now = time.perf_counter_ns

    def traced(*args, **kwargs):
        i = len(spans) // 4
        spans.extend((fid, stack[-1] if stack else -1, now(), 0))
        stack.append(i)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[4 * i + 3] = now()
            stack.pop()
        if after is not None:
            after(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install() -> None:
    modules = {}
    for name in LAYERS:
        try:
            modules[name] = importlib.import_module(f"toricqh.{name}")
        except ModuleNotFoundError:  # a layer that no longer exists reads 0
            pass
    replaced = {}
    for layer, mod in modules.items():
        prefix = layer.lstrip("_")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for cattr, member in list(vars(obj).items()):
                    if isinstance(member, classmethod) and not cattr.startswith("_"):
                        wrapped = _wrap(member.__func__, f"{prefix}.{attr}.{cattr}")
                        setattr(obj, cattr, classmethod(wrapped))
            elif callable(obj):
                after = _count_solve if (layer, attr) == ("solver", "solve") else None
                replaced[id(obj)] = _wrap(obj, f"{prefix}.{attr}", after)
    for mod in [m for n, m in sys.modules.items() if n == "toricqh" or n.startswith("toricqh.")]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced and callable(obj):
                setattr(mod, attr, replaced[id(obj)])


def main() -> None:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    install()
    from toricqh import cli

    sys.argv = ["toricqh"] + argv
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"imported_ns": T_IMPORTED, "names": names, "counters": counters,
                       "spans": base64.b64encode(spans.tobytes()).decode("ascii")}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()

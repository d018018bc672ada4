"""Command-line interface.

One table, COMMANDS, gives each command's handler, help line, target and
options; `parse_args` reads argv against it, and the help is printed from it.
Targets are catalog entry names or paths to vertex-list files (rows are
ray-polytope vertices; --primal reads a file's rows, or a catalog entry's
rays, as moment-polytope vertices). Exit codes: 0 success or help, 1 domain
error or a closed stdout, 2 usage error, with a `parse error:` line on stderr.

The layers every target needs load with this module; batyrev, potential,
newton, and solver with numpy, load in the commands that use them.
"""

import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import corpus, support
from .errors import DomainError, OriginNotInterior, ParseError
from .fan import fan_from_reflexive, is_complete, is_smooth, kushnirenko_bound, primitive_collections
from .lattice import Polytope, dual_polytope, is_delzant, is_reflexive, lattice_points


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fmt_complex(z: complex) -> str:
    return _fmt(z.real) if z.imag == 0 else f"{_fmt(z.real)}{z.imag:+.10g}i"


def _fmt_value(z: complex) -> str:
    """A critical value with each part that the solver's sort key rounds to 0
    printed as 0: that part is evaluation noise."""
    from .solver import value_key

    real, imag = value_key(z)
    return _fmt_complex(complex(z.real if real else 0.0, z.imag if imag else 0.0))


def _resolve(target: str):
    """(catalog entry or None, the target's rows: a file's rows or a catalog
    entry's rays, on whichever side --primal picks). Neither hulled nor
    dualised here: a catalog entry's own fan reads no hull, and a Delzant
    moment polytope with the origin on its boundary has no dual. A catalog
    name wins over a directory of that name."""
    path = Path(target)
    if not path.exists() or path.is_dir() and any(e.name == target for e in corpus.catalog()):
        entry = corpus.entry(target)  # raises UnknownInput for junk targets
        return entry, entry.dual_vertices
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {target}: {getattr(exc, 'strerror', None) or exc}") from None
    return None, corpus.parse_polytope(text)


def _fan(entry, rows, primal: bool):
    """(fan, support function): a catalog name's own fan, a Delzant moment
    polytope's normal fan with its facet offsets, or else the face fan of the
    ray polytope with the monotone support."""
    if entry is not None and not primal:
        return corpus.build(entry.name)
    P = Polytope.from_points(rows)
    if primal and is_delzant(P)[0]:
        return support.support_from_polytope(P)
    fan = fan_from_reflexive(dual_polytope(P) if primal else P)
    return fan, support.monotone_support(fan)


def _target(args):
    """(label, fan, support function) of the command's target."""
    entry, rows = _resolve(args.target)
    fan, F = _fan(entry, rows, args.primal)
    label = args.target if entry is None or args.primal else f"{entry.name} ({entry.provenance})"
    return label, fan, F


def _parse_values(text: str, expected: int, what: str, kind) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != expected:
        raise ParseError(f"{what}: expected {expected} values, got {len(parts)}")
    try:
        return tuple(kind(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what}: not a list of numbers: {text!r}") from None


def _potential(args):
    """(label, fan, superpotential) of the command's target and --coeffs."""
    from . import potential

    label, fan, F = _target(args)
    coeffs = None if args.coeffs is None else _parse_values(args.coeffs, len(fan.rays), "--coeffs", float)
    return label, fan, potential.build_potential(fan, F, coeffs)


def _cmd_catalog(args) -> int:
    for e in corpus.catalog():
        print(f"{e.name:14s} dim {e.dim}  {e.provenance}")
    return 0


def _cmd_check(args) -> int:
    entry, rows = _resolve(args.target)
    P = Polytope.from_points(rows)
    print(f"input: {args.target}")
    # a Delzant moment polytope has its normal fan whether or not its ray polytope exists or is reflexive
    has_fan = args.primal and is_delzant(P)[0]
    try:
        ray_poly = dual_polytope(P) if args.primal else P
    except OriginNotInterior as exc:
        if not has_fan:
            raise
        print("ray polytope (dual side):")
        print(f"  none: the moment polytope has no polar dual ({exc})")
    else:
        refl, why = is_reflexive(ray_poly)
        print("ray polytope (dual side):")
        print(f"  vertices: {len(ray_poly.vertices)}")
        print(f"  facets: {len(ray_poly.facets)}")
        print(f"  lattice points: {len(lattice_points(ray_poly))}")
        print(f"  reflexive: {'yes' if refl else f'no ({why})'}")
        if not refl and not has_fan:
            raise DomainError(f"not reflexive: {why}")
    moment = P if args.primal else dual_polytope(P)
    delz, dwhy = is_delzant(moment)
    print("moment polytope (primal side):")
    print(f"  vertices: {len(moment.vertices)}")
    print(f"  facets: {len(moment.facets)}")
    print(f"  lattice points: {len(lattice_points(moment))}")
    print(f"  delzant: {'yes' if delz else f'no ({dwhy})'}")
    fan, _ = _fan(entry, rows, args.primal)
    smooth, offender = is_smooth(fan)
    convex, _ = support.is_strictly_convex(support.monotone_support(fan))
    print(f"fan: {len(fan.rays)} rays, {len(fan.maximal_cones)} maximal cones, "
          f"smooth: {'yes' if smooth else f'no (cone {offender})'}, complete: {'yes' if is_complete(fan) else 'no'}, "
          f"monotone class ample: {'yes' if convex else 'no'}")
    return 0


def _cmd_fan(args) -> int:
    label, fan, _ = _target(args)
    print(f"input: {label}")
    print(f"rays ({len(fan.rays)}):")
    for i, ray in enumerate(fan.rays):
        print(f"  {i}: {ray}")
    print("cone counts:")
    for k in sorted(fan.cones):
        print(f"  dim {k}: {len(fan.cones[k])}")
    collections = primitive_collections(fan)
    print(f"primitive collections ({len(collections)}):")
    for c in collections:
        print(f"  {c}")
    return 0


def _cmd_presentation(args) -> int:
    from . import batyrev

    label, fan, F = _target(args)
    if args.support is not None:
        F = support.SupportFunction(fan, _parse_values(args.support, len(fan.rays), "--support", Fraction))
        ok, witness = support.is_strictly_convex(F)
        if not ok:
            raise DomainError(f"support values are not strictly convex (cone {witness[0]}, ray {witness[1]})")
    pres = batyrev.presentation(fan, F)
    if args.json:
        print(batyrev.to_json(pres))
    else:
        print(f"input: {label}")
        sys.stdout.write(batyrev.render_text(pres))
    return 0


def _cmd_potential(args) -> int:
    from . import potential

    label, _, W = _potential(args)
    print(f"input: {label}")
    print("W = " + potential.render(W, symbolic=args.symbolic))
    return 0


def _solve_target(args):
    from . import solver  # numpy loads only for solve and spectrum

    label, fan, W = _potential(args)
    try:
        cfg = solver.SolverConfig(seed=args.seed, starts=args.starts)
    except ValueError as exc:  # each message opens with the field it rejects
        raise ParseError(f"--{str(exc).split()[0]}: {exc}") from None
    expected = kushnirenko_bound(fan)
    try:
        return label, cfg, solver.solve(W, expected, cfg)
    except MemoryError:  # `_starts` draws each start's row at once
        raise DomainError(f"not enough memory to run {cfg.budget(expected)} Newton starts; "
                          "give a smaller --starts") from None


def _cmd_solve(args) -> int:
    from . import solver

    label, cfg, report = _solve_target(args)
    if args.json:
        print(solver.report_to_json(report))
        return 0
    print(f"input: {label}")
    print(f"expected critical points: {report.expected_count}")
    print(f"found: {report.found_count} (deficit {report.deficit})")
    print(f"starts: {report.starts} of at most {cfg.budget(report.expected_count)}")
    print("points:")
    for p in report.points:
        kind = "nondegenerate" if p.nondegenerate else "degenerate"
        residual = "0 (exact)" if p.exact and p.residual == 0 else _fmt(p.residual)
        print(f"  ({', '.join(map(_fmt_complex, p.coords))})  residual={residual}  rank={p.hessian_rank}  "
              f"{kind}  basin={p.cluster_size}")
    print(f"verdict: {report.verdict.value}")
    print(f"justification: {solver.classify(report)}")
    print("critical values:")
    for z in report.critical_values:
        print(f"  {_fmt_value(z)}")
    return 0


def _cmd_spectrum(args) -> int:
    from . import solver

    label, _, report = _solve_target(args)
    if args.json:
        print(solver.spectrum_to_json(report))
        return 0
    print(f"input: {label}")
    print("eigenvalues of multiplication by q^-1 c1 (critical values of W):")
    for value, degenerate in report.spectrum:
        flag = "  [degenerate, multiplicity lower bound 1]" if degenerate else ""
        print(f"  {_fmt_value(value)}{flag}")
    if report.deficit:
        print(f"note: deficit {report.deficit} of {report.expected_count} "
              "(multiplicity at degenerate points, or unlocated roots)")
    return 0


def _cmd_valuations(args) -> int:
    from .newton import quasimorphism_report

    alpha = _parse_values(args.alpha, 1, "--alpha", Fraction)[0]
    beta = _parse_values(args.beta, 1, "--beta", Fraction)[0]
    sys.stdout.write(quasimorphism_report(alpha, beta))
    return 0


# command -> (handler, help line, takes a target, options); an option maps to
# (bool for a flag, else its value's type; default, ... when it is required;
# help line)
_PRIMAL = {"--primal": (bool, False, "read the file's rows, or the catalog entry's rays, as moment-polytope vertices")}
_COEFFS = {**_PRIMAL, "--coeffs": (str, None, "comma-separated positive coefficients, one per ray")}
_JSON = {"--json": (bool, False, "print the report as JSON")}
_SOLVE = {**_COEFFS, "--seed": (int, 0, "seed of the Newton starts (default: 0)"), "--starts": (int, None, (
    "Newton starts (default: 200 per expected point, or 8 per point when those find all points nondegenerate)"))}
COMMANDS = {
    "catalog": (_cmd_catalog, "list built-in examples", False, {}),
    "check": (_cmd_check, "reflexivity / Delzant / smoothness report", True, _PRIMAL),
    "fan": (_cmd_fan, "rays, cone counts, primitive collections", True, _PRIMAL),
    "presentation": (_cmd_presentation, "quantized Stanley-Reisner presentation", True,
                     {**_PRIMAL, "--support": (str, None, "comma-separated rational values, one per ray"), **_JSON}),
    "potential": (_cmd_potential, "render the superpotential", True,
                  {**_COEFFS, "--symbolic": (bool, False, "show s-exponents")}),
    "solve": (_cmd_solve, "locate critical points and classify", True, {**_SOLVE, **_JSON}),
    "spectrum": (_cmd_spectrum, "critical values of the superpotential", True, {**_SOLVE, **_JSON}),
    "valuations": (_cmd_valuations, "blow-up family quasimorphism report", False,
                   {"--alpha": (str, ..., "the family's alpha, a rational"), "--beta": (str, ..., "its beta")}),
}


def _print_help(name) -> None:
    """Print the help of one command, or with name None of the program, from COMMANDS."""
    if name is None:
        head = "usage: toricqh COMMAND [-h] ...\n\nsemisimplicity of toric Fano quantum cohomology\n\ncommands:"
        rows = [(command, row[1]) for command, row in COMMANDS.items()]
    else:
        _, about, takes_target, options = COMMANDS[name]
        head = f"usage: toricqh {name}{' TARGET' * takes_target} [OPTION ...]\n\n{about}\n"
        rows = [("TARGET", "catalog entry or polytope file path")] * takes_target + [("-h, --help", "print this help")]
        rows += [(o if kind is bool else f"{o} {o[2:].upper()}", text) for o, (kind, _, text) in options.items()]
    print("\n".join([head, *(f"  {key:18}  {text}" for key, text in rows)]))


def parse_args(argv):
    """argv read against COMMANDS: the namespace a handler reads, with the handler
    as `func`, or None once help is printed. Options are spelled out in full, as
    --name value or --name=value, and a value may start with "-"."""
    name, rest = (argv[0] if argv else None), iter(argv[1:])
    if name in ("-h", "--help"):
        return _print_help(None)
    if name not in COMMANDS:
        raise ParseError(f"{'unknown command ' + repr(name) if argv else 'no command'}; "
                         f"choose from {', '.join(COMMANDS)}")
    func, _, takes_target, options = COMMANDS[name]
    args, positional = {o[2:]: default for o, (_, default, _) in options.items()}, []
    for arg in rest:
        flag, eq, value = arg.partition("=")
        kind = options[flag][0] if flag in options else None
        if arg in ("-h", "--help"):
            return _print_help(name)
        if arg[:1] != "-":
            positional.append(arg)
        elif kind is None or eq and kind is bool:
            raise ParseError(f"{name}: unknown option {arg!r}")
        elif kind is not bool and not eq and (value := next(rest, None)) is None:
            raise ParseError(f"{flag} needs a value")
        else:
            try:
                args[flag[2:]] = True if kind is bool else kind(value)
            except ValueError:
                raise ParseError(f"{flag}: not an integer: {value!r}") from None
    if len(positional) != takes_target:
        raise ParseError(f"{name}: takes {'one TARGET' if takes_target else 'no target'}, got {positional or 'none'}")
    if missing := [o for o, value in args.items() if value is ...]:
        raise ParseError(f"{name}: --{missing[0]} is required")
    return SimpleNamespace(command=name, func=func, **args, **{"target": positional[0]} if takes_target else {})


def run_cli(argv) -> int:
    try:
        args = parse_args(list(argv))
        code = 0 if args is None else args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe, as `| head` does, raises here and not at exit
        return code
    except BrokenPipeError:  # the SIGPIPE recipe of Python's signal docs: quiet exit 1, exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

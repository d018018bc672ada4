"""Command-line interface.

Targets are either catalog entry names or paths to vertex-list files
(rows are ray-polytope vertices by default; --primal reads a file's rows, or a
catalog entry's rays, as moment-polytope vertices instead). Exit codes:
0 success, 1 domain error, 2 parse/usage error.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import batyrev, corpus, potential, solver, spectra, support
from .errors import DomainError, ParseError
from .fan import fan_from_reflexive, is_complete, is_smooth, kushnirenko_bound, primitive_collections
from .lattice import Polytope, dual_polytope, is_delzant, is_reflexive, lattice_points
from .newton import quasimorphism_report


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{z.imag:+.10g}i"


def _fmt_point(coords) -> str:
    return "(" + ", ".join(_fmt_complex(z) for z in coords) + ")"


def _resolve(target: str):
    """(catalog entry or None, hull of the target's rows: a file's rows or a
    catalog entry's rays, on whichever side --primal picks). Not dualised
    here: a Delzant moment polytope with the origin on its boundary has no
    dual."""
    if Path(target).exists():
        entry, rows = None, corpus.parse_polytope(Path(target).read_text(encoding="utf-8")).rows
    else:
        entry = corpus.entry(target)  # raises UnknownInput for junk targets
        rows = entry.dual_vertices
    return entry, Polytope.from_points(rows)


def _fan(entry, P: Polytope, primal: bool):
    """(fan, support function): a catalog name's own fan, a Delzant moment
    polytope's normal fan with its facet offsets, or else the face fan of the
    ray polytope with the monotone support."""
    if entry is not None and not primal:
        return corpus.build(entry.name)
    if primal and is_delzant(P)[0]:
        return support.support_from_polytope(P)
    fan = fan_from_reflexive(dual_polytope(P) if primal else P)
    return fan, support.monotone_support(fan)


def _target(args):
    """(label, fan, support function) of the command's target."""
    entry, P = _resolve(args.target)
    fan, F = _fan(entry, P, args.primal)
    label = args.target if entry is None or args.primal else f"{entry.name} ({entry.provenance})"
    return label, fan, F


def _parse_values(text: str, expected: int, what: str, kind) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != expected:
        raise DomainError(f"{what}: expected {expected} values, got {len(parts)}")
    return tuple(kind(p) for p in parts)


def _potential(args):
    """(label, fan, superpotential) of the command's target and --coeffs."""
    label, fan, F = _target(args)
    coeffs = _parse_values(args.coeffs, len(fan.rays), "--coeffs", float) if args.coeffs else None
    return label, fan, potential.build_potential(fan, F, coeffs)


def _cmd_catalog(args) -> int:
    for e in corpus.catalog():
        print(f"{e.name:14s} dim {e.dim}  {e.provenance}")
    return 0


def _cmd_check(args) -> int:
    entry, P = _resolve(args.target)
    print(f"input: {args.target}")
    ray_poly = dual_polytope(P) if args.primal else P
    refl, why = is_reflexive(ray_poly)
    print("ray polytope (dual side):")
    print(f"  vertices: {len(ray_poly.vertices)}")
    print(f"  facets: {len(ray_poly.facets)}")
    print(f"  lattice points: {len(lattice_points(ray_poly))}")
    print(f"  reflexive: {'yes' if refl else f'no ({why})'}")
    if not refl:
        raise DomainError(f"not reflexive: {why}")
    moment = P if args.primal else dual_polytope(P)
    delz, dwhy = is_delzant(moment)
    print("moment polytope (primal side):")
    print(f"  vertices: {len(moment.vertices)}")
    print(f"  facets: {len(moment.facets)}")
    print(f"  lattice points: {len(lattice_points(moment))}")
    print(f"  delzant: {'yes' if delz else f'no ({dwhy})'}")
    fan, F = _fan(entry, P, args.primal)
    smooth, offender = is_smooth(fan)
    convex, _ = support.is_strictly_convex(F)
    print(
        f"fan: {len(fan.rays)} rays, {len(fan.maximal_cones)} maximal cones, "
        f"smooth: {'yes' if smooth else f'no (cone {offender.ray_indices})'}, "
        f"complete: {'yes' if is_complete(fan) else 'no'}, "
        f"monotone class ample: {'yes' if convex else 'no'}"
    )
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
    label, fan, F = _target(args)
    if args.support:
        F = support.SupportFunction(fan, _parse_values(args.support, len(fan.rays), "--support", Fraction))
        ok, witness = support.is_strictly_convex(F)
        if not ok:
            cone, ray = witness
            raise DomainError(
                f"support values are not strictly convex (cone {cone.ray_indices}, ray {ray})"
            )
    pres = batyrev.presentation(fan, F)
    if args.json:
        print(batyrev.emit_presentation(pres, "json"))
    else:
        print(f"input: {label}")
        sys.stdout.write(batyrev.emit_presentation(pres, "text"))
    return 0


def _cmd_potential(args) -> int:
    label, _, W = _potential(args)
    print(f"input: {label}")
    print("W = " + potential.render(W, symbolic=args.symbolic))
    return 0


def _solve_target(args):
    label, fan, W = _potential(args)
    cfg = solver.SolverConfig(seed=args.seed, starts=args.starts)
    return label, W, solver.solve(W, kushnirenko_bound(fan), cfg)


def _cmd_solve(args) -> int:
    label, W, report = _solve_target(args)
    if args.json:
        print(solver.report_to_json(report))
        return 0
    print(f"input: {label}")
    print(f"expected critical points: {report.expected_count}")
    print(f"found: {report.found_count} (deficit {report.deficit})")
    print("points:")
    for p in report.points:
        kind = "nondegenerate" if p.nondegenerate else "degenerate"
        residual = "0 (exact)" if p.exact and p.residual == 0 else _fmt(p.residual)
        print(
            f"  {_fmt_point(p.coords)}  residual={residual}  rank={p.hessian_rank}  "
            f"{kind}  basin={p.cluster_size}"
        )
    verdict, why = solver.classify(report)
    print(f"verdict: {verdict.value}")
    print(f"justification: {why}")
    print("critical values:")
    for z in report.critical_values:
        print(f"  {_fmt_complex(z)}")
    return 0


def _cmd_spectrum(args) -> int:
    label, W, report = _solve_target(args)
    spectrum = spectra.critical_values(W, report)
    if args.json:
        print(spectra.to_json(spectrum))
        return 0
    print(f"input: {label}")
    print("eigenvalues of multiplication by q^-1 c1 (critical values of W):")
    for e in spectrum.entries:
        flag = "  [degenerate, multiplicity lower bound 1]" if e.degenerate else ""
        print(f"  {_fmt_complex(e.value)}{flag}")
    if report.deficit:
        print(
            f"note: deficit {report.deficit} of {report.expected_count} "
            "(multiplicity at degenerate points, or unlocated roots)"
        )
    return 0


def _cmd_valuations(args) -> int:
    report = quasimorphism_report(Fraction(args.alpha), Fraction(args.beta))
    sys.stdout.write(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricqh",
        description="Quantum cohomology semisimplicity of toric Fano manifolds "
        "via superpotential critical points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target(p):
        p.add_argument("target", help="catalog entry name or polytope file path")
        p.add_argument("--primal", action="store_true",
                       help="read the file's rows, or the catalog entry's rays, as moment-polytope vertices")

    sub.add_parser("catalog", help="list built-in examples").set_defaults(func=_cmd_catalog)

    p = sub.add_parser("check", help="reflexivity / Delzant / smoothness report")
    add_target(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fan", help="rays, cone counts, primitive collections")
    add_target(p)
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("presentation", help="quantized Stanley-Reisner presentation")
    add_target(p)
    p.add_argument("--support", help="comma-separated rational support values, one per ray")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_presentation)

    p = sub.add_parser("potential", help="render the superpotential")
    add_target(p)
    p.add_argument("--coeffs", help="comma-separated positive coefficients, one per ray")
    p.add_argument("--symbolic", action="store_true", help="show s-exponents")
    p.set_defaults(func=_cmd_potential)

    for name, help_text in (
        ("solve", "locate critical points and classify"),
        ("spectrum", "critical values of the superpotential"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_target(p)
        p.add_argument("--coeffs", help="comma-separated positive coefficients, one per ray")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--starts", type=int, default=None)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_solve if name == "solve" else _cmd_spectrum)

    p = sub.add_parser("valuations", help="blow-up family quasimorphism report")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(func=_cmd_valuations)

    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
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

"""Command-line interface.

Targets are either catalog entry names or paths to vertex-list files
(rows are ray-polytope vertices by default; --primal flips this). Exit codes:
0 success, 1 domain error, 2 parse/usage error.
"""

import argparse
import os
import sys
from fractions import Fraction

from . import batyrev, corpus, potential, solver, spectra, support
from .errors import DomainError, ParseError
from .fan import fan_from_reflexive, is_complete, is_smooth, kushnirenko_bound, primitive_collections
from .lattice import Polytope, dual_polytope, is_delzant, is_reflexive, lattice_points
from .newton import quasimorphism_report
from .solver import SolverConfig
from .support import monotone_support, support_from_polytope


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{z.imag:+.10g}i"


def _fmt_point(coords) -> str:
    return "(" + ", ".join(_fmt_complex(z) for z in coords) + ")"


def _read_rows(path: str):
    with open(path, encoding="utf-8") as fh:
        return corpus.parse_polytope(fh.read()).rows


def _load(target: str, primal: bool):
    """Resolve a CLI target to (label, fan, support function)."""
    if os.path.exists(target):
        rows = _read_rows(target)
        if primal:
            moment = Polytope.from_points(rows, lattice_tag="M")
            fan, F = support_from_polytope(moment)
        else:
            ray_poly = Polytope.from_points(rows, lattice_tag="N")
            fan = fan_from_reflexive(ray_poly)
            F = monotone_support(fan)
        return target, fan, F
    entry = corpus.entry(target)  # raises UnknownInput for junk targets
    fan, F = corpus.build(target)
    return f"{entry.name} ({entry.provenance})", fan, F


def _parse_floats(text: str, expected: int, what: str) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != expected:
        raise DomainError(f"{what}: expected {expected} values, got {len(parts)}")
    return [float(p) for p in parts]


def _parse_fractions(text: str, expected: int, what: str) -> list[Fraction]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != expected:
        raise DomainError(f"{what}: expected {expected} values, got {len(parts)}")
    return [Fraction(p) for p in parts]


def _cmd_catalog(args) -> int:
    for e in corpus.catalog():
        print(f"{e.name:14s} dim {e.dim}  {e.provenance}")
    return 0


def _cmd_check(args) -> int:
    entry = None if os.path.exists(args.target) else corpus.entry(args.target)
    rows = _read_rows(args.target) if entry is None else entry.dual_vertices
    print(f"input: {args.target if entry is None else entry.name}")
    if entry is not None and not args.primal:
        P = entry.ray_polytope()  # the same hull corpus.build puts under the fan
    else:
        P = Polytope.from_points(rows, lattice_tag="M" if args.primal else "N")
    ray_poly = dual_polytope(P) if args.primal else P
    refl, why = is_reflexive(ray_poly)
    print("ray polytope (dual side):")
    print(f"  vertices: {len(ray_poly.vertices)}")
    print(f"  facets: {len(ray_poly.facets)}")
    print(f"  lattice points: {len(lattice_points(ray_poly))}")
    print(f"  reflexive: {'yes' if refl else f'no ({why})'}")
    if not refl:
        raise DomainError(f"not reflexive: {why}")
    moment = dual_polytope(ray_poly)
    delz, dwhy = is_delzant(moment)
    print("moment polytope (primal side):")
    print(f"  vertices: {len(moment.vertices)}")
    print(f"  facets: {len(moment.facets)}")
    print(f"  lattice points: {len(lattice_points(moment))}")
    print(f"  delzant: {'yes' if delz else f'no ({dwhy})'}")
    if entry is not None:
        fan, F = corpus.build(entry.name)
    else:
        fan = fan_from_reflexive(ray_poly)
        F = monotone_support(fan)
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
    label, fan, _ = _load(args.target, args.primal)
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
    label, fan, F = _load(args.target, args.primal)
    if args.support:
        values = _parse_fractions(args.support, len(fan.rays), "--support")
        F = support.SupportFunction(fan, tuple(values))
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
    label, fan, F = _load(args.target, args.primal)
    coeffs = _parse_floats(args.coeffs, len(fan.rays), "--coeffs") if args.coeffs else None
    W = potential.build_potential(fan, F, coeffs)
    print(f"input: {label}")
    print("W = " + potential.render(W, symbolic=args.symbolic))
    return 0


def _solve_target(args):
    label, fan, F = _load(args.target, args.primal)
    coeffs = _parse_floats(args.coeffs, len(fan.rays), "--coeffs") if args.coeffs else None
    W = potential.build_potential(fan, F, coeffs)
    cfg = SolverConfig(seed=args.seed, starts=args.starts)
    report = solver.solve(W, kushnirenko_bound(fan), cfg)
    return label, W, report


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
                       help="interpret file rows as moment-polytope vertices")

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

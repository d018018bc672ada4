"""Multistart Newton search for the critical points of a superpotential on
the complex torus, with multiplicity accounting against the lattice-volume
root count and the semisimplicity verdict.

Newton runs in logarithmic coordinates u (x = exp(u)), where the gradient
and Hessian of W(exp(u)) are exact finite sums; the torus constraint
disappears. Converged samples are canonically sorted, merged by relative
distance, certified exactly when they snap onto rational points, and ranked
by Hessian rank. The starts run through one batched Newton kernel, a block
of rows at a time. The solver promises determinism for a fixed seed,
independent of how the starts are blocked, but not completeness; missing
roots are reported as an honest deficit.
"""

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import _exact, potential
from .errors import NotCritical, OverCount
from .potential import Superpotential


class Verdict(Enum):
    SEMISIMPLE = "semisimple"
    FIELD_SUMMAND = "field_summand"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    starts: int | None = None  # default resolves to 200 * expected_count
    newton_tol: float = 1e-12
    max_iters: int = 100
    # samples of one simple point agree to about newton_tol * |H^-1|, while the
    # catalog's distinct critical points lie at least 0.2 apart
    cluster_tol: float = 1e-6
    rank_tol: float = 1e-8  # relative to the largest singular value

    def __post_init__(self):
        if self.starts is not None and self.starts < 1:
            raise ValueError("starts must be >= 1")
        for name in ("newton_tol", "cluster_tol", "rank_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CriticalPoint:
    coords: tuple[complex, ...]
    residual: float
    hessian_rank: int
    nondegenerate: bool
    cluster_size: int
    exact: bool = False  # residual and rank certified over the rationals


@dataclass(frozen=True)
class SolveReport:
    expected_count: int
    points: tuple[CriticalPoint, ...]
    verdict: Verdict
    critical_values: tuple[complex, ...]

    @property
    def found_count(self) -> int:
        return len(self.points)

    @property
    def deficit(self) -> int:
        return self.expected_count - self.found_count


def _arrays(W: Superpotential):
    exponents = np.array([t.exponent for t in W.terms], dtype=float)
    coeffs = np.array([t.coefficient for t in W.terms], dtype=float)
    return exponents, coeffs


# Starts per Newton block: large enough to amortise the per-iteration numpy
# calls, small enough that the (block, terms, dim) Hessian stack stays small.
_BLOCK = 256
_POLISH_STEPS = 30
_ESCAPE = 50.0  # |Re u| beyond this: |x| or 1/|x| past e^50, the start diverged


def _newton_block(exponents, coeffs, u0, tol, max_iters):
    """Newton runs from the rows of u0, all at once; returns (x, residual) as
    arrays, with residual inf on rows that did not converge.

    Once a row's residual drops below tol the iteration keeps polishing while
    it still improves: near a degenerate critical point convergence is only
    linear, and stopping at the first sub-tolerance iterate would leave
    samples scattered at the square root of the tolerance. A row stops when
    it escapes (|Re u| > 50), its residual is not finite, it stops improving
    or leaves the basin after a sub-tolerance iterate (keeping the best one),
    its polish steps run out, or its Hessian is singular.

    The stacked matrix-vector products below give each row the same bits as
    a separate exponents @ u; a gemm such as u @ exponents.T does not.
    """
    n = len(u0)
    best_u = np.zeros_like(u0)  # rows that never converge are dropped later
    best_res = np.full(n, np.inf)
    polish_left = np.full(n, _POLISH_STEPS)
    rows = np.arange(n)
    u = u0
    for _ in range(max_iters + _POLISH_STEPS):
        inside = ~np.any(np.abs(u.real) > _ESCAPE, axis=1)
        rows, u = rows[inside], u[inside]
        if rows.size == 0:
            break
        t = coeffs * np.exp(np.matmul(exponents, u[..., None])[..., 0])
        g = np.matmul(exponents.T, t[..., None])[..., 0]
        residual = np.max(np.abs(g), axis=1)
        below = residual < tol
        improved = below & (residual < best_res[rows])
        hit = rows[improved]
        best_u[hit] = u[improved]
        best_res[hit] = residual[improved]
        polish_left[hit] -= 1
        stop = (
            ~np.isfinite(residual)
            | (below & ~improved)
            | (~below & np.isfinite(best_res[rows]))
            | (improved & ((polish_left[rows] <= 0) | (residual == 0.0)))
        )
        rows, u, t, g = rows[~stop], u[~stop], t[~stop], g[~stop]
        h = np.matmul(exponents.T, t[..., None] * exponents)
        try:
            step = np.linalg.solve(h, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # A stacked solve fails as a whole; only the singular rows stop.
            step = np.zeros_like(g)
            solvable = np.ones(rows.size, dtype=bool)
            for i in range(rows.size):
                try:
                    step[i] = np.linalg.solve(h[i], -g[i])
                except np.linalg.LinAlgError:
                    solvable[i] = False
            rows, u, step = rows[solvable], u[solvable], step[solvable]
        u = u + step
    return np.exp(best_u), best_res


def _coord_key(coords):
    return tuple(part for z in coords for part in (z.real, z.imag))


def _merge(clusters, tol):
    """Fold each cluster into the first earlier kept cluster whose centre is
    within relative distance tol in every complex coordinate; a member with
    a lower residual becomes the centre. Returns the kept clusters in order.
    """
    if not clusters:
        return []
    kept = []
    centres = np.empty((len(clusters), len(clusters[0]["coords"])), dtype=complex)
    for cl in clusters:
        c = np.array(cl["coords"], dtype=complex)
        head = centres[: len(kept)]
        near = np.all(np.abs(head - c) <= tol * np.maximum(np.abs(head), np.abs(c)), axis=1)
        if near.any():
            j = int(np.argmax(near))
            target = kept[j]
            target["size"] += cl["size"]
            if cl["residual"] < target["residual"]:
                target["coords"], target["residual"] = cl["coords"], cl["residual"]
                centres[j] = c
        else:
            centres[len(kept)] = c
            kept.append(cl)
    return kept


def _numeric_rank(matrix_rows, rank_tol) -> int:
    m = np.array(matrix_rows, dtype=complex)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > rank_tol * sv[0]))


def _rational_point(coords) -> tuple[Fraction, ...] | None:
    out = []
    for z in coords:
        if isinstance(z, (int, Fraction)):
            out.append(Fraction(z))
            continue
        z = complex(z)
        if z.imag != 0.0:
            return None
        out.append(Fraction(z.real))
    return tuple(out)


def _snap_rational(W, coords, tol) -> tuple[Fraction, ...] | None:
    """Round near-real coordinates to small-denominator rationals and accept
    the result only when the exact log-gradient there is identically zero.

    The exact-zero requirement means a generous tol cannot produce a wrong
    certificate; it can only attach a blob of samples to a genuine critical
    point with rational coordinates. So limit_denominator(12) only limits which
    exact points can be found; a point needing larger denominators stays numeric.
    """
    if any(abs(complex(z).imag) > tol for z in coords):
        return None
    snapped = tuple(Fraction(complex(z).real).limit_denominator(12) for z in coords)
    if any(s == 0 for s in snapped):
        return None
    if any(abs(float(s) - complex(z).real) > tol * max(1.0, abs(float(s))) for s, z in zip(snapped, coords)):
        return None
    gradient = potential.log_gradient(W, snapped, exact=True)
    if any(g != 0 for g in gradient):
        return None
    return snapped


def _exact_point(W: Superpotential, rational, cluster_size: int) -> CriticalPoint:
    gradient = potential.log_gradient(W, rational, exact=True)
    residual = float(max(abs(g) for g in gradient))
    hess = potential.hessian_affine(W, rational, exact=True)
    rank = _exact.rank([list(row) for row in hess])
    return CriticalPoint(
        coords=tuple(complex(float(x), 0.0) for x in rational),
        residual=residual,
        hessian_rank=rank,
        nondegenerate=rank == W.dim,
        cluster_size=cluster_size,
        exact=True,
    )


def _numeric_point(W: Superpotential, coords, cfg: SolverConfig, cluster_size: int) -> CriticalPoint:
    gradient = potential.log_gradient(W, coords)
    residual = float(max(abs(g) for g in gradient))
    rank = _numeric_rank(potential.log_hessian(W, coords), cfg.rank_tol)
    return CriticalPoint(
        coords=tuple(complex(z) for z in coords),
        residual=residual,
        hessian_rank=rank,
        nondegenerate=rank == W.dim,
        cluster_size=cluster_size,
        exact=False,
    )


def _verdict(points, expected_count) -> Verdict:
    nondegenerate = [p for p in points if p.nondegenerate]
    if len(points) == expected_count and len(nondegenerate) == expected_count:
        return Verdict.SEMISIMPLE
    if nondegenerate:
        return Verdict.FIELD_SUMMAND
    return Verdict.UNDETERMINED


def solve(W: Superpotential, expected_count: int, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Multistart Newton solve; deterministic for fixed cfg.seed.

    Start moduli are log-uniform in [1/2, 2] with uniform phases; each start
    draws its own substream from (seed, start index), and every row of the
    batched Newton kernel runs independently, so results do not depend on
    how the starts are split into blocks.
    """
    exponents, coeffs = _arrays(W)
    n_starts = cfg.starts if cfg.starts is not None else 200 * expected_count
    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF

    def start(k: int):
        rng = np.random.default_rng([seed, k])
        logmod = rng.uniform(np.log(0.5), np.log(2.0), W.dim)
        phase = rng.uniform(0.0, 2.0 * np.pi, W.dim)
        return logmod + 1j * phase

    converged = []
    for lo in range(0, n_starts, _BLOCK):
        u0 = np.array([start(k) for k in range(lo, min(lo + _BLOCK, n_starts))])
        xs, residuals = _newton_block(exponents, coeffs, u0, cfg.newton_tol, cfg.max_iters)
        converged += [(tuple(map(complex, x)), float(res)) for x, res in zip(xs, residuals) if np.isfinite(res)]
    converged.sort(key=lambda item: (_coord_key(item[0]), item[1]))

    clusters = _merge([{"coords": coords, "residual": res, "size": 1} for coords, res in converged], cfg.cluster_tol)

    # A residual below tol only localizes a critical point of multiplicity m
    # to about tol^(1/m), so samples around a degenerate point scatter far
    # wider than cluster_tol. Re-merge degenerate clusters at tol^(1/4), which
    # covers multiplicities up to 4 (u8's degenerate points have 3).
    wide_tol = max(cfg.cluster_tol, cfg.newton_tol ** 0.25)
    for cl in clusters:
        rank = _numeric_rank(potential.log_hessian(W, cl["coords"]), cfg.rank_tol)
        cl["degenerate"] = rank < W.dim
    kept = {id(cl) for cl in _merge([cl for cl in clusters if cl["degenerate"]], wide_tol)}
    merged = [cl for cl in clusters if not cl["degenerate"] or id(cl) in kept]

    points = []
    for cl in merged:
        snap_tol = wide_tol if cl["degenerate"] else cfg.cluster_tol
        snapped = _snap_rational(W, cl["coords"], snap_tol)
        if snapped is not None:
            points.append(_exact_point(W, snapped, cl["size"]))
        else:
            cp = _numeric_point(W, cl["coords"], cfg, cl["size"])
            if cp.residual < cfg.newton_tol:  # independent re-check after merging
                points.append(cp)
    points.sort(key=lambda p: _coord_key(p.coords))

    if len(points) > expected_count:
        raise OverCount(
            f"found {len(points)} distinct critical points, expected at most {expected_count}; "
            "cluster_tol may be too small or expected_count wrong"
        )

    values = tuple(sorted((complex(potential.eval(W, p.coords)) for p in points), key=lambda z: (z.real, z.imag)))
    return SolveReport(
        expected_count=expected_count,
        points=tuple(points),
        verdict=_verdict(points, expected_count),
        critical_values=values,
    )


def verify_point(W: Superpotential, p, cfg: SolverConfig = SolverConfig()) -> CriticalPoint:
    """Residual and Hessian rank at a given point, no iteration.

    Points with rational coordinates go through the exact path, so a residual
    of 0 there is a certificate, not a float comparison.
    """
    rational = _rational_point(p)
    if rational is not None:
        point = _exact_point(W, rational, cluster_size=1)
    else:
        point = _numeric_point(W, tuple(complex(z) for z in p), cfg, cluster_size=1)
    if point.residual >= cfg.newton_tol:
        raise NotCritical(f"log-gradient max-norm {point.residual:g} exceeds {cfg.newton_tol:g}")
    return point


def classify(report: SolveReport) -> tuple[Verdict, str]:
    """Verdict plus a human-readable justification citing counts and ranks."""
    nondeg = sum(1 for p in report.points if p.nondegenerate)
    degenerate = report.found_count - nondeg
    lines = [
        f"found {report.found_count} of {report.expected_count} expected critical points "
        f"({nondeg} nondegenerate, {degenerate} degenerate)"
    ]
    verdict = _verdict(report.points, report.expected_count)
    if verdict is Verdict.SEMISIMPLE:
        lines.append("all expected critical points found and nondegenerate: semisimple")
    elif verdict is Verdict.FIELD_SUMMAND:
        lines.append("at least one nondegenerate critical point: contains a field direct summand")
        if degenerate:
            ranks = sorted(p.hessian_rank for p in report.points if not p.nondegenerate)
            lines.append(f"degenerate point ranks: {ranks}; not semisimple")
        if report.deficit > 0 and degenerate:
            lines.append(
                f"deficit {report.deficit} must be absorbed by multiplicities >= 2 "
                "at degenerate points if no roots were missed"
            )
        elif report.deficit > 0:
            lines.append(f"deficit {report.deficit}: some roots were not located")
    else:
        lines.append("no nondegenerate critical point located: undetermined")
    return verdict, "; ".join(lines)


def _fmt_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def report_to_json_dict(report: SolveReport) -> dict:
    return {
        "expected": report.expected_count,
        "found": report.found_count,
        "points": [
            {
                "coords": [_fmt_complex(z) for z in p.coords],
                "residual": p.residual,
                "rank": p.hessian_rank,
                "nondeg": p.nondegenerate,
            }
            for p in report.points
        ],
        "verdict": report.verdict.value,
        "critical_values": [_fmt_complex(z) for z in report.critical_values],
    }


def report_to_json(report: SolveReport) -> str:
    return json.dumps(report_to_json_dict(report), sort_keys=True, indent=1)

"""Multistart Newton search for the critical points of a superpotential on
the complex torus, with multiplicity accounting against the lattice-volume
root count and the semisimplicity verdict.

Newton runs in logarithmic coordinates u (x = exp(u)), where the gradient
and Hessian of W(exp(u)) are exact finite sums; the torus constraint
disappears. The starts (`_starts`) run through one batched Newton kernel
(`_newton`). A call large enough to give two or more CPUs a full pool of
rows each deals its rows to forked processes, at most one per CPU
(`_newton_per_cpu`); every row runs alone, so the report does not depend
on the CPU count. Each cell of converged samples (`_cells`) is one critical
point (`_points`); the verdicts count isolated points, so a degenerate
point on a curve of critical points raises `NotIsolated` (`_isolated`); the
points are closed under conjugation and sign vectors (`_closed_points`). One
function, `_certified`, makes a point exact: at a rational candidate (a
snapped cluster centre, a sign vector, or the real input of `verify_point`
read exactly) it reports residual 0 and the exact rank and value when the
exact log-gradient vanishes there, so `exact` means that everywhere. Each
x_i d_i W is supported on the rays, so by Bernstein's bound (Funct. Anal.
Appl. 9, 1975) the lattice volume N bounds the isolated critical points with
multiplicity; a default budget stops once its first 8N starts find N
distinct nondegenerate points. Short of that, missing roots are reported as
an honest deficit.

This module holds every evaluation of W. The term values come from `_terms`
in floats at log coordinates, or from `_exact_terms` in integers at a
rational point; `_gradient` and `_hessian` turn either into the log-gradient
and log-Hessian, so Newton, the numeric ranks and the certificate share one
kernel.
"""

import bisect
import itertools
import json
import os
import threading
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _exact
from .errors import NotCritical, NotIsolated, OverCount
from .potential import Superpotential


class Verdict(Enum):
    SEMISIMPLE = "semisimple"
    FIELD_SUMMAND = "field_summand"
    UNDETERMINED = "undetermined"


NEWTON_TOL = 1e-12  # log-gradient max-norm that counts as a critical point
MAX_ITERS = 130  # evaluations per start
# samples of one simple point agree to about NEWTON_TOL * |H^-1|, while the
# catalog's distinct critical points lie at least 0.2 apart
CLUSTER_TOL = 1e-6
WIDE_TOL = NEWTON_TOL ** 0.25  # NEWTON_TOL^(1/m) localizes a root of multiplicity m; covers m <= 4 (u8's: 3)
# sigma_min / sigma_max of a degenerate log-Hessian: u8's degenerate centres read <= 9.67e-9, and every
# other centre on the catalog >= 0.0557, except on the curves of critical points that `_isolated` reports
RANK_TOL = 1e-5
# The linear regime, where a `_newton` row takes the geometric-limit step:
LINEAR_RESIDUAL = 1e-4  # residual in [NEWTON_TOL, this): near a root, and not yet converged
LINEAR_RATIO = (0.3, 0.95)  # step ratio r: below 0.3 Newton is fast; past 0.95, 1 / (1 - r) > 20 amplifies noise
RATIO_AGREEMENT = 0.02  # r within 2% of the row's previous ratio: the steps shrink geometrically
_CURVE_STEP, _CURVE_STEPS = 1e-2, 8  # `_isolated`'s step along the tangent, and its Gauss-Newton iterations
CURVE_TOL = 1e-11  # witness residual of a curve: <= 6.4e-15 on bl_points_3's curves, >= 6.2e-8 at u8's points


class SolverConfig(NamedTuple("SolverConfig", [("seed", int), ("starts", int | None)])):
    __slots__ = ()

    # starts None: 200 * expected_count, or the first 8 * it if they close the count
    def __new__(cls, seed=0, starts=None):
        if not 0 <= seed < 2**64:  # what default_rng([seed, k]) accepts, without aliases
            raise ValueError("seed must be in [0, 2**64)")
        if starts is not None and not 1 <= starts <= 2**32:  # start k is drawn from a 32-bit word
            raise ValueError("starts must be in [1, 2**32]")
        return super().__new__(cls, seed, starts)

    def budget(self, expected_count: int) -> int:
        """The most starts a solve runs."""
        return self.starts if self.starts is not None else 200 * expected_count


class CriticalPoint(NamedTuple):
    coords: tuple[complex, ...]
    residual: float
    hessian_rank: int
    cluster_size: int
    value: complex  # W at the point: a critical value
    exact: bool = False  # residual, rank and value computed over the rationals

    @property
    def nondegenerate(self) -> bool:
        return self.hessian_rank == len(self.coords)


def value_key(z: complex) -> tuple[float, float]:
    """Sort key of a critical value: real, then imaginary part, rounded to
    1e-9, far above the ~2e-15 evaluation noise and far below the gap between
    distinct catalog critical values, so the order ignores the last bits."""
    return (round(z.real, 9), round(z.imag, 9))


class SolveReport(NamedTuple):
    expected_count: int
    points: tuple[CriticalPoint, ...]
    starts: int = 0  # Newton starts run

    @property
    def verdict(self) -> Verdict:
        """Semisimple when all expected points are found nondegenerate, a
        field summand when at least one is nondegenerate, else undetermined."""
        nondegenerate = sum(p.nondegenerate for p in self.points)
        if nondegenerate == self.found_count == self.expected_count:
            return Verdict.SEMISIMPLE
        return Verdict.FIELD_SUMMAND if nondegenerate else Verdict.UNDETERMINED

    @property
    def spectrum(self) -> tuple[tuple[complex, bool], ...]:
        """Spectrum of multiplication by q^-1 c1 on the degree-zero quantum
        cohomology, without forming its matrix: the eigenvalues are exactly
        the values of W at its critical points.

        One (value, degenerate) pair per point, stably sorted by `value_key`.
        A nondegenerate point contributes multiplicity 1; a degenerate
        point's unresolved multiplicity has lower bound 1 and is flagged.
        """
        pairs = ((p.value, not p.nondegenerate) for p in self.points)
        return tuple(sorted(pairs, key=lambda e: value_key(e[0])))

    @property
    def critical_values(self) -> tuple[complex, ...]:
        return tuple(value for value, _ in self.spectrum)

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


def _terms(exponents, coeffs, u):
    """b_rho x^{n_rho} at each row of log coordinates u, shape (rows, terms);
    W is the row sum. The stacked matrix-vector products here and in
    `_gradient` give each row the same bits as a separate exponents @ u; a
    gemm such as u @ exponents.T does not."""
    return coeffs * np.exp(np.matmul(exponents, u[..., None])[..., 0])


def _gradient(exponents, t):
    return np.matmul(exponents.T, t[..., None])[..., 0]


def _outer(exponents):
    """The outer products n_rho n_rho^T of the exponents, shape (terms, d, d)."""
    return exponents[:, :, None] * exponents[:, None, :]


def _hessian(outer, t):
    """sum_rho t_rho n_rho n_rho^T at each row of t, from the `_outer` table.
    The product is per row, a stack of (1, terms) @ (terms, d * d) products,
    so each row gets the bits of a one-row call and the Hessian does not
    depend on the width of the Newton pool; one gemm over the stack would
    not give that."""
    return (t[..., None, :] @ outer.reshape(len(outer), -1)).reshape(t.shape[:-1] + outer.shape[1:])


# Active rows of the Newton pool: large enough to amortise the per-iteration
# numpy calls, small enough that the (rows, d, d) Hessian stack stays small.
_BLOCK = 1024
# Starts per expected point in a default budget's probe. At target
# coefficients and seeds 0-9 the semisimple count first closes by 6 starts per
# point on cp1-cp6, cp1xcp1 and bl1_cp2-bl3_cp2, by 8 on bl_points_4 and by
# 12 on bl_points_5; a probe that does not close costs only its wait.
_PROBE_PER_POINT = 8
_ESCAPE = 50.0  # |Re u| beyond this: |x| or 1/|x| past e^50, the start diverged
_M32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hashes(h, mult):
    """SeedSequence's hash constants: (xor constant, multiplier) pairs."""
    while True:
        old, h = h, h * mult & _M32
        yield old, h


def _hash(v, hashes):
    a, b = next(hashes)
    v = (v ^ a) * b
    return v ^ (v >> 16)


def _add128(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _pcg_step(state, inc):
    """PCG64's step, state * multiplier + inc mod 2**128, on (high, low)
    uint64 arrays; the high word of low * low comes from 32-bit halves."""
    hi, lo = state
    l0, l1, m0, m1 = lo & _M32, lo >> 32, _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    mid = (l0 * m0 >> 32) + (l0 * m1 & _M32) + (l1 * m0 & _M32)
    carry = l1 * m1 + (l0 * m1 >> 32) + (l1 * m0 >> 32) + (mid >> 32)
    return _add128((carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI, lo * _PCG_MULT_LO), inc)


def _starts(seed: int, first: int, stop: int, dim: int):
    """Starts k = first..stop-1 (stop <= 2**32), one row each:
    rng.uniform(log 1/2, log 2, dim) + 1j * rng.uniform(0, 2 pi, dim) for
    rng = default_rng([seed, k]), by numpy's steps on arrays: SeedSequence
    hashes the words of seed and k into a 4-word pool and expands it to
    128-bit seed and increment for PCG64, whose XSL-RR outputs give the
    doubles. Array arithmetic wraps silently, where numpy scalars would warn."""
    words = [seed & _M32] + ([seed >> 32] if seed >> 32 else [])
    n = stop - first
    entropy = [np.full(n, w, dtype=np.uint32) for w in words] + [np.arange(first, stop, dtype=np.uint32)]
    hashes = _hashes(0x43B0D7E5, 0x931E8875)
    pool = [_hash(v, hashes) for v in entropy + [np.zeros(n, dtype=np.uint32)] * (4 - len(entropy))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hash(pool[src], hashes)
                pool[dst] = mixed ^ (mixed >> 16)
    hashes = _hashes(0x8B51F9DD, 0x58F38DED)
    half = [_hash(pool[i % 4], hashes).astype(np.uint64) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = (half[i] | half[i + 1] << 32 for i in range(0, 8, 2))
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    state = _pcg_step(_add128(inc, (s_hi, s_lo)), inc)
    draws = []
    for _ in range(2 * dim):
        state = _pcg_step(state, inc)
        x, rot = state[0] ^ state[1], state[0] >> 58
        draws.append(((x >> rot | x << (64 - rot & 63)) >> 11) * (1.0 / 9007199254740992.0))
    r = np.stack(draws, axis=1)
    logmod = np.log(0.5) + (np.log(2.0) - np.log(0.5)) * r[:, :dim]
    return logmod + 1j * (0.0 + 2.0 * np.pi * r[:, dim:])


def _newton(exponents, coeffs, u0):
    """Newton runs from the rows of u0; returns (u, residual) as arrays of
    log coordinates and log-gradient max-norms, with residual inf on rows
    that did not converge.

    The rows run in one pool of at most _BLOCK active rows, refilled from
    the queue of u0; each row stops after its own MAX_ITERS evaluations.
    Near a degenerate critical point Newton converges only linearly, each
    step about r times the last in max-norm (Decker, Keller and Kelley, SIAM
    J. Numer. Anal. 20, 1983; Griewank, SIAM Rev. 27, 1985). A row whose
    ratio r has settled (`LINEAR_RESIDUAL`, `LINEAR_RATIO`,
    `RATIO_AGREEMENT`) takes the geometric limit delta / (1 - r) of its
    steps, Schroeder's step m * delta at a root of multiplicity m, and its
    ratio history starts afresh. A row's first iterate below NEWTON_TOL is
    its sample; the samples of a root of multiplicity m scatter within about
    NEWTON_TOL^(1/m), one WIDE_TOL cell of `_points`. A row also stops when
    it escapes (|Re u| > 50), its residual is not finite, or its Hessian is
    singular."""
    n = len(u0)
    outer = _outer(exponents)
    sample_u = np.zeros_like(u0)  # rows that never converge are dropped later
    sample_res = np.full(n, np.inf)
    evals_left = np.full(n, MAX_ITERS)
    last_norm, last_ratio = np.full(n, np.nan), np.full(n, np.nan)  # nan: no history
    rows, u, queued = np.arange(0), u0[:0], 0
    while rows.size or queued < n:
        fill = min(n, queued + _BLOCK - rows.size)
        rows, u = np.concatenate([rows, np.arange(queued, fill)]), np.concatenate([u, u0[queued:fill]])
        queued = fill
        inside = ~np.any(np.abs(u.real) > _ESCAPE, axis=1)
        rows, u = rows[inside], u[inside]
        t = _terms(exponents, coeffs, u)
        g = _gradient(exponents, t)
        residual = np.max(np.abs(g), axis=1)
        below = residual < NEWTON_TOL
        sample_u[rows[below]], sample_res[rows[below]] = u[below], residual[below]
        evals_left[rows] -= 1
        stop = below | ~np.isfinite(residual) | (evals_left[rows] == 0)
        rows, u, t, g, residual = rows[~stop], u[~stop], t[~stop], g[~stop], residual[~stop]
        step, solvable = _newton_steps(_hessian(outer, t), g)
        rows, u, step, residual = rows[solvable], u[solvable], step[solvable], residual[solvable]
        norm = np.abs(step).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a zero or tiny last step
            ratio = norm / last_norm[rows]
        linear = residual < LINEAR_RESIDUAL
        if linear.any():  # else no row is near a root, as on about 40% of the sweep's iterations
            previous = last_ratio[rows]
            linear &= (LINEAR_RATIO[0] < ratio) & (ratio < LINEAR_RATIO[1])
            linear &= np.abs(ratio - previous) <= RATIO_AGREEMENT * previous
            if linear.any():
                step[linear] /= (1.0 - ratio[linear])[:, None]
                norm[linear] = np.nan  # so the next ratio is nan, and the history starts afresh
        last_norm[rows], last_ratio[rows] = norm, ratio
        u = u + step
    return sample_u, sample_res


def _pin(cpus) -> None:
    """Keep this process on `cpus` where the machine allows it; a refusal
    only leaves the placement to the kernel."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _newton_per_cpu(exponents, coeffs, u0):
    """`_newton` on the rows of u0, dealt round-robin to forked processes, at
    most one per CPU and each with a full pool of _BLOCK rows; bit for bit the
    one-process call, as every row runs alone. Share k runs pinned to the k-th
    CPU of the affinity mask, since the kernel often leaves a forked child on
    its parent's CPU; the mask comes back when the call ends. The share of a
    child that exits non-zero or sends short data runs here; no child
    outlives the call. Without os.fork or os.sched_getaffinity, or with
    another thread running (a fork copies only the calling thread), all rows
    run here."""
    mask = os.sched_getaffinity(0) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else {0}
    cpus = sorted(mask)
    workers = min(len(cpus), len(u0) // _BLOCK)
    if workers < 2 or threading.active_count() > 1:
        return _newton(exponents, coeffs, u0)
    children = {}  # share k -> (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child sends share k and exits, never returning to the caller
                try:
                    _pin({cpus[k]})
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(b"".join(a.tobytes() for a in _newton(exponents, coeffs, u0[k::workers])))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children[k] = pid, open(read, "rb")
        us, R = np.empty_like(u0), np.empty(len(u0))
        _pin({cpus[0]})
        us[::workers], R[::workers] = _newton(exponents, coeffs, u0[::workers])
        for k, (pid, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[k]
            share = u0[k::workers]
            if status == 0 and len(data) == share.nbytes + len(share) * R.itemsize:
                us[k::workers] = np.frombuffer(data, complex, share.size).reshape(share.shape)
                R[k::workers] = np.frombuffer(data, float, offset=share.nbytes)
            else:
                us[k::workers], R[k::workers] = _newton(exponents, coeffs, share)
        return us, R
    finally:  # after an exception: kill and reap the children left; always: the mask comes back
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL; importing `signal` would cost every solve about 0.6 ms
            os.waitpid(pid, 0)
        _pin(mask)


def _newton_steps(h, g):
    """Newton steps -h^-1 g of a stack, and which rows have them. A stacked
    solve fails as a whole, so a failing stack is halved until each singular
    row stands alone; only those rows stop."""
    try:
        return np.linalg.solve(h, -g[..., None])[..., 0], np.ones(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return g, np.zeros(1, dtype=bool)
        halves = [_newton_steps(h[part], g[part]) for part in (slice(len(g) // 2), slice(len(g) // 2, None))]
        return tuple(np.concatenate(parts) for parts in zip(*halves))


def _numeric_points(exponents, coeffs, points) -> list[CriticalPoint]:
    """Residual (log-gradient max-norm), log-Hessian rank and value of W at
    each point, from one stacked evaluation at their log coordinates."""
    points = np.asarray(points, dtype=complex)
    t = _terms(exponents, coeffs, np.log(points))
    residuals = np.max(np.abs(_gradient(exponents, t)), axis=1)
    sv = np.linalg.svd(_hessian(_outer(exponents), t), compute_uv=False)
    ranks = np.sum(sv > RANK_TOL * sv[:, :1], axis=1).tolist()
    return [
        CriticalPoint(tuple(p), float(r), k, 1, complex(v))
        for p, r, k, v in zip(points.tolist(), residuals, ranks, t.sum(axis=1))
    ]


def _cells(X, tol):
    """The rows of X in cells, as arrays of rows in order, cut at every gap of
    twice the largest radius tol * |x_k| (the factor 2 absorbs rounding) in a
    sorted part of coordinate k: rows within relative distance tol share one."""
    if not len(X):
        return []
    cell = np.zeros(len(X), dtype=np.intp)
    for part, radius in zip(np.concatenate([X.real, X.imag], axis=1).T, np.tile(tol * np.abs(X).max(axis=0), 2)):
        order = np.argsort(part, kind="stable")
        cut = np.empty_like(cell)
        cut[order] = np.cumsum(np.diff(part[order], prepend=part[order[0]]) > 2 * radius)
        cell = np.unique(cell * len(X) + cut, return_inverse=True)[1]  # dense ids: no overflow
    order = np.argsort(cell, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(cell[order])) + 1)


def _exact_terms(W: Superpotential, p):
    """The kernel's inputs at a point p of Fractions, over the integers: the
    exponent table n, the term values b_rho p^{n_rho} as ints t over one
    common denominator den, and den. So t.sum(), `_gradient(n, t)` and
    `_hessian(_outer(n), t)` are den times W's value, log-gradient and
    log-Hessian at p, exactly."""
    values = []
    for term in W.terms:  # numerator and denominator as ints: one Fraction, one gcd, per term
        num, den = term.coefficient.as_integer_ratio()
        for x, e in zip(p, term.exponent):
            a, b = (x.numerator, x.denominator) if e >= 0 else (x.denominator, x.numerator)
            num, den = num * a ** abs(e), den * b ** abs(e)
        values.append(Fraction(num, den))
    den, (t,) = _exact.integer_rows([values])
    return np.array([term.exponent for term in W.terms], dtype=object), np.array(t, dtype=object), den


def _certified(W: Superpotential, point: CriticalPoint, rational: tuple[Fraction, ...] | None) -> CriticalPoint:
    """`point` made exact at the candidate rational point `rational` (None:
    no candidate) when the exact log-gradient of W vanishes there: one
    `_exact_terms` gives residual 0 and the exact log-Hessian rank and value.
    Otherwise `point` comes back unchanged. Every exact point comes from
    here."""
    if rational is None:
        return point
    n, t, den = _exact_terms(W, rational)
    if any(_gradient(n, t)):
        return point
    return point._replace(coords=tuple(complex(float(x), 0.0) for x in rational), residual=0.0,
                          hessian_rank=_exact.rank(_hessian(_outer(n), t).tolist()),
                          value=complex(Fraction(t.sum(), den)), exact=True)


def _isolated(exponents, coeffs, points) -> None:
    """Raise NotIsolated at the first degenerate point that lies on a curve of
    critical points. The witness, stacked over the degenerate points: a step
    _CURVE_STEP along the log-Hessian's last right singular vector v, then
    Gauss-Newton across v (`_newton_steps` on the normal equations, so a
    singular row stops alone). On a curve the residual falls to rounding; at
    an isolated point of multiplicity m it stays near _CURVE_STEP^m."""
    degenerate = [p for p in points if not p.nondegenerate]
    if not degenerate:
        return
    outer, u = _outer(exponents), np.log(np.array([p.coords for p in degenerate], dtype=complex))
    vh = np.linalg.svd(_hessian(outer, _terms(exponents, coeffs, u)))[2]
    tangent, across = vh[:, -1].conj(), vh[:, :-1].conj().swapaxes(1, 2)  # v and a basis of its complement
    rows, u, least = np.arange(len(u)), u + _CURVE_STEP * tangent, np.full(len(u), np.inf)
    for _ in range(_CURVE_STEPS):
        t = _terms(exponents, coeffs, u)
        g = _gradient(exponents, t)
        least[rows] = np.minimum(least[rows], np.max(np.abs(g), axis=1))
        j = _hessian(outer, t) @ across[rows]
        jh = j.conj().swapaxes(1, 2)
        delta, solvable = _newton_steps(jh @ j, (jh @ g[..., None])[..., 0])
        u = u + (across[rows] @ delta[..., None])[..., 0]
        keep = solvable & np.all(np.abs(u.real) <= _ESCAPE, axis=1)
        rows, u = rows[keep], u[keep]
    if (least < CURVE_TOL).any():
        k = int((least < CURVE_TOL).argmax())
        top = tangent[k][np.abs(tangent[k]).argmax()]
        v = np.round(tangent[k] * abs(top) / top, 4) + 0j  # largest entry real; + 0j: no -0 parts
        raise NotIsolated(
            f"the degenerate critical point ({', '.join(f'{z:.6g}' for z in degenerate[k].coords)}) lies on a "
            f"curve of critical points, tangent to ({', '.join(f'{z:.4g}' for z in v)}) in log coordinates "
            f"(witness residual {least[k]:.1e}); the critical locus is not isolated"
        )


def _points(W: Superpotential, exponents, coeffs, us, R) -> list[CriticalPoint]:
    """The distinct critical points of Newton runs that end at log coordinates
    us with residuals R (inf: not converged), sorted and checked by
    `_isolated`. Each cell is one point, centred at its first sample of least
    residual, its basin the cell's size: a `_cells` cell at WIDE_TOL that
    ranks degenerate at that centre, or a cell of the other cells' samples
    cut again at CLUSTER_TOL. So a degenerate wide cell is taken to be one
    point: no other lies within about 2e-3 of a coordinate's largest modulus."""
    X, R = np.exp(us[np.isfinite(R)]), R[np.isfinite(R)]
    # canonical order: real, then imaginary part of each coordinate, then residual
    order = np.lexsort([R] + [part for z in X.T[::-1] for part in (z.imag, z.real)])
    X, R = X[order], R[order]

    cells = _cells(X, WIDE_TOL)
    ranked = _numeric_points(exponents, coeffs, X[[rows[R[rows].argmin()] for rows in cells]])
    simple = np.sort(np.concatenate([np.arange(0)] + [rows for rows, p in zip(cells, ranked) if p.nondegenerate]))
    cells = [rows for rows, p in zip(cells, ranked) if not p.nondegenerate]
    cells = sorted(cells + [simple[rows] for rows in _cells(X[simple], CLUSTER_TOL)], key=lambda rows: rows[0])
    # Each centre measured at its reported coordinates exp(u), not at Newton's u. Every sample converged, so
    # every cell is a point, even where the absolute residual there reads above NEWTON_TOL by rounding.
    numeric = _numeric_points(exponents, coeffs, X[[rows[R[rows].argmin()] for rows in cells]])

    points = []
    for rows, point in zip(cells, numeric):
        point = point._replace(cluster_size=len(rows))
        # Candidate: near-real coordinates rounded to denominators <= 12. A
        # generous tol cannot certify a wrong point, as the exact gradient must
        # vanish there; the bound only limits which rational points are found.
        snap = CLUSTER_TOL if point.nondegenerate else WIDE_TOL
        snapped = tuple(Fraction(z.real).limit_denominator(12) for z in point.coords)
        near = all(abs(z.imag) <= snap and s != 0 and abs(float(s) - z.real) <= snap * max(1.0, abs(float(s)))
                   for s, z in zip(snapped, point.coords))
        points.append(_certified(W, point, snapped if near else None))
    points.sort(key=_coords_key)
    _isolated(exponents, coeffs, points)
    return points


def _coords_key(p: CriticalPoint):
    return tuple(part for z in p.coords for part in value_key(z))  # blind to the last bits


def _closed_points(W: Superpotential, exponents, coeffs, us, R) -> tuple[CriticalPoint, ...]:
    """`_points`, closed under two symmetries of the critical locus: complex
    conjugation (W's coefficients are real) and the sign vectors {+-1}^d with
    residual below NEWTON_TOL that `_certified` makes exact. A candidate is
    found within WIDE_TOL of a degenerate point or CLUSTER_TOL of another, per
    coordinate; each one added has basin 0 and goes through `_isolated`."""
    points = _points(W, exponents, coeffs, us, R)
    found = np.array([p.coords for p in points], dtype=complex).reshape(len(points), W.dim)
    tol = np.array([CLUSTER_TOL if p.nondegenerate else WIDE_TOL for p in points])[:, None, None]
    candidates = np.concatenate([found.conj(), np.array(list(itertools.product((1.0, -1.0), repeat=W.dim)))])
    fresh = ~(np.abs(candidates[None] - found[:, None]) <= tol * np.abs(found[:, None])).all(axis=2).any(axis=0)
    conjugates, signs = candidates[:len(points)][fresh[:len(points)]], candidates[len(points):][fresh[len(points):]]
    signs = signs[np.max(np.abs(_gradient(exponents, _terms(exponents, coeffs, np.log(signs)))), axis=1) < NEWTON_TOL]
    numeric = _numeric_points(exponents, coeffs, np.concatenate([conjugates, signs]))
    exact = [_certified(W, p, tuple(Fraction(z.real) for z in p.coords)) for p in numeric[len(conjugates):]]
    added = [p._replace(cluster_size=0) for p in numeric[:len(conjugates)] + [p for p in exact if p.exact]]
    _isolated(exponents, coeffs, added)
    for p in added:  # into the sorted points, keying about log2 of them
        bisect.insort(points, p, key=_coords_key)
    return tuple(points)


def solve(W: Superpotential, expected_count: int, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Multistart Newton solve; deterministic for fixed cfg.seed.

    Start moduli are log-uniform in [1/2, 2] with uniform phases. Start k is
    what default_rng([seed, k]) would draw, bit for bit, from one vectorised
    pass over a range of k (`_starts`), drawn only when it runs; numpy.random
    is never loaded. Every row of the batched Newton kernel runs
    independently, so results depend neither on the width of its pool nor
    on the number of processes that share the rows (`_newton_per_cpu`).

    A default budget runs only the first _PROBE_PER_POINT starts per expected
    point if they close the count (see the module docstring), else all starts.
    Raises NotIsolated on a curve of critical points, OverCount past
    expected_count.
    """
    exponents, coeffs = _arrays(W)
    n_starts = cfg.budget(expected_count)
    probe = min(n_starts, _PROBE_PER_POINT * expected_count) if cfg.starts is None else n_starts
    us, R = _newton_per_cpu(exponents, coeffs, _starts(cfg.seed, 0, probe, W.dim))
    report = SolveReport(expected_count, _closed_points(W, exponents, coeffs, us, R), len(us))
    if probe < n_starts and report.verdict is not Verdict.SEMISIMPLE:
        rest_us, rest_R = _newton_per_cpu(exponents, coeffs, _starts(cfg.seed, probe, n_starts, W.dim))
        us, R = np.concatenate([us, rest_us]), np.concatenate([R, rest_R])
        report = SolveReport(expected_count, _closed_points(W, exponents, coeffs, us, R), len(us))
    if report.found_count > expected_count:
        raise OverCount(
            f"found {report.found_count} distinct critical points, expected at most {expected_count}; "
            "the critical locus may not be isolated, or expected_count is wrong"
        )
    return report


def verify_point(W: Superpotential, p) -> CriticalPoint:
    """Residual, Hessian rank and value at a given point, no iteration.

    The point is evaluated numerically and, when it is real, certified as a
    solved point is (`_certified`) at its coordinates converted exactly to
    rationals. So a residual of 0 is a certificate, not a float comparison,
    and a float near an irrational critical point stays numeric.
    """
    if any(z == 0 for z in p):
        raise ValueError("point has a zero coordinate; not on the torus")
    point = _numeric_points(*_arrays(W), [tuple(complex(z) for z in p)])[0]
    point = _certified(W, point, None if any(complex(z).imag for z in p) else tuple(Fraction(z.real) for z in p))
    if point.residual >= NEWTON_TOL:
        raise NotCritical(f"log-gradient max-norm {point.residual:g} exceeds {NEWTON_TOL:g}")
    return point


def classify(report: SolveReport) -> str:
    """A human-readable justification of the report's verdict, citing counts and ranks."""
    nondeg = sum(1 for p in report.points if p.nondegenerate)
    degenerate = report.found_count - nondeg
    lines = [
        f"found {report.found_count} of {report.expected_count} expected critical points "
        f"({nondeg} nondegenerate, {degenerate} degenerate)"
    ]
    if report.verdict is Verdict.SEMISIMPLE:
        lines.append("all expected critical points found and nondegenerate: semisimple")
    elif report.verdict is Verdict.FIELD_SUMMAND:
        lines.append("at least one nondegenerate critical point: contains a field direct summand")
        if degenerate:
            ranks = sorted(p.hessian_rank for p in report.points if not p.nondegenerate)
            lines.append(f"degenerate point ranks: {ranks}; not semisimple")
        if report.deficit > 0 and degenerate:
            lines.append(f"deficit {report.deficit} must be absorbed by multiplicities >= 2 "
                         "at degenerate points if no roots were missed")
        elif report.deficit > 0:
            lines.append(f"deficit {report.deficit}: some roots were not located")
    else:
        lines.append("no nondegenerate critical point located: undetermined")
    return "; ".join(lines)


def report_to_json(report: SolveReport) -> str:
    return json.dumps({
        "expected": report.expected_count,
        "found": report.found_count,
        "points": [
            {
                "coords": [[z.real, z.imag] for z in p.coords],
                "residual": p.residual,
                "rank": p.hessian_rank,
                "nondeg": p.nondegenerate,
            }
            for p in report.points
        ],
        "verdict": report.verdict.value,
        "critical_values": [[z.real, z.imag] for z in report.critical_values],
    }, sort_keys=True, indent=1)


def spectrum_to_json(report: SolveReport) -> str:
    """The spectrum as rows [re, im, multiplicity lower bound, degenerate]."""
    rows = [[z.real, z.imag, 1, degenerate] for z, degenerate in report.spectrum]
    return json.dumps({"values": rows}, sort_keys=True)

import cmath
import functools
import json
from fractions import Fraction

import numpy as np
import pytest


def frac(x) -> Fraction:
    return Fraction(x)


def fracs(seq):
    return tuple(Fraction(x) for x in seq)


def fraction_solve(rows, rhs):
    """x with rows @ x = rhs for a square system, by Fraction Gauss-Jordan
    elimination; None when the rows are dependent. A reference that shares
    nothing with the package's integer elimination."""
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(m[i][n] for i in range(n))


def match_complex_sets(found, expected, tol=1e-8):
    """Greedy matching of two complex multisets within tol; order-free."""
    found = sorted(found, key=lambda z: (z.real, z.imag))
    expected = sorted(expected, key=lambda z: (z.real, z.imag))
    if len(found) != len(expected):
        return False
    remaining = list(expected)
    for z in found:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - z))
        if abs(remaining[best] - z) > tol:
            return False
        remaining.pop(best)
    return True


def match_point_sets(found, expected, tol=1e-8):
    """Match multisets of coordinate tuples within tol per coordinate."""
    if len(found) != len(expected):
        return False
    remaining = list(expected)
    for p in found:
        for i, q in enumerate(remaining):
            if all(abs(a - b) <= tol for a, b in zip(p, q)):
                remaining.pop(i)
                break
        else:
            return False
    return True


def kernel(W, u):
    """Value, log-gradient and log-Hessian of W at one point in log
    coordinates u, from the solver's batched floating-point kernel."""
    from toricqh import solver

    exponents, coeffs = solver._arrays(W)
    t = solver._terms(exponents, coeffs, np.array([u], dtype=complex))
    return t.sum(axis=1)[0], solver._gradient(exponents, t)[0], solver._hessian(solver._outer(exponents), t)[0]


def exact_kernel(W, p):
    """Value, log-gradient and log-Hessian of W at a rational point p, as
    Fractions, from the solver's integer path: `kernel`'s functions run on
    the exact term values over their common denominator."""
    from toricqh import solver

    n, t, den = solver._exact_terms(W, fracs(p))
    hessian = solver._hessian(solver._outer(n), t)
    return (Fraction(t.sum(), den), tuple(Fraction(g, den) for g in solver._gradient(n, t)),
            tuple(tuple(Fraction(h, den) for h in row) for row in hessian))


def integer_kernel(rows, ncols):
    """(D times the reduced-echelon kernel basis, D) read off the package's
    elimination, one integer vector per free column. With ncols - 1
    independent rows the one vector is, up to sign, the signed maximal minors
    of the rows."""
    from toricqh import _exact

    pivots, d, m = _exact.echelon(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [0] * ncols
            v[fc] = d
            for row, pc in zip(m, pivots):
                v[pc] = -row[fc]
            basis.append(v)
    return basis, d


def affine_hessian(W, p):
    """The second partials d^2 W / dx_i dx_j at a critical point p, as
    D^-1 L D^-1 for the exact log-Hessian L and D = diag(p); the log-gradient
    term of L vanishes there."""
    _, gradient, log_hessian = exact_kernel(W, p)
    assert not any(gradient), "p is not a critical point"
    return tuple(tuple(h / (p[i] * p[j]) for j, h in enumerate(row)) for i, row in enumerate(log_hessian))


def cp_closed_form(d: int):
    """Analytic oracle for projective d-space: the critical points of
    sum x_j + prod 1/x_j have all coordinates equal to a (d+1)-st root of
    unity zeta, where W evaluates to (d+1) zeta. The values come sorted by
    value_key, in the order of `SolveReport.spectrum`."""
    from toricqh.solver import value_key

    if d < 1:
        raise ValueError("dimension must be >= 1")
    values = []
    for k in range(d + 1):
        zeta = cmath.exp(2j * cmath.pi * k / (d + 1))
        values.append((d + 1) * zeta)
    values.sort(key=value_key)
    return tuple(values)


def roots_of_unity(n):
    return [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]


@pytest.fixture(scope="session")
def u8():
    from toricqh import corpus

    return corpus.build("u8")


class BatyrevRing:
    """Batyrev's ring of a catalog entry at q = s = 1, read from its emitted
    presentation: the linear relations are solved for the z of one maximal
    cone, and the rest span a grevlex Groebner basis of the quantum
    relations. Each standard monomial's multiplication matrix is an integer
    matrix, a lower standard monomial's times one generator's."""

    def __init__(self, name):
        import sympy

        from toricqh import corpus
        from toricqh.batyrev import presentation, to_json

        fan, F = corpus.build(name)
        pres = presentation(fan, F)
        z = sympy.symbols(f"z0:{len(pres.rays)}")
        pivots = [z[i] for i in fan.maximal_cones[0]]
        free = [v for v in z if v not in pivots]
        linear = [sum(c * v for c, v in zip(rel["coeffs"], z)) for rel in json.loads(to_json(pres))["linear"]]
        (sub,) = sympy.solve(linear, pivots, dict=True)
        quantum = [
            sympy.expand((sympy.Mul(*[z[i] for i in rel.collection]) - sympy.Mul(*[z[i] ** m for i, m in rel.a])).subs(sub))
            for rel in pres.quantum
        ]
        basis = sympy.groebner(quantum, *free, order="grevlex")
        leads = [sympy.Poly(g, *free).monoms(order="grevlex")[0] for g in basis.exprs]
        standard, frontier = set(), [(0,) * len(free)]
        while frontier:  # monomials divisible by no leading monomial; finitely many
            m = frontier.pop()
            if m not in standard and not any(all(a >= b for a, b in zip(m, lead)) for lead in leads):
                standard.add(m)
                frontier.extend(tuple(e + (i == k) for i, e in enumerate(m)) for k in range(len(free)))
        self.monomials = sorted(standard, key=lambda m: (sum(m), m))  # each after its divisors
        index = {m: i for i, m in enumerate(self.monomials)}
        n = len(index)
        self.generators = np.zeros((len(free), n, n), dtype=object)  # multiplication by each free z
        for k in range(len(free)):
            for m, j in index.items():
                up = tuple(e + (i == k) for i, e in enumerate(m))
                if up in index:
                    self.generators[k, index[up], j] = 1
                    continue
                _, rem = basis.reduce(sympy.Mul(*[v**e for v, e in zip(free, up)]))
                for mono, coeff in sympy.Poly(rem, *free).terms():
                    assert coeff.is_integer, (name, coeff)
                    self.generators[k, index[mono], j] = int(coeff)
        self.products = [np.identity(n, dtype=int).astype(object)]
        for m in self.monomials[1:]:
            k = next(i for i, e in enumerate(m) if e)
            lower = tuple(e - (i == k) for i, e in enumerate(m))
            self.products.append(self.generators[k] @ self.products[index[lower]])
        c1 = sympy.Poly(sympy.expand(sum(z).subs(sub)), *free)
        self.c1 = sum(int(c1.coeff_monomial(v)) * g for v, g in zip(free, self.generators))

    @functools.cached_property
    def charpoly(self):
        """The characteristic polynomial of c1, in the symbol lam."""
        import sympy

        return sympy.Matrix(self.c1.tolist()).charpoly(sympy.Symbol("lam")).as_expr()

    @functools.cached_property
    def eigenvalues(self) -> list[complex]:
        """The distinct eigenvalues of c1: the roots of the irreducible factors
        of its characteristic polynomial."""
        import sympy

        return [complex(r) for factor, _ in sympy.factor_list(self.charpoly)[1] for r in sympy.Poly(factor).nroots(n=30)]

    def trace_form(self):
        """Tr(m_i m_j) over the standard monomials m_i, m_j."""
        return [[int((a * b.T).sum()) for b in self.products] for a in self.products]


@pytest.fixture(scope="session")
def batyrev_ring():
    """name -> `BatyrevRing`, each built once per session."""
    return functools.cache(BatyrevRing)

import itertools
import random
from fractions import Fraction

import pytest

from conftest import integer_kernel
from toricqh import _exact, corpus, lattice
from toricqh._exact import affine_rank, dot, primitive, ratvec, vsub
from toricqh.errors import NotFullDimensional, OriginNotInterior
from toricqh.fan import kushnirenko_bound
from toricqh.lattice import (
    Facet,
    Polytope,
    convex_hull_facets,
    dual_polytope,
    is_delzant,
    is_reflexive,
    lattice_points,
    normalized_volume,
)

SQUARE = [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def square(side=1):
    return Polytope.from_points([(x * side, y * side) for x, y in SQUARE])


def test_hypercube_facets():
    facets = convex_hull_facets([ratvec(v) for v in SQUARE])
    assert len(facets) == 4
    assert set(f.normal for f in facets) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert all(f.offset == -1 for f in facets)


def test_triangle_facets():
    facets = convex_hull_facets([ratvec(v) for v in [(0, 0), (1, 0), (0, 1)]])
    assert len(facets) == 3


def test_u8_dual_has_24_facets():
    P = corpus.entry("u8").ray_polytope()
    assert len(P.vertices) == 10
    assert len(P.facets) == 24


def test_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        convex_hull_facets([ratvec(v) for v in [(0, 0), (1, 1), (2, 2)]])


def test_non_extreme_points_dropped():
    P = Polytope.from_points(SQUARE + [(0, 0), (1, 0)])
    assert len(P.vertices) == 4


def test_from_points_keeps_one_hull_per_point_set():
    points = [(3, 0), (0, 2), (-1, -1), (0, 0)]
    P = Polytope.from_points(points)
    assert Polytope.from_points(points[::-1] + [(0, 2), (Fraction(-1), Fraction(-2, 2))]) is P


@pytest.mark.parametrize("name", ["u8", "bl_points_5"])
def test_kushnirenko_bound_reuses_the_entry_hull(name, monkeypatch):
    corpus.entry(name).ray_polytope()
    calls = []
    hull = lattice.convex_hull_facets
    monkeypatch.setattr(lattice, "convex_hull_facets", lambda points: calls.append(points) or hull(points))
    kushnirenko_bound(corpus.build(name)[0])
    assert calls == []


def test_dual_square_is_cross_polytope():
    D = dual_polytope(square())
    assert set(D.vertices) == {ratvec(v) for v in [(1, 0), (-1, 0), (0, 1), (0, -1)]}


def test_dual_involution_u8():
    P = corpus.entry("u8").ray_polytope()
    assert dual_polytope(dual_polytope(P)).vertices == P.vertices


def test_dual_involution_catalog():
    for e in corpus.catalog():
        P = e.ray_polytope()
        assert dual_polytope(dual_polytope(P)).vertices == P.vertices, e.name


def test_dual_requires_interior_origin():
    shifted = Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(OriginNotInterior):
        dual_polytope(shifted)


def test_u8_dual_counts():
    P = corpus.entry("u8").ray_polytope()
    D = dual_polytope(P)
    assert len(D.vertices) == 24
    assert len(lattice_points(D)) == 59


def test_reflexive_u8():
    ok, why = is_reflexive(corpus.entry("u8").ray_polytope())
    assert ok and why is None


def test_reflexive_rejects_shifted_square():
    ok, why = is_reflexive(Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert not ok
    assert "interior" in why


def test_reflexive_rejects_stretched_cross():
    P = Polytope.from_points([(2, 0), (-2, 0), (0, 1), (0, -1)])
    ok, why = is_reflexive(P)
    assert not ok
    assert "non-integral" in why
    D = dual_polytope(P)
    assert ratvec((Fraction(1, 2), Fraction(-1))) in D.vertices or any(
        x.denominator == 2 for v in D.vertices for x in v
    )


def test_lattice_points_interval():
    P = Polytope.from_points([(-1,), (1,)])
    assert lattice_points(P) == [(-1,), (0,), (1,)]


def test_lattice_points_u8_dual():
    P = corpus.entry("u8").ray_polytope()
    assert len(lattice_points(P)) == 11


def test_reflexive_interior_is_origin():
    for e in corpus.catalog():
        P = e.ray_polytope()
        interior = [p for p in lattice_points(P) if all(dot(p, f.normal) > f.offset for f in P.facets)]
        assert interior == [(0,) * e.dim], e.name


def test_delzant_examples():
    assert is_delzant(dual_polytope(corpus.entry("u8").ray_polytope()))[0]
    assert is_delzant(Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)]))[0]
    ok, why = is_delzant(Polytope.from_points([(0, 0), (2, 0), (0, 1)]))
    assert not ok
    assert "basis" in why


def test_normalized_volume_simplices():
    for d in range(1, 5):
        pts = [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]
        assert normalized_volume(Polytope.from_points(pts)) == 1


def test_normalized_volume_square():
    assert normalized_volume(square()) == 8


def test_normalized_volume_u8_dual():
    assert normalized_volume(corpus.entry("u8").ray_polytope()) == 24


def product(P, Q):
    """The product polytope in the direct-sum lattice: the hull of the vertex pairs."""
    return Polytope.from_points([p + q for p in P.vertices for q in Q.vertices])


def test_product_reflexive():
    cp2 = corpus.entry("cp2").ray_polytope()
    cp1 = corpus.entry("cp1").ray_polytope()
    assert is_reflexive(product(cp2, cp1))[0]


def test_product_volume_multiplicativity():
    # normalized volumes multiply by binomial(d1+d2, d1) under products
    simplex2 = Polytope.from_points([(0, 0), (1, 0), (0, 1)])
    simplex1 = Polytope.from_points([(0,), (1,)])
    prod = product(simplex2, simplex1)
    assert normalized_volume(prod) == 3  # binom(3,1) * 1 * 1
    sq = square()
    prod2 = product(sq, simplex1)
    assert normalized_volume(prod2) == 3 * normalized_volume(sq)  # binom(3,1) * 8 * 1


def _oracle_facets(points):
    """Independent hull oracle: test every d-subset of the points for being
    a supporting hyperplane."""
    pts = sorted(set(ratvec(p) for p in points))
    d = len(pts[0])
    facets = set()
    for subset in itertools.combinations(pts, d):
        if affine_rank(list(subset)) != d - 1:
            continue
        ker, _ = integer_kernel([vsub(p, subset[0]) for p in subset[1:]], d)
        if len(ker) != 1:
            continue
        n = primitive(ker[0])
        c = dot(subset[0], n)
        vals = [dot(p, n) for p in pts]
        for normal, offset in ((n, c), (tuple(-x for x in n), -c)):
            if all(dot(p, normal) >= offset for p in pts):
                support = [p for p in pts if dot(p, normal) == offset]
                if affine_rank(support) == d - 1:
                    facets.add(Facet(normal, Fraction(offset)))
    return sorted(facets)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hull_matches_oracle(d):
    rng = random.Random(1000 + d)
    done = 0
    while done < 25:
        pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(rng.randint(d + 1, 8))]
        if affine_rank([ratvec(p) for p in pts]) < d:
            continue
        assert convex_hull_facets([ratvec(p) for p in pts]) == _oracle_facets(pts)
        done += 1


def _moment_points(name):
    """Every lattice point of a moment polytope, with its vertices standing in
    for them in the oracle: C(35, 3) subsets would take the oracle seconds."""
    M = dual_polytope(corpus.entry(name).ray_polytope())
    return lattice_points(M), M.vertices


def _rational_points(k):
    """A seeded rational point set in dimension 2 to 5 with collinear points."""
    rng, d = random.Random(29 + k), 2 + k % 4
    while True:
        pts = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)) for _ in range(d + 4)]
        a, b = pts[0], pts[1]
        pts += [tuple(x + t * (y - x) for x, y in zip(a, b)) for t in (Fraction(1, 2), 2)]
        if affine_rank(pts) == d:
            return pts, pts


def _cube(d):
    return (list(itertools.product((-1, 1), repeat=d)),) * 2


def _cross(d):
    return ([tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (-1, 1)],) * 2


# name -> (points, a point set of the same hull for the oracle), built in the
# test: every catalog ray polytope's vertices (bl_points_5 has 20 facets of 6)
_HULL_INPUTS = {
    **{e.name: lambda e=e: (e.dual_vertices,) * 2 for e in corpus.catalog()},
    "cp2_moment_points": lambda: _moment_points("cp2"),
    "cp3_moment_points": lambda: _moment_points("cp3"),
    "cube3": lambda: _cube(3),
    "cube4": lambda: _cube(4),
    "cross3": lambda: _cross(3),
    "cross4": lambda: _cross(4),
    **{f"rational_{k}": lambda k=k: _rational_points(k) for k in range(8)},
}


@pytest.mark.parametrize("name", list(_HULL_INPUTS))
def test_hull_matches_oracle_on_degenerate_and_reordered_inputs(name):
    # the rays built along the way depend on the order of the points; the
    # facets must not
    points, same_hull = _HULL_INPUTS[name]()
    points = [ratvec(p) for p in points]
    expected = _oracle_facets(same_hull)
    rng = random.Random(name)
    for _ in range(4):
        assert convex_hull_facets(points) == expected
        rng.shuffle(points)


@pytest.mark.parametrize("entry", corpus.catalog(), ids=lambda e: e.name)
def test_hull_eliminations_stay_bounded(entry, monkeypatch):
    # eliminations per ray-polytope hull: one per d-subset of the rays plus a
    # rank check with the C(n, d) scan (793 on bl_points_5, 211 on u8 and
    # bl_points_4, d + 2 on cp_d); one with the double-description hull
    calls = []
    eliminate = _exact._eliminate
    monkeypatch.setattr(_exact, "_eliminate", lambda m, ncols: calls.append(ncols) or eliminate(m, ncols))
    convex_hull_facets([ratvec(v) for v in entry.dual_vertices])
    assert len(calls) <= entry.dim + 2, len(calls)


@pytest.mark.parametrize("entry", corpus.catalog(), ids=lambda e: e.name)
def test_hull_finds_its_vertices_without_a_further_elimination(entry, monkeypatch):
    # the hull of every lattice point of the ray polytope, the origin and the
    # points inside faces included, has the rays as vertices; they are read off
    # the facet incidences, so the hull's own elimination is the only one
    P = Polytope.from_points(entry.dual_vertices)
    pts = tuple(ratvec(p) for p in lattice_points(P))
    calls = []
    eliminate = _exact._eliminate
    monkeypatch.setattr(_exact, "_eliminate", lambda m, ncols: calls.append(ncols) or eliminate(m, ncols))
    hull = lattice._hull(pts)
    assert len(calls) == 1
    assert (hull.vertices, hull.facets) == (P.vertices, P.facets)

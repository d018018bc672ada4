import itertools
import random
from fractions import Fraction

import pytest

from toricqh import corpus, lattice
from toricqh._exact import affine_rank, dot, kernel, primitive, ratvec, vsub
from toricqh.errors import NotFullDimensional, OriginNotInterior
from toricqh.fan import kushnirenko_bound
from toricqh.lattice import (
    Facet,
    Polytope,
    convex_hull_facets,
    dual_polytope,
    interior_lattice_points,
    is_delzant,
    is_reflexive,
    lattice_points,
    normalized_volume,
    polytope_product,
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
        assert interior_lattice_points(P) == [(0,) * e.dim], e.name


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


def test_volume_apex_independent():
    P = corpus.entry("u8").ray_polytope()
    v0 = normalized_volume(P)
    assert normalized_volume(P, apex=(0, 0, 0, 0)) == v0
    assert normalized_volume(P, apex=(Fraction(1, 7), 0, Fraction(-1, 9), Fraction(1, 5))) == v0


def test_product_of_intervals_is_square():
    interval = Polytope.from_points([(-1,), (1,)])
    prod = polytope_product(interval, interval)
    assert prod.vertices == square().vertices
    assert sorted(prod.facets) == sorted(square().facets)


def test_product_reflexive():
    cp2 = corpus.entry("cp2").ray_polytope()
    cp1 = corpus.entry("cp1").ray_polytope()
    assert is_reflexive(polytope_product(cp2, cp1))[0]


def test_product_volume_multiplicativity():
    # normalized volumes multiply by binomial(d1+d2, d1) under products
    simplex2 = Polytope.from_points([(0, 0), (1, 0), (0, 1)])
    simplex1 = Polytope.from_points([(0,), (1,)])
    prod = polytope_product(simplex2, simplex1)
    assert normalized_volume(prod) == 3  # binom(3,1) * 1 * 1
    sq = square()
    prod2 = polytope_product(sq, simplex1)
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
        ker = kernel([vsub(p, subset[0]) for p in subset[1:]], d)
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

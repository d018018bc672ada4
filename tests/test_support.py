from fractions import Fraction

import pytest

from toricqh import corpus
from toricqh.errors import NotDelzant, NotStrictlyConvex
from toricqh.lattice import Polytope, dual_polytope, lattice_points
from toricqh.support import (
    SupportFunction,
    is_strictly_convex,
    moment_polytope,
    support_from_polytope,
)


def bl1_support(alpha, beta):
    fan = corpus.build("bl1_cp2")[0]
    table = {
        (1, 0): Fraction(0),
        (0, 1): Fraction(0),
        (0, -1): Fraction(beta) - Fraction(alpha),
        (-1, -1): -Fraction(alpha),
    }
    return fan, SupportFunction(fan, tuple(table[r] for r in fan.rays))


def test_monotone_values():
    fan, F = corpus.build("cp2")
    assert F.values == (Fraction(-1),) * 3


def test_monotone_strictly_convex_on_catalog_fano():
    for e in corpus.catalog():
        fan, F = corpus.build(e.name)
        ok, _ = is_strictly_convex(F)
        assert ok == (e.name not in {"bl_points_3", "bl_points_4", "bl_points_5"}), e.name  # nef only


def test_zero_support_not_strictly_convex():
    fan = corpus.build("cp2")[0]
    F = SupportFunction(fan, (Fraction(0),) * 3)
    ok, witness = is_strictly_convex(F)
    assert not ok
    assert witness is not None


@pytest.mark.parametrize(
    "alpha,beta,expected",
    [(2, 1, True), (5, 2, True), (1, 1, False), (1, 2, False), (1, Fraction(-1, 2), False)],
)
def test_bl1_convexity_regime(alpha, beta, expected):
    _, F = bl1_support(alpha, beta)
    assert is_strictly_convex(F)[0] == expected


def test_moment_polytope_square():
    fan, F = corpus.build("cp1xcp1")
    P = moment_polytope(F)
    assert set(P.vertices) == {
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(1)),
        (Fraction(-1), Fraction(-1)),
    }


def test_moment_polytope_u8():
    fan, F = corpus.build("u8")
    P = moment_polytope(F)
    assert len(P.vertices) == 24
    assert len(lattice_points(P)) == 59
    assert P.vertices == dual_polytope(corpus.entry("u8").ray_polytope()).vertices


def test_moment_polytope_vertex_cone_bijection():
    for name in ("cp2", "cp1xcp1", "bl2_cp2", "u8"):
        fan, F = corpus.build(name)
        assert len(moment_polytope(F).vertices) == len(fan.maximal_cones)


def test_moment_polytope_trapezoid():
    _, F = bl1_support(2, 1)
    P = moment_polytope(F)
    assert set(P.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    }


def test_moment_polytope_requires_strict_convexity():
    fan = corpus.build("cp2")[0]
    with pytest.raises(NotStrictlyConvex):
        moment_polytope(SupportFunction(fan, (Fraction(0),) * 3))


def test_support_from_square():
    P = Polytope.from_points([(-1, -1), (-1, 1), (1, -1), (1, 1)])
    fan, F = support_from_polytope(P)
    assert sorted(fan.rays) == sorted(corpus.build("cp1xcp1")[0].rays)
    assert set(F.values) == {Fraction(-1)}


def test_support_from_polytope_rejects_non_delzant():
    with pytest.raises(NotDelzant):
        support_from_polytope(Polytope.from_points([(0, 0), (2, 0), (0, 1)]))


def test_round_trip_u8():
    fan, F = corpus.build("u8")
    fan2, F2 = support_from_polytope(moment_polytope(F))
    assert fan2.rays == fan.rays
    assert fan2.cones == fan.cones
    assert F2.values == F.values


def test_round_trip_trapezoid_raw_offsets():
    fan, F = bl1_support(2, 1)
    fan2, F2 = support_from_polytope(moment_polytope(F))
    assert fan2.rays == fan.rays
    assert F2.values == F.values


def test_round_trip_after_global_linear_shift():
    # adding a global linear form to the values translates the moment
    # polytope; raw offsets recover the shifted values exactly
    fan, F = corpus.build("cp2")
    shift = (1, 2)
    shifted = SupportFunction(
        fan,
        tuple(v + sum(s * r for s, r in zip(shift, ray)) for v, ray in zip(F.values, fan.rays)),
    )
    assert is_strictly_convex(shifted)[0]
    fan2, F2 = support_from_polytope(moment_polytope(shifted))
    assert F2.values == shifted.values

import itertools
import random

import pytest

from toricqh import corpus
from toricqh._exact import rank
from toricqh.errors import NotReflexive, NotSimplicial
from toricqh.fan import (
    Cone,
    Fan,
    ZERO_CONE,
    fan_from_reflexive,
    fan_product,
    is_complete,
    is_smooth,
    kushnirenko_bound,
    minimal_cone_containing,
    primitive_collections,
)
from toricqh.lattice import Polytope, normalized_volume


def fan_of(name):
    return corpus.build(name)[0]


def test_cp2_fan_shape():
    f = fan_of("cp2")
    assert len(f.rays) == 3
    assert len(f.maximal_cones) == 3


def test_cp1xcp1_fan_shape():
    f = fan_of("cp1xcp1")
    assert len(f.rays) == 4
    assert len(f.maximal_cones) == 4


def test_u8_fan_shape():
    f = fan_of("u8")
    assert len(f.rays) == 10
    assert len(f.maximal_cones) == 24


def test_fan_from_non_reflexive_rejected():
    P = Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(NotReflexive):
        fan_from_reflexive(P)


def test_fan_from_non_simplicial_rejected():
    cube = Polytope.from_points(list(itertools.product((-1, 1), repeat=3)))
    with pytest.raises(NotSimplicial):
        fan_from_reflexive(cube)


def test_smoothness():
    assert is_smooth(fan_of("u8")) == (True, None)
    assert is_smooth(fan_of("cp2")) == (True, None)
    bad = Fan.from_maximal_cones(2, [(1, 0), (1, 2)], [(0, 1)])
    ok, offender = is_smooth(bad)
    assert not ok
    assert offender == Cone((0, 1))


def test_completeness():
    assert is_complete(fan_of("cp2"))
    assert is_complete(fan_of("u8"))
    orthant = Fan.from_maximal_cones(2, [(1, 0), (0, 1)], [(0, 1)])
    assert not is_complete(orthant)


def test_minimal_cone_zero_vector():
    cone, coeffs = minimal_cone_containing(fan_of("cp2"), (0, 0))
    assert cone == ZERO_CONE
    assert coeffs == {}


def test_minimal_cone_on_ray():
    f = fan_of("bl1_cp2")
    idx = f.rays.index((0, -1))
    cone, coeffs = minimal_cone_containing(f, (0, -1))
    assert cone == Cone((idx,))
    assert coeffs == {idx: 1}


def test_minimal_cone_interior():
    f = fan_of("cp2")
    e1, e2 = f.rays.index((1, 0)), f.rays.index((0, 1))
    cone, coeffs = minimal_cone_containing(f, (1, 1))
    assert cone == Cone(tuple(sorted((e1, e2))))
    assert coeffs == {e1: 1, e2: 1}


@pytest.mark.parametrize("name", ["cp2", "bl3_cp2", "u8"])
def test_minimal_cone_soundness_random(name):
    f = fan_of(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(25):
        v = tuple(rng.randint(-5, 5) for _ in range(f.dim))
        cone, coeffs = minimal_cone_containing(f, v)
        assert all(c > 0 for c in coeffs.values())
        assert set(coeffs) == set(cone.ray_indices)
        rebuilt = tuple(
            sum(c * f.rays[i][k] for i, c in coeffs.items()) for k in range(f.dim)
        )
        assert rebuilt == v


def test_primitive_collections_cp2():
    f = fan_of("cp2")
    assert primitive_collections(f) == [(0, 1, 2)]


def test_primitive_collections_bl1_cp2():
    f = fan_of("bl1_cp2")
    by_rays = [tuple(f.rays[i] for i in c) for c in primitive_collections(f)]
    assert sorted(by_rays) == sorted(
        [((-1, -1), (1, 0)), ((0, -1), (0, 1))]
    )


def test_primitive_collections_cp1xcp1():
    f = fan_of("cp1xcp1")
    by_rays = [frozenset(f.rays[i] for i in c) for c in primitive_collections(f)]
    assert frozenset({(1, 0), (-1, 0)}) in by_rays
    assert frozenset({(0, 1), (0, -1)}) in by_rays
    assert len(by_rays) == 2


def test_primitive_collection_definition_recheck():
    for name in ("cp1", "cp2", "cp1xcp1", "bl1_cp2", "bl2_cp2", "bl3_cp2", "u8"):
        f = fan_of(name)
        stored = {frozenset(c.ray_indices) for cones in f.cones.values() for c in cones}
        collections = primitive_collections(f)
        for c in collections:
            s = frozenset(c)
            assert s not in stored
            for i in c:
                assert s - {i} in stored
        # exhaustive re-enumeration over all subset sizes
        expected = []
        for size in range(2, len(f.rays) + 1):
            for subset in itertools.combinations(range(len(f.rays)), size):
                s = frozenset(subset)
                if s not in stored and all(s - {i} in stored for i in subset):
                    expected.append(subset)
        assert collections == expected, name


def test_fan_axioms_catalog():
    for e in corpus.catalog():
        f = corpus.build(e.name)[0]
        stored = {frozenset(c.ray_indices) for cones in f.cones.values() for c in cones}
        for s in stored:
            for k in range(len(s)):
                for sub in itertools.combinations(sorted(s), k):
                    assert frozenset(sub) in stored, e.name
        for a, b in itertools.combinations(stored, 2):
            assert a & b in stored, e.name


def test_simplicial_cones_have_independent_rays():
    for e in corpus.catalog():
        f = corpus.build(e.name)[0]
        for cone in f.maximal_cones:
            assert rank(f.ray_matrix(cone)) == len(cone.ray_indices)


def test_euler_count_matches_volume_for_fano_entries():
    for e in corpus.catalog():
        f = corpus.build(e.name)[0]
        vol = normalized_volume(e.ray_polytope())
        if e.monotone_ample:
            assert vol == len(f.maximal_cones), e.name
        else:
            # subdivided fans of non-Fano blow-ups can have fewer cones
            assert vol >= len(f.maximal_cones), e.name
        assert kushnirenko_bound(f) == vol


def test_fan_product_cp1_cp1():
    prod = fan_product(fan_of("cp1"), fan_of("cp1"))
    direct = fan_of("cp1xcp1")
    assert sorted(prod.rays) == sorted(direct.rays)
    assert len(prod.maximal_cones) == 4
    prod_cones = {frozenset(prod.rays[i] for i in c.ray_indices) for c in prod.maximal_cones}
    direct_cones = {frozenset(direct.rays[i] for i in c.ray_indices) for c in direct.maximal_cones}
    assert prod_cones == direct_cones


def test_fan_product_counts():
    assert len(fan_product(fan_of("u8"), fan_of("cp1")).maximal_cones) == 48
    assert len(fan_product(fan_of("cp2"), fan_of("cp1")).maximal_cones) == 6

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import fraction_solve
from toricqh import _exact, corpus, lattice
from toricqh._exact import dot, rank
from toricqh.cli import run_cli
from toricqh.errors import NotReflexive, NotSimplicial
from toricqh.fan import (
    Fan,
    fan_from_reflexive,
    is_complete,
    is_smooth,
    kushnirenko_bound,
    minimal_cone_containing,
    primitive_collections,
)
from toricqh.lattice import Polytope, normalized_volume
from toricqh.support import is_strictly_convex


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
    bad = Fan(2, [(1, 0), (1, 2)], [(0, 1)])
    ok, offender = is_smooth(bad)
    assert not ok
    assert offender == (0, 1)


def test_completeness():
    assert is_complete(fan_of("cp2"))
    assert is_complete(fan_of("u8"))
    orthant = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert not is_complete(orthant)


CP2_RAYS = [(1, 0), (0, 1), (-1, -1)]
CP2_CONES = [(0, 1), (1, 2), (0, 2)]


def test_duplicate_rays_rejected():
    with pytest.raises(ValueError, match="pairwise distinct"):
        Fan(2, [(1, 0), (0, 1), (1, 0)], [(0, 1)])


def test_cone_on_dependent_rays_rejected():
    with pytest.raises(NotSimplicial, match=r"rays \(0, 1\) are linearly dependent"):
        Fan(2, [(1, 0), (-1, 0)], [(0, 1)])


def test_lower_dimensional_maximal_cone_makes_the_fan_incomplete():
    assert is_complete(Fan(2, CP2_RAYS, CP2_CONES))
    assert not is_complete(Fan(2, CP2_RAYS + [(1, 1)], CP2_CONES + [(3,)]))


def test_listing_a_face_again_changes_nothing():
    fan = Fan(2, CP2_RAYS, CP2_CONES)
    again = Fan(2, CP2_RAYS, CP2_CONES + [(2, 1), (0,)])
    assert again.cones == fan.cones
    assert is_complete(again) and is_complete(fan)


def test_each_predicate_runs_once_per_fan(capsys):
    is_smooth.cache_clear()
    is_complete.cache_clear()
    assert run_cli(["presentation", "u8", "--json"]) == 0
    capsys.readouterr()
    for predicate in (is_smooth, is_complete):
        info = predicate.cache_info()
        assert info.misses == 1 and info.hits > 0, (predicate.__name__, info)


def test_minimal_cone_zero_vector():
    assert minimal_cone_containing(fan_of("cp2"), (0, 0)) == {}


def test_minimal_cone_on_ray():
    f = fan_of("bl1_cp2")
    idx = f.rays.index((0, -1))
    assert minimal_cone_containing(f, (0, -1)) == {idx: 1}


def test_minimal_cone_interior():
    f = fan_of("cp2")
    e1, e2 = f.rays.index((1, 0)), f.rays.index((0, 1))
    coeffs = minimal_cone_containing(f, (1, 1))
    assert tuple(coeffs) == tuple(sorted((e1, e2)))  # the cone, in cone order
    assert coeffs == {e1: 1, e2: 1}


@pytest.mark.parametrize("v", [(Fraction(1, 2), 0), (0.9, 0.9), (0, 1e-9)])
def test_minimal_cone_rejects_a_non_integral_vector(v):
    with pytest.raises(ValueError, match="integral vector"):
        minimal_cone_containing(fan_of("cp2"), v)


def test_minimal_cone_reads_integral_fractions_and_floats_as_integers():
    f = fan_of("cp2")
    e1, e2 = f.rays.index((1, 0)), f.rays.index((0, 1))
    coeffs = minimal_cone_containing(f, (Fraction(2), 1.0))
    assert coeffs == {e1: 2, e2: 1} and all(type(c) is int for c in coeffs.values())


@pytest.mark.parametrize("name", ["cp2", "cp3", "bl3_cp2", "u8"])
def test_minimal_cone_matches_a_fraction_solve_over_a_box(name):
    # the first maximal cone whose coordinates of v are all nonnegative, by a
    # Fraction solve per cone; its positive coordinates are the answer
    f = fan_of(name)
    for v in itertools.product(range(-2, 3), repeat=f.dim):
        for cone in f.maximal_cones:
            x = fraction_solve(list(zip(*f.ray_matrix(cone))), v)
            if all(c >= 0 for c in x):
                break
        assert all(c.denominator == 1 for c in x)
        assert minimal_cone_containing(f, v) == {i: int(c) for i, c in zip(cone, x) if c > 0}, v


def _table_fans():
    """Every catalog fan, then fans with cones that are not unimodular, one of
    them with a maximal cone of lower dimension."""
    yield from (corpus.build(e.name)[0] for e in corpus.catalog())
    yield Fan(2, [(1, 0), (1, 2)], [(0, 1)])
    yield Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    yield Fan(3, [(2, 1, 0), (0, 3, 1), (1, 0, 5), (-1, -1, -1)], [(2, 0, 1), (3,)])
    yield Fan(3, [(1, 0, 0), (0, 1, 0), (1, 1, -3)], [(0, 1, 2)])


def test_each_d_cone_stores_d_times_the_inverse_of_its_rays():
    for f in _table_fans():
        assert tuple(f.inverses) == f.maximal_cones
        for cone, (d, inverse) in f.inverses.items():
            # (D B^-1) B = D I, B having the cone's rays as columns
            product = [[dot(row, ray) for ray in f.ray_matrix(cone)] for row in inverse]
            assert product == [[d * (i == j) for j in range(f.dim)] for i in range(f.dim)], (f, cone)
        assert is_smooth(f)[0] == all(abs(_exact.det(f.ray_matrix(c))) == 1 for c in f.maximal_cones), f


@pytest.fixture
def eliminations(monkeypatch):
    """The widths of the eliminations run from here on, with no fan, hull or
    polytope fact cached beforehand."""
    monkeypatch.setattr(corpus, "build", lru_cache(maxsize=None)(lambda name: corpus.entry(name).build()))
    monkeypatch.setattr(lattice, "_hulls", {})
    for cached in (lattice.dual_polytope, lattice.is_reflexive, lattice.is_delzant):
        cached.cache_clear()
    calls = []
    eliminate = _exact._eliminate
    monkeypatch.setattr(_exact, "_eliminate", lambda m, ncols: calls.append(ncols) or eliminate(m, ncols))
    return calls


@pytest.mark.parametrize("command", ["fan", "presentation", "check"])
@pytest.mark.parametrize("entry", corpus.catalog(), ids=lambda e: e.name)
def test_fan_facts_cost_one_elimination_per_maximal_cone(entry, command, eliminations, capsys):
    # the rank check, smoothness, cone forms and minimal-cone queries all read
    # the one elimination per maximal cone made when the fan is built (a solve
    # per query and cone made 338 on `presentation bl_points_5`); beyond it, a
    # face fan needs the ray polytope's hull, and `check` the hull and one
    # Delzant determinant per vertex of the moment polytope
    assert run_cli([command, entry.name]) == 0
    capsys.readouterr()
    count = len(eliminations)
    hull = int(command == "check" or entry.fan_builder is None)
    delzant = len(lattice.dual_polytope(entry.ray_polytope()).vertices) if command == "check" else 0
    assert count <= len(corpus.build(entry.name)[0].maximal_cones) + hull + delzant, count


def test_check_on_u8s_polytope_file_runs_49_eliminations(tmp_path, eliminations, capsys):
    # 24 maximal cones, the hull, and 24 Delzant determinants
    rows = corpus.entry("u8").dual_vertices
    path = tmp_path / "u8.txt"
    path.write_text(f"4 {len(rows)}\n" + "".join(" ".join(map(str, v)) + "\n" for v in rows))
    assert run_cli(["check", str(path)]) == 0
    capsys.readouterr()
    assert len(eliminations) <= 49, len(eliminations)


@pytest.mark.parametrize("name", ["cp2", "bl3_cp2", "u8"])
def test_minimal_cone_soundness_random(name):
    f = fan_of(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(25):
        v = tuple(rng.randint(-5, 5) for _ in range(f.dim))
        coeffs = minimal_cone_containing(f, v)
        cone = tuple(coeffs)
        assert all(c > 0 for c in coeffs.values())
        assert cone in f.cones[len(cone)]
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
        stored = {frozenset(c) for cones in f.cones.values() for c in cones}
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
        stored = {frozenset(c) for cones in f.cones.values() for c in cones}
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
            assert rank(f.ray_matrix(cone)) == len(cone)


def test_euler_count_matches_volume_for_fano_entries():
    for e in corpus.catalog():
        f, F = corpus.build(e.name)
        vol = normalized_volume(e.ray_polytope())
        if is_strictly_convex(F)[0]:  # the monotone class is ample: a Fano entry
            assert vol == len(f.maximal_cones), e.name
        else:
            # subdivided fans of non-Fano blow-ups can have fewer cones
            assert vol >= len(f.maximal_cones), e.name
        assert kushnirenko_bound(f) == vol

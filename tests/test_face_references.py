"""The faces a polytope or fan is built with, against the scans they replaced:
each `Polytope`'s incidence against vertex-facet dot products, `is_complete`
against a subset scan over the stored cones, and `primitive_collections`
against a scan over every ray subset. The references share nothing with the
package's own face bookkeeping."""

import itertools
import random
from fractions import Fraction

import pytest

from toricqh import corpus
from toricqh._exact import affine_rank, dot
from toricqh.errors import NotComplete
from toricqh.fan import Fan, is_complete, primitive_collections
from toricqh.lattice import Polytope, dual_polytope
from toricqh.support import SupportFunction, is_strictly_convex, moment_polytope


def reference_incidence(P: Polytope) -> tuple[frozenset[int], ...]:
    """For each facet, the indices of the vertices on it, by dot products on
    the scaled integer vertices and offsets."""
    _, vertices, offsets = P.scaled
    return tuple(
        frozenset(i for i, v in enumerate(vertices) if dot(v, f.normal) == c) for f, c in zip(P.facets, offsets)
    )


def reference_is_complete(f: Fan) -> bool:
    """All maximal cones are d-dimensional and every (d-1)-cone lies in
    exactly two of them, by testing each cone against each d-cone as sets."""
    top_sets = [set(c) for c in f.maximal_cones]
    if not top_sets:
        return False
    for k, cones in f.cones.items():
        if k == f.dim:
            continue
        for c in cones:
            if not any(set(c) <= t for t in top_sets):
                return False  # a maximal cone of dimension < d
    for ridge in f.cones.get(f.dim - 1, ()):
        count = sum(1 for t in top_sets if set(ridge) <= t)
        if count != 2:
            return False
    return True


def reference_primitive_collections(f: Fan) -> list[tuple[int, ...]]:
    """All minimal non-faces of size 2 to d + 1, by a scan over every ray
    subset of those sizes."""
    stored = {frozenset(c) for cones in f.cones.values() for c in cones}
    collections = []
    for size in range(2, f.dim + 2):
        for subset in itertools.combinations(range(len(f.rays)), size):
            s = frozenset(subset)
            if s in stored:
                continue
            if all(s - {i} in stored for i in subset):
                collections.append(subset)
    return collections


def assert_faces_agree(P: Polytope):
    assert P.incidence == reference_incidence(P)
    # the vertices are the extreme points: each is cut out by its facets
    for i in range(len(P.vertices)):
        assert frozenset.intersection(*(g for g in P.incidence if i in g)) == {i}


def assert_fan_facts_agree(f: Fan):
    assert is_complete(f) == reference_is_complete(f)
    if is_complete(f):
        assert primitive_collections(f) == reference_primitive_collections(f)
    else:
        with pytest.raises(NotComplete):
            primitive_collections(f)


@pytest.mark.parametrize("entry", corpus.catalog(), ids=lambda e: e.name)
def test_catalog_hull_dual_and_moment_polytope_carry_their_incidence(entry):
    P = Polytope.from_points(entry.dual_vertices)
    fan, F = corpus.build(entry.name)
    if not is_strictly_convex(F)[0]:  # bl_points_d: value -2/5 on the d + 1 rays of P^d is strictly convex
        F = SupportFunction(fan, tuple(Fraction(-2 if i <= fan.dim else -5, 5) for i in range(len(fan.rays))))
    for Q in (P, dual_polytope(P), moment_polytope(F)):
        assert_faces_agree(Q)
    assert_fan_facts_agree(fan)


def _random_points(rng, d):
    while True:
        pts = [tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(d))
               for _ in range(rng.randint(d + 1, d + 7))]
        if affine_rank(pts) == d:
            return pts


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_random_hulls_and_their_duals_carry_their_incidence(d):
    rng = random.Random(3500 + d)
    duals = 0
    for _ in range(30):
        P = Polytope.from_points(_random_points(rng, d))
        assert_faces_agree(P)
        if all(f.offset < 0 for f in P.facets):
            assert_faces_agree(dual_polytope(P))
            duals += 1
    assert duals >= 3


def _face_fan(P: Polytope) -> Fan | None:
    """The face fan of an integral polytope with simplicial facets and the
    origin inside, or None."""
    if not P.is_integral() or any(f.offset >= 0 for f in P.facets) or any(len(g) != P.dim for g in P.incidence):
        return None
    return Fan(P.dim, P.vertices, P.incidence)


CP2 = ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
HAND_BUILT = {
    "cp2": (2, *CP2),
    "cp2_with_an_unused_ray": (2, CP2[0] + [(1, 1)], CP2[1]),
    "cp2_with_a_stray_ray_cone": (2, CP2[0] + [(1, 1)], CP2[1] + [(3,)]),
    "cp2_missing_a_cone": (2, CP2[0], CP2[1][:2]),
    "orthant": (2, [(1, 0), (0, 1)], [(0, 1)]),
    "two_rays_only": (2, [(1, 0), (0, 1)], [(0,), (1,)]),
    "half_plane": (2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)]),
    "no_cones": (2, [(1, 0), (0, 1)], []),
    "cp1": (1, [(1,), (-1,)], [(0,), (1,)]),
    "half_line": (1, [(1,), (-1,)], [(0,)]),
    "cp1xcp1": (2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]),
    # a ridge in three 2-cones: (1, 0) with the cones on both sides twice over
    "overlapping": (2, [(1, 0), (0, 1), (0, -1), (-1, 0), (1, 1)], [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4)]),
    # cp3 with one 3-cone replaced by its three 2-faces
    "cp3_hollow": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                   [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2), (1, 3), (2, 3)]),
    # bl_points_3-like: a 3-fan whose minimal non-faces have sizes 2 and 3
    "octahedron": (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
                   [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]),
}


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_hand_built_fans_agree_with_the_subset_scans(name):
    dim, rays, maximal = HAND_BUILT[name]
    assert_fan_facts_agree(Fan(dim, rays, maximal))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_face_fans_and_their_cone_subsets_agree_with_the_subset_scans(d):
    rng = random.Random(3600 + d)
    complete = incomplete = 0
    while complete < 8:
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d + 2, d + 6))]
        if affine_rank(pts) < d:
            continue
        fan = _face_fan(Polytope.from_points(pts))
        if fan is None:
            continue
        assert_fan_facts_agree(fan)
        complete += reference_is_complete(fan)
        for _ in range(3):  # a random part of the fan: a proper subset of its cones, some cut to a face
            kept = [c if rng.random() < 0.8 else c[:rng.randint(1, d - 1)]
                    for c in fan.maximal_cones if rng.random() < 0.85]
            part = Fan(d, fan.rays, kept)
            assert_fan_facts_agree(part)
            incomplete += not reference_is_complete(part)
    assert incomplete >= 8

"""The benchmark's own copies of the example polytopes, and the seeded input
generator.

The vertex lists are the ray polytopes (dual side) of the worked examples.
They are kept here, not read from the package, so that the inputs and the
independent checks do not depend on the code under test.
"""

import random

IntVec = tuple[int, ...]


def cp_vertices(d: int) -> tuple[IntVec, ...]:
    """Projective d-space: the standard basis and -(1, ..., 1)."""
    basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return tuple(basis + [(-1,) * d])


def bl_cp2_vertices(k: int) -> tuple[IntVec, ...]:
    """Projective plane blown up at k torus-fixed points."""
    return ((1, 0), (0, 1), (-1, -1)) + ((0, -1), (-1, 0), (1, 1))[:k]


def bl_points_vertices(d: int) -> tuple[IntVec, ...]:
    """Projective d-space blown up at its d + 1 fixed points: +-e_j, +-(1, ..., 1)."""
    rays = []
    for i in range(d):
        e = tuple(int(i == j) for j in range(d))
        rays += [e, tuple(-x for x in e)]
    return tuple(rays + [(1,) * d, (-1,) * d])


U8_VERTICES: tuple[IntVec, ...] = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 1),
    (0, -1, 0, 1), (0, 1, 0, -1), (0, -1, 0, 0), (0, 0, 0, -1), (0, 0, -1, -1),
)

# Smooth Fano entries: their fan is the face fan of the ray polytope, so a
# polytope file gives the same variety as the catalog name.
FANO: dict[str, tuple[IntVec, ...]] = {
    **{f"cp{d}": cp_vertices(d) for d in range(1, 7)},
    "cp1xcp1": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    **{f"bl{k}_cp2": bl_cp2_vertices(k) for k in (1, 2, 3)},
    "u8": U8_VERTICES,
}

# The bl_points_d fans are star subdivisions, not face fans, so these entries
# are only reachable by catalog name. Their rays are still the listed vertices.
BL_POINTS: dict[str, tuple[IntVec, ...]] = {f"bl_points_{d}": bl_points_vertices(d) for d in (3, 4, 5)}

RAYS: dict[str, tuple[IntVec, ...]] = {**FANO, **BL_POINTS}


# lattice.lattice_points tries the facets in sorted order and stops at the
# first one a candidate violates, so its cost depends on the coordinate signs:
# `check cp6` takes about 12 s in the catalog's orientation and about 80 s in
# most others. Drawn signs would make the work of cp5 and cp6 depend on the
# seed, so their signs are fixed. cp6 keeps the fast orientation, because the
# slow one does not fit a run; cp5 takes a slow one, about 3x its fast cost,
# so the dependence stays measured. For both, every coordinate permutation
# gives the same work.
FIXED_SIGNS = {"cp5": -1, "cp6": 1}


def signed_permutation(rng: random.Random, d: int, sign: int | None = None) -> tuple[list[int], list[int]]:
    """A random lattice automorphism that permutes and negates coordinates;
    with `sign` given, every coordinate gets that sign."""
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) if sign is None else sign for _ in range(d)]
    return perm, signs


def transform(rows, perm, signs) -> list[IntVec]:
    return [tuple(s * row[p] for p, s in zip(perm, signs)) for row in rows]


def polytope_file(name: str, rng: random.Random) -> str:
    """The entry's ray polytope under a random signed coordinate permutation,
    rows in random order, in the `d n` vertex-list format.

    Signed permutations keep every count that `check` reports and the size of
    the lattice-point bounding box.
    """
    rows = FANO[name]
    d = len(rows[0])
    perm, signs = signed_permutation(rng, d, FIXED_SIGNS.get(name))
    out = transform(rows, perm, signs)
    rng.shuffle(out)
    lines = [f"# {name} under coordinate permutation {perm} and signs {signs}", f"{d} {len(out)}"]
    lines += [" ".join(str(x) for x in row) for row in out]
    return "\n".join(lines) + "\n"

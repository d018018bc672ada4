"""Polytope file format and the built-in catalog of worked examples.

File format: first line "d n", then n lines of d integers each; `#` starts a
comment. Rows are read as the vertices of the ray polytope (the dual side)
unless the caller flips the interpretation.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from ._exact import IntVec
from .errors import ParseError, UnknownInput
from .fan import Fan, fan_from_reflexive
from .lattice import Polytope
from .support import SupportFunction, monotone_support


@dataclass(frozen=True)
class PolytopeFile:
    dim: int
    count: int
    rows: tuple[IntVec, ...]


def parse_polytope(text: str) -> PolytopeFile:
    """Parse the vertex-list format, whitespace-tolerant, with positioned errors."""
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            data_lines.append((lineno, stripped))
    if not data_lines:
        raise ParseError("empty input", line=1)

    lineno, header = data_lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"header must be 'd n', got {header!r}", line=lineno)
    try:
        dim, count = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"header must contain two integers, got {header!r}", line=lineno)
    if dim < 1 or count < 1:
        raise ParseError(f"dimension and count must be positive, got {dim} {count}", line=lineno)

    body = data_lines[1:]
    if len(body) != count:
        raise ParseError(f"expected {count} rows, found {len(body)}", line=lineno)
    rows = []
    for lineno, line in body:
        fields = line.split()
        if len(fields) != dim:
            raise ParseError(f"expected {dim} integers, found {len(fields)}", line=lineno)
        row = []
        for col, tok in enumerate(fields, start=1):
            try:
                value = int(tok)
            except ValueError:
                raise ParseError(f"not an integer: {tok!r}", line=lineno, column=col)
            if not -(2**63) <= value < 2**63:
                raise ParseError(f"entry {value} exceeds signed 64-bit range", line=lineno, column=col)
            row.append(value)
        rows.append(tuple(row))
    return PolytopeFile(dim, count, tuple(rows))


def serialize_polytope(pf: PolytopeFile) -> str:
    lines = [f"{pf.dim} {pf.count}"]
    lines += [" ".join(str(x) for x in row) for row in pf.rows]
    return "\n".join(lines) + "\n"


def cp_vertices(d: int) -> tuple[IntVec, ...]:
    """Ray polytope of projective d-space: the standard basis plus -(1..1)."""
    basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return tuple(basis + [(-1,) * d])


def cp1xcp1_vertices() -> tuple[IntVec, ...]:
    return ((1, 0), (-1, 0), (0, 1), (0, -1))


def bl_cp2_vertices(k: int) -> tuple[IntVec, ...]:
    """Projective plane blown up at k torus-fixed points, k in 1..3."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    rays = [(1, 0), (0, 1), (-1, -1)]
    extra = [(0, -1), (-1, 0), (1, 1)]
    return tuple(rays + extra[:k])


def bl_points_vertices(d: int) -> tuple[IntVec, ...]:
    """Projective d-space blown up at its d+1 torus-fixed points:
    rays {+-e_j} united with {+-(1,..,1)}. Supported for 2 <= d <= 5."""
    if not 2 <= d <= 5:
        raise ValueError("d must be between 2 and 5")
    rays = []
    for i in range(d):
        e = tuple(int(i == j) for j in range(d))
        rays += [e, tuple(-x for x in e)]
    rays += [(1,) * d, (-1,) * d]
    return tuple(rays)


def bl_points_fan(d: int) -> Fan:
    """Fan of projective d-space blown up at its d+1 torus-fixed points,
    by star subdivision of each maximal cone at the sum of its rays.

    For d >= 3 the blow-up is not Fano: the convex hull of the rays has
    non-simplicial facets, this fan refines its face fan, and the
    anticanonical support function is convex but not strictly convex.
    """
    if not 2 <= d <= 5:
        raise ValueError("d must be between 2 and 5")
    base = list(cp_vertices(d))  # r_0 .. r_d summing to zero
    rays = base + [tuple(-x for x in r) for r in base]
    maximal = []
    for j in range(d + 1):
        # the cone spanned by all r_i, i != j, is subdivided at -r_j
        others = [i for i in range(d + 1) if i != j]
        for rho in others:
            maximal.append(tuple(sorted([len(base) + j] + [i for i in others if i != rho])))
    return Fan.from_maximal_cones(d, rays, maximal)


U8_VERTICES: tuple[IntVec, ...] = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 0, 1),
    (0, -1, 0, 1),
    (0, 1, 0, -1),
    (0, -1, 0, 0),
    (0, 0, 0, -1),
    (0, 0, -1, -1),
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    dual_vertices: tuple[IntVec, ...]
    provenance: str
    monotone_ample: bool = True  # False when the anticanonical class is only nef
    fan_builder: Callable[[], Fan] | None = field(default=None, compare=False)

    def ray_polytope(self) -> Polytope:
        return Polytope.from_points(self.dual_vertices)

    def build(self) -> tuple[Fan, SupportFunction]:
        fan = fan_from_reflexive(self.ray_polytope()) if self.fan_builder is None else self.fan_builder()
        return fan, monotone_support(fan)


def _entries() -> list[CatalogEntry]:
    entries = []
    for d in range(1, 7):
        entries.append(
            CatalogEntry(f"cp{d}", d, cp_vertices(d), f"complex projective {d}-space")
        )
    entries.append(
        CatalogEntry("cp1xcp1", 2, cp1xcp1_vertices(), "product of two projective lines")
    )
    for k in (1, 2, 3):
        entries.append(
            CatalogEntry(
                f"bl{k}_cp2", 2, bl_cp2_vertices(k),
                f"projective plane blown up at {k} point{'s' if k > 1 else ''}",
            )
        )
    # d = 2 coincides with bl3_cp2 (same ray set), so the listing starts at 3
    # to keep exactly five two-dimensional entries. For d >= 3 these are not
    # Fano; their fan is the star subdivision, not the hull's face fan.
    for d in (3, 4, 5):
        entries.append(
            CatalogEntry(
                f"bl_points_{d}", d, bl_points_vertices(d),
                f"projective {d}-space blown up at {d + 1} torus-fixed points",
                monotone_ample=False,
                fan_builder=lambda d=d: bl_points_fan(d),
            )
        )
    entries.append(
        CatalogEntry(
            "u8", 4, U8_VERTICES,
            "entry U_8 (no. 116) in Batyrev's classification of toric Fano 4-folds",
        )
    )
    return entries


@lru_cache(maxsize=None)
def catalog() -> tuple[CatalogEntry, ...]:
    return tuple(_entries())


def entry(name: str) -> CatalogEntry:
    for e in catalog():
        if e.name == name:
            return e
    raise UnknownInput(f"no catalog entry named {name!r}")


@lru_cache(maxsize=None)
def build(name: str) -> tuple[Fan, SupportFunction]:
    """Cached fan + monotone support for a catalog entry."""
    return entry(name).build()

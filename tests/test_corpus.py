import pytest

from toricqh import corpus
from toricqh.corpus import (
    bl_points_fan,
    bl_points_vertices,
    parse_polytope,
)
from toricqh.errors import ParseError, UnknownInput
from toricqh.fan import fan_from_reflexive, is_complete, is_smooth
from toricqh.lattice import Polytope
from toricqh.support import is_strictly_convex

U8_TEXT = (
    "4 10\n"
    "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n-1 0 0 1\n"
    "0 -1 0 1\n0 1 0 -1\n0 -1 0 0\n0 0 0 -1\n0 0 -1 -1\n"
)


def test_parse_u8_vertices():
    rows = parse_polytope(U8_TEXT)
    assert len(rows) == 10 and {len(row) for row in rows} == {4}
    assert set(rows) == set(corpus.entry("u8").dual_vertices)


def test_parse_simplex():
    assert parse_polytope("2 3\n1 0\n0 1\n-1 -1\n") == ((1, 0), (0, 1), (-1, -1))


def test_parse_row_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_polytope("2 3\n1 0\n0 1\n")
    assert "expected 3 rows" in str(err.value)


def test_parse_bad_token_has_position():
    with pytest.raises(ParseError) as err:
        parse_polytope("2 2\n1 0\n0 x\n")
    assert err.value.line == 3
    assert err.value.column == 2


def test_parse_wrong_width():
    with pytest.raises(ParseError) as err:
        parse_polytope("2 2\n1 0\n0 1 2\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("", 1, "empty input"),
        ("# only a comment\n\n", 1, "empty input"),
        ("\n2 3 1\n1 0\n", 2, "header must be 'd n', got '2 3 1'"),
        ("2\n1 0\n", 1, "header must be 'd n', got '2'"),
        ("# header next\n2 x\n1 0\n", 2, "header must contain two integers, got '2 x'"),
        ("2.0 3\n1 0\n", 1, "header must contain two integers, got '2.0 3'"),
        ("0 3\n", 1, "dimension and count must be positive, got 0 3"),
        ("2 -1\n", 1, "dimension and count must be positive, got 2 -1"),
    ],
)
def test_parse_header_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_polytope(text)
    assert (err.value.line, err.value.column) == (line, None)
    assert str(err.value) == f"{message} (line {line})"


def test_parse_comments_and_whitespace():
    text = "# ray polytope\n 2   3 \n1 0 # first\n\n0 1\n-1 -1\n"
    assert parse_polytope(text) == ((1, 0), (0, 1), (-1, -1))


def test_parse_overflow_rejected():
    with pytest.raises(ParseError):
        parse_polytope(f"1 1\n{2**63}\n")


def test_serialize_round_trip():
    def serialize(rows):
        return "\n".join([f"{len(rows[0])} {len(rows)}"] + [" ".join(map(str, row)) for row in rows]) + "\n"

    rows = parse_polytope(U8_TEXT)
    assert parse_polytope(serialize(rows)) == rows
    assert serialize(parse_polytope(serialize(rows))) == serialize(rows)


def test_catalog_shape():
    entries = corpus.catalog()
    names = [e.name for e in entries]
    assert names == [
        "cp1", "cp2", "cp3", "cp4", "cp5", "cp6",
        "cp1xcp1", "bl1_cp2", "bl2_cp2", "bl3_cp2",
        "bl_points_3", "bl_points_4", "bl_points_5", "u8",
    ]
    assert sum(1 for e in entries if e.dim == 2) == 5


def test_catalog_unknown_name():
    with pytest.raises(UnknownInput):
        corpus.entry("nope")


def test_catalog_u8_counts():
    fan, _ = corpus.build("u8")
    assert len(fan.rays) == 10
    assert len(fan.maximal_cones) == 24


def test_catalog_health():
    for e in corpus.catalog():
        fan, F = corpus.build(e.name)
        assert is_smooth(fan)[0], e.name
        assert is_complete(fan), e.name
        # the anticanonical class is ample exactly on the Fano entries; the
        # higher blow-ups of projective space carry it as a nef class only
        assert is_strictly_convex(F)[0] == (e.name not in {"bl_points_3", "bl_points_4", "bl_points_5"}), e.name


def test_bl_points_2_equals_bl3_cp2():
    assert set(bl_points_vertices(2)) == set(corpus.entry("bl3_cp2").dual_vertices)
    hex_fan = corpus.build("bl3_cp2")[0]
    sub_fan = bl_points_fan(2)
    assert sorted(sub_fan.rays) == sorted(hex_fan.rays)
    relabel = {i: hex_fan.rays.index(r) for i, r in enumerate(sub_fan.rays)}
    sub_cones = {
        frozenset(relabel[i] for i in c) for c in sub_fan.maximal_cones
    }
    hex_cones = {frozenset(c) for c in hex_fan.maximal_cones}
    assert sub_cones == hex_cones


def test_bl_points_fan_counts():
    for d in (2, 3, 4, 5):
        fan = bl_points_fan(d)
        assert fan.rays == bl_points_vertices(d)
        assert len(fan.rays) == 2 * d + 2
        assert len(fan.maximal_cones) == d * (d + 1)
        assert is_smooth(fan)[0] and is_complete(fan)


def test_file_pipeline_matches_catalog():
    rows = parse_polytope("2 3\n1 0\n0 1\n-1 -1\n")
    fan = fan_from_reflexive(Polytope.from_points(rows))
    direct = corpus.build("cp2")[0]
    assert fan.rays == direct.rays
    assert fan.cones == direct.cones

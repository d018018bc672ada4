"""Answers do not depend on the lattice basis or on the order of the rays.

A catalog entry's rays are written to a polytope file through a random
GL(d, Z) matrix, a product of elementary unimodular moves, in a random row
order. `check` must then report what it reports for the entry itself;
`solve` must find the same points with the same verdict and critical values;
and `presentation` must give the same relations once its rays are mapped
back through the matrix.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import match_complex_sets
from toricqh import corpus
from toricqh._exact import solve
from toricqh.cli import run_cli

SMOOTH_FANO = ("cp1", "cp2", "cp3", "cp4", "cp5", "cp6", "cp1xcp1", "bl1_cp2", "bl2_cp2", "bl3_cp2", "u8")
MOVE = st.tuples(st.sampled_from(("add", "sub", "swap", "negate")), st.integers(0, 5), st.integers(0, 5))
SETTINGS = dict(deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _unimodular(d, moves):
    """The product of the moves on the rows of the d x d identity."""
    M = [[int(i == j) for j in range(d)] for i in range(d)]
    for kind, i, j in moves:
        i, j = i % d, j % d
        if kind == "negate" or i == j:
            M[i] = [-x for x in M[i]]
        elif kind == "swap":
            M[i], M[j] = M[j], M[i]
        else:
            sign = 1 if kind == "add" else -1
            M[i] = [a + sign * b for a, b in zip(M[i], M[j])]
    return M


def _write_transformed(path, name, data):
    rows = corpus.entry(name).dual_vertices
    d = len(rows[0])
    M = _unimodular(d, data.draw(st.lists(MOVE, min_size=1, max_size=6)))
    out = [tuple(sum(m * x for m, x in zip(row, ray)) for row in M) for ray in rows]
    out = data.draw(st.permutations(out))
    path.write_text(f"{d} {len(out)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in out))
    return str(path), M


def _run(capsys, *argv):
    code = run_cli(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", SMOOTH_FANO)
@settings(max_examples=5, **SETTINGS)
@given(data=st.data())
def test_check_is_invariant_under_lattice_automorphisms(name, data, tmp_path, capsys):
    path, _ = _write_transformed(tmp_path / "rays.txt", name, data)
    code, out = _run(capsys, "check", path)
    ref_code, ref_out = _run(capsys, "check", name)
    assert code == ref_code == 0
    assert out.splitlines()[0] == f"input: {path}"
    assert out.splitlines()[1:] == ref_out.splitlines()[1:]


def _solve_summary(out):
    report = json.loads(out)
    return report["found"], report["verdict"], sorted(p["rank"] for p in report["points"])


@pytest.mark.parametrize("name", ("cp2", "bl1_cp2"))
@settings(max_examples=5, **SETTINGS)
@given(data=st.data())
def test_solve_is_invariant_under_lattice_automorphisms(name, data, tmp_path, capsys):
    path, _ = _write_transformed(tmp_path / "rays.txt", name, data)
    code, out = _run(capsys, "solve", path, "--json")
    ref_code, ref_out = _run(capsys, "solve", name, "--json")
    assert code == ref_code == 0
    assert _solve_summary(out) == _solve_summary(ref_out)
    values, ref_values = ([complex(*z) for z in json.loads(o)["critical_values"]] for o in (out, ref_out))
    assert match_complex_sets(values, ref_values, tol=1e-8)


def _relations(presentation, rays):
    """Quantum relations as a set of (rays of C, rays of sigma_C with their
    multiplicities, support value per involved ray), free of ray indices."""
    return {
        (
            frozenset(rays[i] for i in rel["C"]),
            frozenset((rays[int(i)], m) for i, m in rel["a"].items()),
            frozenset(zip((rays[i] for i in sorted(set(rel["C"]) | set(rel["sigmaC"]))), rel["sF"])),
        )
        for rel in presentation["quantum"]
    }


@pytest.mark.parametrize("name", ("cp2", "cp3", "cp1xcp1", "bl3_cp2", "u8"))
@settings(max_examples=5, **SETTINGS)
@given(data=st.data())
def test_presentation_is_invariant_under_lattice_automorphisms(name, data, tmp_path, capsys):
    path, M = _write_transformed(tmp_path / "rays.txt", name, data)
    code, out = _run(capsys, "presentation", path, "--json")
    ref_code, ref_out = _run(capsys, "presentation", name, "--json")
    assert code == ref_code == 0
    got, ref = json.loads(out), json.loads(ref_out)
    back = [tuple(int(x) for x in solve(M, r)) for r in got["rays"]]
    ref_rays = [tuple(r) for r in ref["rays"]]
    assert sorted(back) == sorted(ref_rays)
    assert _relations(got, back) == _relations(ref, ref_rays)
    order = [back.index(r) for r in ref_rays]
    rows = [[rel["coeffs"][k] for k in order] for rel in got["linear"]]
    ref_rows = [rel["coeffs"] for rel in ref["linear"]]
    assert rows == [[sum(m * row[j] for m, row in zip(M_row, ref_rows)) for j in range(len(order))] for M_row in M]

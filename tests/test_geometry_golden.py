"""Byte-for-byte CLI output of the geometry commands, recorded with the
Fraction box scan, the (d-1)-subset hull and the Fraction elimination loops.

Cases: `check`, `fan` and `presentation --json` for every catalog entry;
`check` on the cp5, cp6 and u8 ray polytopes under two signed coordinate
permutations each; and `check`, `fan` and `presentation --json` on the u8
moment polytope read with `--primal`. Input files are stored with the cases
and written to a temporary working directory, so labels are bare file names.
"""

import json
from pathlib import Path

import pytest

from toricqh.cli import run_cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "geometry_golden.json").read_text())


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]))
def test_geometry_output_matches_golden(case, golden_dir, capsys):
    code = run_cli(case["argv"])
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == case["stdout"]

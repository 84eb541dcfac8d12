"""Smoke runs of the demo scripts in a fresh working directory.

demos/flat_interface_study.py is left out: its three adaptive runs to
30,000 dofs take several seconds, too long for a smoke test.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# demo script -> the files it leaves in the working directory
WRITES = {"layer_coefficients.py": [],
          "corner_singularity.py": ["corner_fields.vtk"]}


@pytest.mark.parametrize("script", sorted(WRITES))
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert sorted(p.name for p in tmp_path.iterdir()) == WRITES[script]

"""Every demo script runs to completion in-process."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, capsys):
    assert run_demo(name, capsys)


def test_demo_02_degrading_and_simulating_routes_agree(capsys):
    out = run_demo("02_channels_and_decompositions.py", capsys)
    # thermal over 200 random draws, then the amplifier variant
    residuals = [float(v) for v in re.findall(r"(?:draws|max residual): (\S+)", out)]
    assert len(residuals) == 2
    assert max(residuals) < 1e-10

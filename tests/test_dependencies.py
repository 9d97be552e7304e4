"""The package runs on numpy alone."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bosonic_bounds

ROOT = Path(__file__).resolve().parents[1]


def test_import_does_not_load_scipy():
    code = "import sys, bosonic_bounds, bosonic_bounds.cli; print('scipy' in sys.modules)"
    src = str(Path(bosonic_bounds.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names = [re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0]
             for d in meta["project"]["dependencies"]]
    assert names == ["numpy"]

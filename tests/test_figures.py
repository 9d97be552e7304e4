"""The paper's figure path: each checked-in figure sweep, run in-process,
formats to the reference CSV byte for byte.

The references in `bench/refs/` are the benchmark's; this test only reads
them.
"""

from pathlib import Path

import pytest

from bosonic_bounds import cli

REFS = Path(__file__).resolve().parent.parent / "bench" / "refs"


@pytest.mark.parametrize("fig", cli.FIGURES)
def test_figure_csv_matches_reference(fig):
    spec = cli.load_figure_spec(fig)
    got = cli.format_csv(spec, cli.run_sweep(spec))
    assert got.encode("utf-8") == (REFS / f"fig{fig}.csv").read_bytes()

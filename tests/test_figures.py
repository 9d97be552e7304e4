"""The paper's figure path: each checked-in figure sweep, run in-process,
formats to the reference CSV byte for byte, and its values match the
reference within the benchmark's tolerance on any SIMD target.

The references in `bench/refs/` are the benchmark's; this test only reads
them.  They were written with numpy's AVX-512 dispatch.  Without it, two
cells print one unit lower in the 12th significant digit (fig3a QU2 and
fig3c QU3), 1.1e-12 to 1.3e-12 relative, so a host without AVX-512 runs
only the tolerance test.
"""

import math
from pathlib import Path

import pytest

from bosonic_bounds import cli

REFS = Path(__file__).resolve().parent.parent / "bench" / "refs"
TOL = 1e-12  # relative, or absolute below 1: the benchmark's rule


def _half_unit(r):
    """Half a unit in the 12th significant digit of a value printed with
    `.12g`: every value within it prints as r."""
    return 0.0 if r == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(r))) - 11)


def _close(x, r):
    """Whether the computed value x lies within TOL of the printed reference r,
    which stands for every value its half unit covers (None is an empty cell)."""
    if x is None or r is None:
        return x is r
    return abs(x - r) <= _half_unit(r) + TOL * max(abs(r), 1.0)


@pytest.mark.host_refs  # byte for byte: the CSVs were written with AVX-512 dispatch
@pytest.mark.parametrize("fig", cli.FIGURES)
def test_figure_csv_matches_reference(fig):
    spec = cli.load_figure_spec(fig)
    got = cli.format_csv(spec, cli.run_sweep(spec))
    assert got.encode("utf-8") == (REFS / f"fig{fig}.csv").read_bytes()


@pytest.mark.parametrize("fig", cli.FIGURES)
def test_figure_values_match_reference_within_tolerance(fig):
    spec = cli.load_figure_spec(fig)
    rows = [[value, *cells] for value, cells in cli.run_sweep(spec)]
    lines = (REFS / f"fig{fig}.csv").read_text(encoding="utf-8").splitlines()
    refs = [[None if c == "" else float(c) for c in line.split(",")] for line in lines[1:]]
    assert lines[0] == "sweep_var," + ",".join(spec.bounds)
    assert [len(row) for row in rows] == [len(ref) for ref in refs]
    bad = [(i, j, x, r) for i, (row, ref) in enumerate(zip(rows, refs))
           for j, (x, r) in enumerate(zip(row, ref)) if not _close(x, r)]
    assert not bad, f"(row, column, value, reference) beyond {TOL:g}: {bad[:5]}"

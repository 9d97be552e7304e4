"""Machine-independent cost gate: optimizer calls and objective evaluations.

The counts are deterministic (fixed seed grids, fixed golden-section
iteration counts), so any change to them is a change in the work the bounds
do, not noise.  Counted through a wrapper over the batch optimizer the
bounds module calls: one count per minimized problem (batch row), so a
batch of n problems counts as n minimizations.
"""

import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import cli
from bosonic_bounds import verify as vfy


@pytest.fixture
def counts(monkeypatch):
    seen = []
    minimize = bnd.minimize_batch

    def counting(*args, **kwargs):
        res = minimize(*args, **kwargs)
        seen.extend(int(n) for n in res.evaluations)
        return res

    monkeypatch.setattr(bnd, "minimize_batch", counting)
    return seen


def test_fig3a_sweep(counts):
    cli.run_sweep(cli.load_figure_spec("3a"))
    assert (len(counts), sum(counts)) == (80, 7840)


@pytest.mark.parametrize("kind", ["QU2", "QU3", "PU2", "PU3"])
def test_penalized_bound_at_one_point(counts, kind):
    ch = chn.thermal(0.9, 0.5)
    if kind.startswith("QU"):
        {"QU2": bnd.q_u2, "QU3": bnd.q_u3}[kind](ch, 10.0)
    else:
        bnd.p_bounds(ch, 10.0, kind)
    assert counts == [99]


def test_displaced_lower_bound(counts):
    bnd.p_lower_displaced(0.9, 0.5, 10.0)
    assert counts == [74]


def test_all_figure_sweeps(counts):
    for fig in cli.FIGURES:
        cli.run_sweep(cli.load_figure_spec(fig))
    assert (len(counts), sum(counts)) == (574, 55529)


def test_bound_ordering_check(counts):
    vfy.check_bound_ordering()
    assert (len(counts), sum(counts)) == (800, 78093)


def test_private_improvement_check(counts):
    vfy.check_private_improvement()
    assert (len(counts), sum(counts)) == (100, 9255)

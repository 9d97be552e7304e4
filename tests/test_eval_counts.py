"""Machine-independent cost gate: optimizer calls and objective evaluations.

The counts are deterministic (fixed seed grids, fixed golden-section
iteration counts), so any change to them is a change in the work the bounds
do, not noise.  Counted through a wrapper over the batch optimizer the
bounds module calls: one count per minimized problem (batch row), so a
batch of n problems counts as n minimizations.  The objectives are counted
too, call by call with the shape of the points they get: a call's lone
search must step on floats, not on 1-element arrays.
"""

from collections import Counter

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import cli
from bosonic_bounds import optimize as opt
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


@pytest.fixture
def seed_grid_calls(monkeypatch):
    """Count the minimizations that clip, sort and dedup their seed rows."""
    calls, fn = [], opt._seed_grids
    monkeypatch.setattr(opt, "_seed_grids", lambda *args: calls.append(1) or fn(*args))
    return calls


@pytest.fixture
def objective_calls(monkeypatch):
    """Wrap the bounds function `name` to count its calls by the shape of its
    argument at `point`; returns the Counter."""
    def wrap(name, point):
        seen, fn = Counter(), getattr(bnd, name)

        def counting(*args):
            seen[np.shape(args[point])] += 1
            return fn(*args)

        monkeypatch.setattr(bnd, name, counting)
        return seen
    return wrap


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


@pytest.mark.parametrize("kind", ["QU2", "QU3", "PU2", "PU3"])
def test_penalized_one_cell_steps_on_floats(counts, objective_calls, seed_grid_calls, kind):
    calls = objective_calls("_penalty_eval", 0)  # _penalty_eval(eps', eps, W', k)
    bnd.evaluate(kind, chn.thermal(0.9, 0.5), 10.0)
    assert counts == [99]
    assert calls == {(1, 64): 1, (): 35}  # the seeds, then each golden step
    assert seed_grid_calls == []  # its seed row ascends inside (eps, 1]


def test_displaced_one_cell_steps_on_floats(counts, objective_calls, seed_grid_calls):
    calls = objective_calls("_private_loss", 0)
    bnd.p_lower_displaced(0.9, 0.5, 10.0)
    assert counts == [74]
    assert calls == {(1, 64): 1, (): 10}
    assert seed_grid_calls == []


def test_long_displaced_one_cell_steps_on_floats(counts, objective_calls, seed_grid_calls):
    calls = objective_calls("_private_loss", 0)
    bnd.p_lower_displaced(0.6, 1.5, 300.0)
    assert counts == [119]
    assert calls == {(1, 64): 1, (): 55}
    assert seed_grid_calls == []


def test_amplifier_penalty_one_cell_steps_on_floats(counts, objective_calls, seed_grid_calls):
    calls = objective_calls("_penalty_eval", 0)  # _penalty_eval(eps', eps, W', k)
    bnd.q_u2(chn.amplifier(1.5, 0.3), 50.0)
    assert counts == [99]
    assert calls == {(1, 64): 1, (): 35}
    assert seed_grid_calls == []


def test_column_rows_step_together_to_the_end(counts, objective_calls):
    calls = objective_calls("_private_loss", 0)
    bnd.evaluate_column("PL", [chn.thermal(0.9, 0.5)] * 2, [1.0, 1000.0])
    # the seeds, the first step's two points, 8 steps of both rows, then
    # the longest row's last step, still in the lockstep
    assert calls == {(2, 64): 1, (2, 2): 1, (2, 1): 8, (1, 1): 1}
    assert sum(counts) == 2 * 64 + 2 * 2 + 2 * 8 + 1


def test_all_figure_sweeps(counts, seed_grid_calls):
    for fig in cli.FIGURES:
        cli.run_sweep(cli.load_figure_spec(fig))
    assert (len(counts), sum(counts)) == (574, 55529)
    assert seed_grid_calls == []  # every batch's rows ascend inside their intervals


def test_figure_sweeps_build_seed_rows_once_per_batch(monkeypatch):
    """Each minimize_batch's seed grids come from one _geomspace_rows call,
    not one np.geomspace per row; np.geomspace runs once per log-scale
    sweep, for its swept values."""
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bnd.np, "geomspace", counting("geomspace", bnd.np.geomspace))
    for name in ("_geomspace_rows", "minimize_batch"):
        monkeypatch.setattr(bnd, name, counting(name, getattr(bnd, name)))
    specs = [cli.load_figure_spec(fig) for fig in cli.FIGURES]
    for spec in specs:
        cli.run_sweep(spec)
    assert calls["geomspace"] == sum(spec.scale == "log" for spec in specs)
    assert calls["_geomspace_rows"] == calls["minimize_batch"] > 0


def test_bound_ordering_check(counts, seed_grid_calls):
    vfy.check_bound_ordering()
    assert (len(counts), sum(counts)) == (800, 78093)
    assert seed_grid_calls == []


@pytest.mark.parametrize("n", [1, 2])
def test_unsorted_seed_rows_are_sorted_once(seed_grid_calls, n):
    res = opt.minimize_batch(lambda x: (x - 0.3) ** 2, 0.0, 1.0, np.tile([0.5, 0.1, 0.9], (n, 1)))
    assert seed_grid_calls == [1]
    assert np.allclose(res.arg, 0.3, atol=1e-9)


def test_private_improvement_check(counts):
    vfy.check_private_improvement()
    assert (len(counts), sum(counts)) == (100, 9255)


def test_optimizer_vs_grid_evaluates_few_grid_points(monkeypatch, objective_calls):
    """The dense minima of optimizer_vs_grid evaluate at most 5% of its ten
    grids of 10^6 points, block endpoints included."""
    monkeypatch.setattr(bnd, "_min_penalty", lambda *args: (0.0, 1.0))  # count the grids alone
    calls = objective_calls("_penalty_eval", 0)  # _penalty_eval(eps', eps, W', k)
    vfy.check_optimizer_vs_grid()
    points = sum(int(np.prod(shape)) * n for shape, n in calls.items())
    assert 0 < points <= 0.05 * 10 * 10 ** 6


def test_optimizer_vs_grid_grid_point_count(monkeypatch, objective_calls):
    """The dense minima of optimizer_vs_grid at its defaults pass 72 560 grid
    points to the penalty in 30 calls, three per grid: the block endpoints,
    the kept blocks' sub-block endpoints and the kept sub-blocks (245 000 in
    20 calls with one pass of blocks of 1000)."""
    monkeypatch.setattr(bnd, "_min_penalty", lambda *args: (0.0, 1.0))  # count the grids alone
    calls = objective_calls("_penalty_eval", 0)  # _penalty_eval(eps', eps, W', k)
    vfy.check_optimizer_vs_grid()
    points = sum(int(np.prod(shape)) * n for shape, n in calls.items())
    assert (sum(calls.values()), points) == (30, 72560)


def test_figure_sweeps_share_one_penalty_batch(monkeypatch):
    """A sweep's penalized kinds (QU2 and QU3 side by side) minimize in one
    batch: at most one penalty batch and one PL batch per sweep, 10 for the
    ten figures."""
    pl_batch, minimize = [], bnd.minimize_batch
    monkeypatch.setattr(bnd, "minimize_batch",
                        lambda f, *args: pl_batch.append(f is bnd._private_loss) or minimize(f, *args))
    for fig in cli.FIGURES:
        before, spec = len(pl_batch), cli.load_figure_spec(fig)
        cli.run_sweep(spec)
        penalized = any(bnd.REGISTRY[kind].k for kind in spec.bounds)
        assert sorted(pl_batch[before:]) == [False] * penalized + [True] * ("PL" in spec.bounds)
    assert len(pl_batch) == 10


def test_cli_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cached_parser_survives_a_bad_flag(capsys):
    argv = ["bound", "--channel", "thermal", "--eta", "0.9", "--nb", "0.1", "--ns", "1",
            "--bound", "QU1"]
    assert cli.main(argv) == 0
    good = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:-1] + ["NOPE"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: boson-bounds bound ")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == good

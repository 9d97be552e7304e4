"""A column is its cells: cell i of ``evaluate_column(kind, chans, ns)`` is
``evaluate(kind, chans[i], ns[i])``, the same BoundResult or the same error.
And ``evaluate_columns(kinds, chans, ns)``, whose penalized kinds share one
minimization batch, is the list of the kinds' one-kind columns, bit for bit.

The columns mix all three channel kinds and reach every regime failure,
negative and non-finite ns, ns = 0, nb = 0 (eps = 0) and eta = 1 (PLOB and
RMG infinite).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds.errors import BosonicBoundsError, DomainError, InfeasibleBoundError

KINDS = tuple(bnd.REGISTRY)

# One cell of each edge per channel kind: (channel, ns).
EDGES = [
    (chn.thermal(0.3, 0.5), 1.0),      # eta < 1/2 and eta <= (1-eta)*NB
    (chn.thermal(0.6, 2.0), 1.0),      # eta <= (1-eta)*NB only
    (chn.thermal(0.5, 0.5), 2.0),      # eta = 1/2 exactly
    (chn.thermal(0.9, 0.0), 3.0),      # nb = 0: eps = 0, the penalty-free value
    (chn.thermal(1.0, 0.3), 3.0),      # eta = 1: PLOB and RMG infinite
    (chn.thermal(1.0, 0.0), 0.5),
    (chn.thermal(0.8, 0.2), 0.0),      # ns = 0
    (chn.thermal(0.8, 0.2), -1.0),     # negative ns
    (chn.thermal(0.3, 0.5), -2.0),     # negative ns in an infeasible regime
    (chn.thermal(0.8, 0.2), float("inf")),
    (chn.thermal(0.8, 0.2), float("nan")),
    (chn.thermal(0.8, 0.2), float("-inf")),
    (chn.amplifier(3.0, 1.0), 1.0),    # (G-1)*NB >= 1
    (chn.amplifier(1.0, 0.5), 1.0),    # gain 1: QL and the eps-degradable bounds refuse it
    (chn.amplifier(1.5, 0.0), 2.0),    # nb = 0
    (chn.amplifier(1.5, 0.2), 0.0),
    (chn.amplifier(1.5, 0.2), -0.5),
    (chn.additive_noise(1.5), 1.0),    # nbar >= 1
    (chn.additive_noise(0.3), 1.0),
    (chn.additive_noise(0.3), 0.0),
    (chn.additive_noise(0.3), -1.0),
    (chn.raw_channel(0.5, 1.0), 1.0),  # a kind no bound supports
    (chn.raw_channel(0.5, 1.0), -1.0),
]


def cell(kind, ch, ns):
    try:
        return bnd.evaluate(kind, ch, ns)
    except BosonicBoundsError as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, BosonicBoundsError):
        assert type(got) is type(want)
        assert str(got) == str(want)
    else:
        assert isinstance(got, bnd.BoundResult)
        assert repr(got) == repr(want)
        assert got == want


def assert_column_is_its_cells(kind, chans, ns):
    column = bnd.evaluate_column(kind, chans, ns)
    assert len(column) == len(chans)
    for got, ch, n in zip(column, chans, ns):
        assert_same(got, cell(kind, ch, n))


@pytest.mark.parametrize("kind", KINDS)
def test_edge_column(kind):
    chans, ns = zip(*EDGES)
    assert_column_is_its_cells(kind, list(chans), list(ns))


@pytest.mark.parametrize("kind", KINDS)
def test_edge_column_reversed(kind):
    chans, ns = zip(*EDGES[::-1])
    assert_column_is_its_cells(kind, list(chans), list(ns))


def channels():
    unit = st.floats(0.05, 1.0)
    noise = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
    return st.one_of(
        st.builds(chn.thermal, st.one_of(st.just(1.0), st.just(0.5), unit), noise),
        st.builds(chn.amplifier, st.one_of(st.just(1.0), st.floats(1.0, 3.0)), noise),
        st.builds(chn.additive_noise, st.floats(0.05, 1.5)),
    )


def energies():
    return st.one_of(st.just(0.0), st.floats(-2.0, -1e-3), st.floats(1e-3, 100.0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.lists(st.tuples(channels(), energies()), min_size=1, max_size=12))
def test_random_mixed_column(kind, cells):
    chans, ns = zip(*cells)
    assert_column_is_its_cells(kind, list(chans), list(ns))


def test_empty_column():
    assert bnd.evaluate_column("QU2", [], []) == []


def test_length_mismatch():
    chans = [chn.thermal(0.9, 0.1), chn.thermal(0.8, 0.1)]
    with pytest.raises(DomainError, match="one ns per channel"):
        bnd.evaluate_column("QU1", chans, [1.0])
    with pytest.raises(DomainError, match="one ns per channel"):
        bnd.evaluate_column("QU1", chans[:1], [1.0, 2.0])


# ns as the one-cell entry points and the column paths take it
NS_PATHS = {
    "evaluate": lambda ns: bnd.evaluate("QU1", chn.thermal(0.8, 0.5), ns),
    "q_u1": lambda ns: bnd.q_u1(chn.thermal(0.8, 0.5), ns),
    "q_lower_thermal": lambda ns: bnd.q_lower_thermal(0.8, 0.5, ns),
    "p_lower_displaced": lambda ns: bnd.p_lower_displaced(0.8, 0.5, ns),
    "gap_qu1_ql": lambda ns: bnd.gap_qu1_ql(0.8, 0.5, ns),
    "evaluate_column": lambda ns: bnd.evaluate_column("QU1", [chn.thermal(0.8, 0.5)] * 2, [ns, 4.0]),
    "evaluate_columns": lambda ns: bnd.evaluate_columns(("QL", "QU2"), [chn.thermal(0.8, 0.5)] * 2,
                                                        [4.0, ns]),
    "gaussian_c_distance": lambda ns: bnd.gaussian_c_distance(chn.thermal(0.8, 0.5),
                                                              chn.thermal(0.8, 1.0), ns),
}


@pytest.mark.parametrize("path", NS_PATHS)
@pytest.mark.parametrize("ns", ["3", None, 3 + 0j, np.asarray(3.0), pytest.param(10 ** 400, id="10**400"),
                                pytest.param(-10 ** 400, id="-10**400")], ids=repr)
def test_non_real_ns_is_a_domain_error(path, ns):
    # named up front, as a length mismatch is, not a cell's error or a TypeError
    with pytest.raises(DomainError, match="ns must be a real number"):
        NS_PATHS[path](ns)


@pytest.mark.parametrize("path", NS_PATHS)
@pytest.mark.parametrize("ns", [3, np.float64(3.0), np.int64(3), np.float32(3.0), np.float16(3.0)],
                         ids=repr)
def test_real_ns_types_are_kept(path, ns):
    got, want = NS_PATHS[path](ns), NS_PATHS[path](3.0)
    assert got == want


@pytest.mark.parametrize("path", NS_PATHS)
def test_numpy_bool_ns_is_its_float(path):
    # a bool is a real scalar, as an int is
    assert NS_PATHS[path](np.True_) == NS_PATHS[path](1.0)

def seeded_column(seed, n=60):
    """The edge cells and n seeded cells of all three channel kinds: nb = 0
    (eps = 0) on a fifth, ns = 0 and negative ns on a tenth each."""
    rng = np.random.default_rng(seed)
    cells = list(EDGES)
    for _ in range(n):
        nb = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 3.0))
        ch = (chn.thermal(float(rng.uniform(0.3, 1.0)), nb),
              chn.amplifier(float(rng.uniform(1.0, 3.0)), nb),
              chn.additive_noise(float(rng.uniform(0.05, 1.5))))[rng.integers(3)]
        u = rng.random()
        cells.append((ch, 0.0 if u < 0.1 else -float(rng.uniform(0.01, 2.0)) if u < 0.2
                      else float(rng.uniform(1e-3, 100.0))))
    order = rng.permutation(len(cells))
    return [cells[i][0] for i in order], [cells[i][1] for i in order]


def hexed(cell):
    """A cell's error class and message, or its fields with each float as .hex()."""
    if isinstance(cell, BosonicBoundsError):
        return type(cell).__name__, str(cell)

    def h(v):
        return v if v is None or isinstance(v, str) else float(v).hex()
    return (cell.kind, h(cell.value), h(cell.raw), h(cell.argopt),
            {key: h(v) for key, v in cell.params.items()})


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kinds", [(*KINDS, "QU2"), ("QU3", "QU2"), ("PU3", "PL", "QU3", "PU3")],
                         ids=["all-and-QU2-again", "QU3-QU2", "PU3-PL-QU3-PU3"])
def test_columns_are_their_one_kind_columns(kinds, seed):
    chans, ns = seeded_column(seed)
    columns = bnd.evaluate_columns(kinds, chans, ns)
    assert len(columns) == len(kinds)
    for kind, column in zip(kinds, columns):
        assert [hexed(c) for c in column] == [hexed(c) for c in bnd.evaluate_column(kind, chans, ns)]
    cells = [c for column in columns for c in column]
    # the column reaches the penalty-free eps = 0 cells, infeasible cells and
    # ns <= 0
    assert any(isinstance(c, bnd.BoundResult) and c.params.get("eps") == 0.0 for c in cells)
    assert any(isinstance(c, InfeasibleBoundError) for c in cells)
    assert any(isinstance(c, bnd.BoundResult) and c.params["ns"] == 0.0 for c in cells)
    assert any(isinstance(c, DomainError) and "must be >= 0" in str(c) for c in cells)


_FEASIBLE = {"thermal": chn.thermal(0.8, 0.3), "amplifier": chn.amplifier(1.5, 0.3),
             "additive": chn.additive_noise(0.3)}
_SUPPORTED = [(kind, ck, None) for kind, row in bnd.REGISTRY.items() for ck in row.forms]


@pytest.mark.parametrize("kind,ch_kind,eps_prime",
                         _SUPPORTED + [(k, ck, 0.9) for k, ck, _ in _SUPPORTED if bnd.REGISTRY[k].k],
                         ids=lambda v: v if isinstance(v, str) else f"eps'={v}")
def test_one_cell_params_keep_their_column_order(kind, ch_kind, eps_prime):
    """A one-cell BoundResult's params have the keys of the same cell in a
    column, in the same order (the order of the `bound` JSON) and with the
    same bits and types; a penalized kind at a fixed eps' too."""
    ch = _FEASIBLE[ch_kind]
    one = bnd.evaluate(kind, ch, 2.0, eps_prime)
    cell = bnd._columns((kind,), [ch] * 3, [1.0, 2.0, 3.0], eps_prime)[0][1]

    def ordered(result):
        return [(key, v if isinstance(v, str) else float(v).hex()) for key, v in result.params.items()]
    assert ordered(one) == ordered(cell)
    assert hexed(one) == hexed(cell)
    # Python floats, as a column's cells hold: no numpy scalar leaks out
    assert {type(v) for v in (one.value, one.raw, *one.params.values())} <= {float, str}


def test_columns_of_no_kind_and_no_cell():
    assert bnd.evaluate_columns((), [chn.thermal(0.9, 0.1)], [1.0]) == []
    assert bnd.evaluate_columns(("QU2", "PL"), [], []) == [[], []]
    with pytest.raises(DomainError, match="unknown bound kind 'NOPE'"):
        bnd.evaluate_columns(("QU2", "NOPE"), [chn.thermal(0.9, 0.1)], [1.0])

"""A column is its cells: cell i of ``evaluate_column(kind, chans, ns)`` is
``evaluate(kind, chans[i], ns[i])``, the same BoundResult or the same error.

The columns mix all three channel kinds and reach every regime failure,
negative and non-finite ns, ns = 0, nb = 0 (eps = 0) and eta = 1 (PLOB and
RMG infinite).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds.errors import BosonicBoundsError, DomainError

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

"""Every stored point query of the benchmark, replayed through the public API.

`bench/refs/points.json` holds, for seeds 0-10, the outputs of the first 400
closed-form and the first 64 optimized queries of each seeded stream.  Each
query runs here through `bench/workloads.py`'s own `make_queries` and
`call_query`, and its value, raw value and argopt must match the reference
by the benchmark's rule (1e-12 relative, or absolute below 1), its error
class exactly.  The benchmark's files are only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import bosonic_bounds as bb
from bosonic_bounds.errors import BosonicBoundsError

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
wl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wl)
REFS = json.loads((BENCH / "refs" / "points.json").read_text())


def _output(q):
    """The query's outcome in the reference's form."""
    try:
        r = wl.call_query(bb, q)
    except BosonicBoundsError as exc:
        return ["e", type(exc).__name__]
    if isinstance(r, bb.BoundResult):
        return ["v", r.value, r.raw, r.argopt]
    return ["f", float(r)]


@pytest.mark.parametrize("seed", wl.REF_SEEDS)
@pytest.mark.parametrize("klass", ["closed", "opt"])
def test_points_match_references(klass, seed):
    refs = REFS[klass][str(seed)]
    assert len(refs) == wl.REF_PREFIX[klass]
    bad = []
    for i, (q, ref) in enumerate(zip(wl.make_queries(seed, klass, len(refs)), refs)):
        out = _output(q)
        same = out[0] == ref[0] and len(out) == len(ref) and (
            out == ref if out[0] == "e" else all(wl._close(a, b) for a, b in zip(out[1:], ref[1:])))
        if not same:
            bad.append((i, q, out, ref))
    assert not bad, bad[:5]

"""The benchmark's workloads: their inputs, operations and output checks.

A workload is a sequence of passes; a pass is a list of operations.  Every
operation returns a JSON-able output, which ``check`` compares with the
references captured in ``refs/`` (or, for a points seed without references,
with the properties every answer must have).

* ``figures``: the ten checked-in figure configs through
  ``boson-bounds sweep --fig <id>``; one pass is the ten sweeps.
* ``points_closed`` / ``points_opt``: a seeded stream of independent
  single-point queries through the exported bound functions, one caller in
  a closed loop; a pass is a block of queries.  ``closed`` kinds use no
  optimizer, ``opt`` kinds minimize over eps' or the energy split.
* ``verify``: ``boson-bounds verify --suite all``; one pass is one suite.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
TOL = 1e-12

FIGURES = ("3a", "3b", "3c", "3d", "4a", "4b", "5a", "5b", "6a", "6b")

CLOSED_KINDS = ("QL", "QU1", "QU4", "PU1", "PLOB", "RMG", "QU2@", "QU3@", "PU2@", "PU3@")
OPT_KINDS = ("QU2", "QU3", "PU2", "PU3", "PL")
CLAMPED = ("QL", "QU1", "QU4", "PU1")
SUPPORTED = {
    "QL": ("thermal", "amplifier"), "QU1": ("thermal", "amplifier", "additive"),
    "PU1": ("thermal", "amplifier", "additive"), "QU4": ("thermal", "additive"),
    "PLOB": ("thermal", "amplifier", "additive"), "RMG": ("thermal",),
    "QU2": ("thermal", "amplifier"), "QU3": ("thermal", "amplifier"),
    "PU2": ("thermal", "amplifier"), "PU3": ("thermal", "amplifier"), "PL": ("thermal",),
}
CHANNELS = ("thermal", "amplifier", "additive")
PLOB_NAME = {"thermal": "PLOB_thermal", "amplifier": "PLOB_amp", "additive": "PLOB_addnoise"}
CTOR = {"thermal": "thermal", "amplifier": "amplifier", "additive": "additive_noise"}
OUTCOMES = ("value", "InfeasibleBoundError", "DomainError", "ChannelKindError")

# queries per pass (about 40 ms and 0.15 s), in the traced unit, and in
# each stored seed's reference prefix
BLOCK = {"closed": 1000, "opt": 32}
TRACE_QUERIES = {"closed": 20000, "opt": 320}
REF_PREFIX = {"closed": 400, "opt": 64}
REF_SEEDS = range(11)


def _close(a, b):
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(TOL * abs(b), TOL)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def parse_csv(text):
    lines = text.splitlines()
    rows = [[None if c == "" else float(c) for c in ln.split(",")] for ln in lines[1:]]
    return lines[0], rows


class Figures:
    name = "figures"

    def __init__(self, bb, seed, out_dir):
        import bosonic_bounds.cli as cli
        self.cli, self.out_dir = cli, out_dir
        self.refs = {f: parse_csv((REFS / f"fig{f}.csv").read_text()) for f in FIGURES}
        # Sweeps run on one pool thread: the work holds the interpreter lock,
        # so a second thread adds no speed (ROADMAP item 3) but passes the
        # lock between the two CPUs, which on a virtual machine made the
        # default pool's times spread 0.15-0.20 from run to run against
        # 0.01 on one thread.  The traced run times the default pool too.
        os.environ[cli.THREADS_ENV] = "1"

    @contextlib.contextmanager
    def default_pool(self):
        """Run the sweeps inside on the CLI's default pool size."""
        old = os.environ.pop(self.cli.THREADS_ENV)
        try:
            yield
        finally:
            os.environ[self.cli.THREADS_ENV] = old

    def unit(self):
        return [("fig" + f, f) for f in FIGURES]

    def passes(self):
        while True:  # whole passes only: the sweeps differ in size
            yield self.unit()

    def run(self, fig):
        path = os.path.join(self.out_dir, f"fig{fig}.csv")
        try:
            return self.cli.main(["sweep", "--fig", fig, "--out", path]), path
        except Exception as exc:  # every cell of the sweep counts as failed
            return repr(exc), path

    def output(self, fig, raw):
        code, path = raw
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
        return {"fig": fig, "code": code, "csv": text}

    def check(self, fig, out, stats):
        """Failed cells of one sweep; empty cells are counted as infeasible."""
        ref_header, ref_rows = self.refs[fig]
        n = sum(len(r) - 1 for r in ref_rows)
        stats["items"] = stats.get("items", 0) + n
        if out["code"] != 0:
            return n
        header, rows = parse_csv(out["csv"])
        stats["infeasible"] = stats.get("infeasible", 0) + sum(
            c is None for r in rows for c in r[1:])
        if header != ref_header or len(rows) != len(ref_rows):
            return n
        bad = 0
        for row, ref in zip(rows, ref_rows):
            if len(row) != len(ref) or not _close(row[0], ref[0]):
                bad += len(ref) - 1
                continue
            bad += sum(not _close(c, r) for c, r in zip(row[1:], ref[1:]))
        return bad


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def _loguniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _draw(rng, kinds, count):
    k = rng.integers(0, len(kinds), count)
    mismatch = rng.uniform(size=count) < 0.05
    pick = rng.uniform(size=count)
    eta = np.where(rng.uniform(size=count) < 0.85, rng.uniform(0.5, 0.999, count),
                   rng.uniform(0.05, 0.5, count))
    nb = _loguniform(rng, 1e-2, 2.0, count)
    g = rng.uniform(1.001, 3.0, count)
    nbar = _loguniform(rng, 1e-2, 2.0, count)
    ns = _loguniform(rng, 1e-2, 1e3, count)
    epsp = rng.uniform(1e-6, 1.0, count)
    neg = rng.uniform(size=count)
    queries = []
    for i in range(count):
        kind = kinds[k[i]]
        base = kind.rstrip("@")
        good = SUPPORTED[base]
        bad = tuple(c for c in CHANNELS if c not in good) if base not in ("QL", "PL") else ()
        pool = bad if (mismatch[i] and bad) else good
        chan = pool[min(int(pick[i] * len(pool)), len(pool) - 1)]
        n_b, n_s = float(nb[i]), float(ns[i])
        if neg[i] < 0.03:
            n_s = -n_s
        elif neg[i] < 0.05:
            n_b = -n_b
        params = {"thermal": {"eta": float(eta[i]), "nb": n_b},
                  "amplifier": {"g": float(g[i]), "nb": n_b},
                  "additive": {"nbar": float(nbar[i])}}[chan]
        queries.append((kind, chan, params, n_s, float(epsp[i]) if kind.endswith("@") else None))
    return queries


def query_stream(seed, klass):
    """The seeded `klass` query stream, drawn 128 queries at a time.

    Each query is (kind, channel, params, ns, eps_prime).  Inputs are finite
    and inside the figure configs' energy range; a few are negative
    (DomainError), some channel kinds do not match the bound
    (ChannelKindError) and some parameters make the bound infeasible.
    """
    kinds = CLOSED_KINDS if klass == "closed" else OPT_KINDS
    rng = np.random.default_rng([seed, 0 if klass == "closed" else 1])
    while True:
        yield from _draw(rng, kinds, 128)


def make_queries(seed, klass, count):
    """The first `count` queries of the seeded stream."""
    return list(itertools.islice(query_stream(seed, klass), count))


def call_query(bb, q):
    """Evaluate one query through the package's exported functions."""
    kind, chan, p, ns, epsp = q
    if kind == "QL":
        if chan == "thermal":
            return bb.q_lower_thermal(p["eta"], p["nb"], ns)
        return bb.q_lower_amp(p["g"], p["nb"], ns)
    if kind == "PL":
        return bb.p_lower_displaced(p["eta"], p["nb"], ns)
    ch = getattr(bb, CTOR[chan])(*p.values())
    base = kind.rstrip("@")
    if base == "QU1":
        return bb.q_u1(ch, ns)
    if base == "QU4":
        return bb.q_u4(ch, ns)
    if base == "QU2":
        return bb.q_u2(ch, ns, epsp)
    if base == "QU3":
        return bb.q_u3(ch, ns, epsp)
    if base in ("PU1", "PU2", "PU3"):
        return bb.p_bounds(ch, ns, base, epsp)
    if base == "PLOB":
        return bb.comparison_bounds(ch, PLOB_NAME[chan])
    return bb.comparison_bounds(ch, "RMG")


class Points:

    def __init__(self, bb, seed, klass):
        import bosonic_bounds.errors as errors
        self.bb, self.errors, self.seed, self.klass = bb, errors, seed, klass
        self.name = "points_" + klass
        path = REFS / "points.json"
        self.refs = (json.loads(path.read_text())[klass].get(str(seed))
                     if path.is_file() else None)
        self.shares = dict.fromkeys(OUTCOMES + ("other",), 0)

    def passes(self):
        stream = enumerate(query_stream(self.seed, self.klass))
        while True:
            yield [(f"q{i}", (i, q)) for i, q in itertools.islice(stream, BLOCK[self.klass])]

    def unit(self):
        """The traced unit: the first TRACE_QUERIES queries of the seed."""
        qs = make_queries(self.seed, self.klass, TRACE_QUERIES[self.klass])
        return [(f"q{i}", (i, q)) for i, q in enumerate(qs)]

    def run(self, arg):
        try:
            return call_query(self.bb, arg[1])
        except Exception as exc:  # the outcome is checked outside the timing
            return exc

    def output(self, arg, raw):
        if isinstance(raw, self.errors.BosonicBoundsError):
            return ["e", type(raw).__name__]
        if isinstance(raw, Exception):
            return ["x", f"{type(raw).__name__}: {raw}"]
        if isinstance(raw, self.bb.BoundResult):
            return ["v", raw.value, raw.raw, raw.argopt]
        return ["f", float(raw)]

    def check(self, arg, out, stats):
        idx, q = arg
        stats["items"] = stats.get("items", 0) + 1
        key = "value" if out[0] in ("v", "f") else out[1]
        self.shares[key if key in self.shares else "other"] += 1
        if self.refs is not None and idx < len(self.refs):
            ref = self.refs[idx]
            if out[0] != ref[0] or len(out) != len(ref):
                return 1
            if out[0] in ("e", "x"):
                return int(out != ref)
            return int(not all(_close(a, b) for a, b in zip(out[1:], ref[1:])))
        return int(not self.plausible(q, out))

    def plausible(self, q, out):
        """Properties any answer must have, for queries without a reference."""
        kind, chan, p, ns, epsp = q
        base = kind.rstrip("@")
        if out[0] == "x":
            return False
        if out[0] == "e":
            cls = getattr(self.errors, out[1], None)
            return (isinstance(cls, type) and issubclass(cls, self.errors.BosonicBoundsError)
                    and cls is not self.errors.BosonicBoundsError)
        if out[0] == "f":
            return math.isfinite(out[1]) and (base != "RMG" or out[1] >= 0.0)
        _, value, raw, arg = out
        if not (math.isfinite(value) and math.isfinite(raw)):
            return False
        if base in CLAMPED:
            return value == max(0.0, raw) and arg is None
        if base == "PL":
            return arg is not None and 0.0 <= arg <= ns
        ch = getattr(self.bb, CTOR[chan])(*p.values())
        if base in ("QU2", "PU2"):
            eps = self.bb.epsilon_degradable(ch).epsilon
        else:
            eps = self.bb.epsilon_close_degradable(p["nb"]).epsilon
        if arg is None:
            return eps == 0.0 and epsp is None and value == raw
        return value == raw and eps < arg <= 1.0 and (epsp is None or arg == epsp)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify:
    name = "verify"

    def __init__(self, bb, seed, out_dir):
        import bosonic_bounds.cli as cli
        self.cli = cli
        self.ref = (REFS / "verify.txt").read_text().splitlines()

    def unit(self):
        return [("verify", None)]

    def passes(self):
        while True:
            yield self.unit()

    def run(self, _):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["verify", "--suite", "all"])
        except Exception as exc:  # every check counts as failed
            code = repr(exc)
        return code, buf.getvalue()

    def output(self, _, raw):
        return {"code": raw[0], "stdout": raw[1]}

    def check(self, _, out, stats):
        """Failed checks: every reference check must be reported as PASS."""
        names = [ln.split("]", 1)[1].split(":", 1)[0].strip()
                 for ln in self.ref if ln.startswith("[")]
        stats["items"] = stats.get("items", 0) + len(names)
        got = {}
        for ln in out["stdout"].splitlines():
            if ln.startswith("["):
                got[ln.split("]", 1)[1].split(":", 1)[0].strip()] = ln.startswith("[PASS]")
        bad = sum(not got.get(n, False) for n in names) + len(set(got) - set(names))
        if out["code"] != 0 and bad == 0:
            bad = len(names)
        return bad


def make(name, bb, seed, out_dir):
    if name == "figures":
        return Figures(bb, seed, out_dir)
    if name == "verify":
        return Verify(bb, seed, out_dir)
    if name in ("points_closed", "points_opt"):
        return Points(bb, seed, name.split("_", 1)[1])
    raise ValueError(f"unknown workload {name!r}")

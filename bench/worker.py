"""Run one workload in this (fresh) interpreter and print its raw figures.

``run.py`` starts this script once per workload; it is not meant to be run
by hand.  The last line of its output is ``BENCH_RESULT <json>``.

Untraced (``--trace 0``): passes of the workload run until the next pass
would end after ``--seconds``; every operation is timed on its own, scaled
to the reference host speed (``speed.py``), and its output checked after
the pass.

Traced (``--trace 1``): one fixed unit of the workload (the ten sweeps, the
suite, or the first queries of the seed) runs untraced, then under the
tracer, and the two outputs must be equal byte for byte.  The ``figures``
unit runs a second time under the tracer on the CLI's default pool size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

KINDS = ("QL", "QU1", "QU2", "QU3", "QU4", "PU1", "PU2", "PU3", "PL", "PLOB", "RMG")
ERRORS = ("InfeasibleBoundError", "DomainError", "ChannelKindError")
CONSTRUCTORS = ("thermal", "amplifier", "additive_noise", "pure_loss", "raw_channel",
                "make_channel", "compose_channels")
EPSILONS = ("epsilon_degradable", "epsilon_close_degradable")
CORE_FNS = ("two_mode_fidelity", "symplectic_eigenvalues", "gaussian_entropy",
            "apply_gaussian_channel", "tms_state")
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def load_package():
    import bosonic_bounds
    import bosonic_bounds.cli  # noqa: F401
    where = Path(bosonic_bounds.__file__).resolve().parent
    if where != (ROOT / "src" / "bosonic_bounds").resolve():
        raise SystemExit(f"bosonic_bounds was imported from {where}, not from this checkout")
    return bosonic_bounds


def run_pass(wl, ops, tracer=None):
    """Time each operation of one pass: (start_ns, end_ns) per operation.
    Outputs are built after the timing."""
    lat, raws = [], []
    for label, arg in ops:
        if tracer is None:
            t0 = time.perf_counter_ns()
            raw = wl.run(arg)
            t1 = time.perf_counter_ns()
        else:
            with tracer.operation(label):
                t0 = time.perf_counter_ns()
                raw = wl.run(arg)
                t1 = time.perf_counter_ns()
        lat.append((t0, t1))
        raws.append((arg, raw))
    return lat, [(arg, wl.output(arg, raw)) for arg, raw in raws]


def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it."""
    ok = [p for p in PERCENTILES if n * (1.0 - p / 100.0) >= 10.0]
    return ok[-1] if ok else None


class Latencies:
    """Log-binned latency record of constant size, so that the benchmark's
    memory does not grow with the number of operations a run completes.
    Bins are 0.1% wide; a percentile reads the mean of the samples in the
    bin that holds its nearest rank."""

    def __init__(self):
        self.count, self.n, self.total = {}, 0, {}

    def add(self, ns):
        b = int(math.log(max(ns, 1)) * 1000.0)
        self.count[b] = self.count.get(b, 0) + 1
        self.total[b] = self.total.get(b, 0) + ns
        self.n += 1

    def percentile_us(self, p):
        rank = max(math.ceil(p / 100.0 * self.n), 1)
        seen = 0
        for b in sorted(self.count):
            seen += self.count[b]
            if seen >= rank:
                return self.total[b] / self.count[b] / 1e3


def measure(wl, seconds):
    """Run passes until the next one would end after `seconds`; every
    operation time is scaled to the reference host speed (speed.Probe)."""
    stats, failed, time_ns, raw_ns, factors = {}, 0, 0.0, 0, []
    lat, lat_raw = Latencies(), Latencies()
    with speed.Probe() as probe:
        start = time.perf_counter()
        for ops in wl.passes():
            t_pass = time.perf_counter()
            spans, outs = run_pass(wl, ops)
            failed += sum(wl.check(arg, out, stats) for arg, out in outs)
            factor = probe.factor(spans[0][0], spans[-1][1])
            factors.append(factor)
            for t0, t1 in spans:
                ns = t1 - t0 - probe.own_ns(t0, t1)
                lat.add(ns * factor)
                lat_raw.add(ns)
                time_ns += ns * factor
                raw_ns += ns
            now = time.perf_counter()
            if now - start + (now - t_pass) > seconds:
                break
        probes = len(probe.starts)
    tail_p = tail_percentile(lat.n)
    return {
        "attempted": stats["items"], "failed": failed,
        "infeasible": stats.get("infeasible", 0),
        "passes": len(factors), "ops": lat.n, "probes": probes,
        "measured_s": time.perf_counter() - start,
        "items_per_s": stats["items"] / (time_ns / 1e9),
        "p50_us": lat.percentile_us(50.0),
        "tail_pct": tail_p,
        "tail_us": lat.percentile_us(tail_p) if tail_p else None,
        "raw": {"items_per_s": stats["items"] / (raw_ns / 1e9),
                "p50_us": lat_raw.percentile_us(50.0),
                "tail_us": lat_raw.percentile_us(tail_p) if tail_p else None,
                "speed_factor_median": statistics.median(factors)},
        "shares": getattr(wl, "shares", None),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def g_kernel(bb, repeats=7):
    """ns per element of g_entropy on a seeded 10^6-element array, and us per
    scalar call; median of repeats."""
    import numpy as np
    x = np.random.default_rng(12345).uniform(0.0, 100.0, 10 ** 6)
    per_elem = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        bb.g_entropy(x)
        per_elem.append((time.perf_counter_ns() - t0) / x.size)
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for v in (0.5, 3.7, 42.0, 1e-3) * 250:
            bb.g_entropy(v)
        per_call.append((time.perf_counter_ns() - t0) / 1e3 / 1000)
    return statistics.median(per_elem), statistics.median(per_call)


def _total_s(spans):
    return sum(t1 - t0 for t0, t1 in spans) / 1e9


def _mean_us(spans):
    return sum(s.end - s.start for s in spans) / len(spans) / 1e3 if spans else 0.0


def layer_metrics(bb, tracer_mod, spans, op_spans):
    """Per-layer counts and times from the spans of the traced unit; a layer
    the workload does not reach reports zeros."""
    tracer_mod.link(spans)
    lself = tracer_mod.layer_self_ns
    checks = bb.verify.CORE_CHECKS + bb.verify.BOUNDS_CHECKS
    m = dict.fromkeys([f"verify.check_s.{c.__name__[len('check_'):]}" for c in checks]
                      + [f"cli.sweep_s.fig{f}" for f in workloads.FIGURES], 0.0)
    opt = tracer_mod.outermost(spans, "optimize")
    evals = sum(s.evals for s in opt)
    obj_ns = sum(s.obj_ns for s in opt)
    m["optimize.calls"] = len(opt)
    m["optimize.evaluations"] = evals
    m["optimize.evals_per_call"] = evals / len(opt) if opt else 0.0
    m["optimize.nonconverged"] = sum(s.converged is False for s in opt)
    m["optimize.self_s"] = sum(lself(s) for s in opt) / 1e9
    m["optimize.objective_s"] = obj_ns / 1e9
    m["optimize.us_per_eval"] = obj_ns / evals / 1e3 if evals else 0.0

    bnd = tracer_mod.outermost(spans, "bounds")
    for kind in KINDS:
        sel = [s for s in bnd if s.kind == kind]
        m[f"bounds.calls.{kind}"] = len(sel)
        m[f"bounds.self_us.{kind}"] = sum(lself(s) for s in sel) / len(sel) / 1e3 if sel else 0.0
    for err in ERRORS:
        m[f"bounds.errors.{err}"] = sum(s.error == err for s in bnd)

    names = {f"channels.{c}" for c in CONSTRUCTORS}
    ctor = [s for s in spans if s.name in names
            and (s.parent is None or s.parent.name not in names)]
    eps = [s for s in spans if s.name in {f"channels.{e}" for e in EPSILONS}]
    m["channels.constructions"] = len(ctor)
    m["channels.construct_us"] = _mean_us(ctor)
    m["channels.epsilon_calls"] = len(eps)
    m["channels.epsilon_us"] = _mean_us(eps)

    m["cli.sweep_self_s"] = sum(lself(s) for s in tracer_mod.outermost(spans, "cli")) / 1e9
    for fn in CORE_FNS:
        sel = [s for s in spans if s.name == f"gaussian_core.{fn}"]
        m[f"gaussian_core.calls.{fn}"] = len(sel)
        m[f"gaussian_core.us.{fn}"] = _mean_us(sel)
    for s in spans:
        if s.name.startswith("verify.check_"):
            key = "verify.check_s." + s.name[len("verify.check_"):]
            m[key] = m.get(key, 0.0) + (s.end - s.start) / 1e9
    for s in op_spans:
        if s.name.startswith("fig"):
            m[f"cli.sweep_s.{s.name}"] = (s.end - s.start) / 1e9
    return m


def traced(wl, bb):
    import tracer as tracer_mod

    ops = wl.unit()
    lat_u, outs_u = run_pass(wl, ops)
    stats = {}
    failed = sum(wl.check(arg, out, stats) for arg, out in outs_u)
    g_elem, g_scalar = g_kernel(bb)

    tr = tracer_mod.Tracer()
    tr.install()
    try:
        lat_t, outs_t = run_pass(wl, ops, tr)
        n_main = len(tr.spans)
        lat_d = []
        if wl.name == "figures":
            with wl.default_pool():
                lat_d, outs_d = run_pass(wl, ops, tr)
            outs_t = outs_t + outs_d
            outs_u = outs_u + outs_u
    finally:
        tr.uninstall()
    main_spans = tr.spans[:n_main]
    m = layer_metrics(bb, tracer_mod, main_spans, [s for s in main_spans if s.layer == "op"])
    m["cli.sweep_s_threads1"] = _total_s(lat_t) if wl.name == "figures" else 0.0
    m["cli.sweep_s_default_pool"] = _total_s(lat_d)
    m["cli.cells"] = stats.get("items", 0) if wl.name == "figures" else 0
    m["cli.cells_infeasible"] = stats.get("infeasible", 0)
    m["gaussian_core.g_ns_per_elem"] = g_elem
    m["gaussian_core.g_us_per_scalar"] = g_scalar
    m["trace_overhead_frac"] = _total_s(lat_t) / _total_s(lat_u) - 1.0
    same = json.dumps([o for _, o in outs_u]) == json.dumps([o for _, o in outs_t])
    return {
        "attempted": stats["items"], "failed": failed + (0 if same else stats["items"]),
        "traced_equals_untraced": same, "spans": len(tr.spans), "ops": len(ops),
        "shares": getattr(wl, "shares", None), "metrics": m,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    bb = load_package()
    wl = workloads.make(args.workload, bb, args.seed, args.out_dir)
    if args.trace:
        result = traced(wl, bb)
    else:
        result = measure(wl, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy"):
        try:
            result["versions"][dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            result["versions"][dist] = None
    print("BENCH_RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

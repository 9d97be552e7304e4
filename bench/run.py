"""Benchmark of bosonic-bounds: figure sweeps, point queries and the oracle suite.

Run from the root of a checkout (standard library only; the package itself
needs numpy and scipy):

    python3 bench/run.py --workload figures --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

Each workload runs in a fresh interpreter started from ``bench/worker.py``
with ``src/`` on its path.  With ``--trace 0`` the last line is the JSON
result with every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it carries every per-layer metric.  The line before it is the
context block.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREADS_ENV = "BOSON_BOUNDS_THREADS"
SETUP_SAMPLES = 5
IMPORT = ("import time; t = time.perf_counter(); import bosonic_bounds, bosonic_bounds.cli; "
          "print(time.perf_counter() - t, bosonic_bounds.__file__)")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(args, timeout):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=timeout)


def setup_seconds():
    """Median import time of the package and its CLI over SETUP_SAMPLES
    fresh interpreters, after one untimed import that fills the bytecode
    cache.  Not scaled to a reference speed: import work (file reads,
    unmarshalling) does not slow down like the speed probe's kernel, and
    scaling made these times spread more, not less."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = _python(["-c", IMPORT], timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed:\n{proc.stderr}")
        took, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"bosonic_bounds imported from {where}, not from {SRC}")
        if i:
            samples.append(float(took))
    return statistics.median(samples)


def import_breakdown():
    """Import seconds of numpy, scipy and the package's own modules, from
    ``python -X importtime`` in a fresh interpreter.  numpy and scipy count
    the cumulative time of each import of them made from outside their own
    package; bosonic_bounds counts only its own modules' self time."""
    proc = _python(["-X", "importtime", "-c", "import bosonic_bounds, bosonic_bounds.cli"],
                   timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed:\n{proc.stderr}")
    rows = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), int(m.group(2)), len(m.group(3)), m.group(4)))
    us = {"numpy": 0, "scipy": 0, "bosonic_bounds": 0}
    ancestors = []  # importtime lists a module after everything it imports
    for self_us, cum_us, depth, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        parent_top = ancestors[-1][1].split(".")[0] if ancestors else None
        if top == "bosonic_bounds":
            us[top] += self_us
        elif top in us and parent_top != top:
            us[top] += cum_us
        ancestors.append((depth, name))
    return {"import.numpy_s": us["numpy"] / 1e6, "import.scipy_s": us["scipy"] / 1e6,
            "import.bosonic_bounds_self_s": us["bosonic_bounds"] / 1e6}


def run_worker(workload, seed, seconds, trace):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        proc = _python([str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace), "--out-dir", tmp],
                       timeout=150)
    try:
        out_dir.rmdir()
    except OSError:
        pass
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("BENCH_RESULT ")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
    return json.loads(lines[-1][len("BENCH_RESULT "):])


def git_commit():
    """Commit of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine():
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = None
    try:
        llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return {"cpu": cpu, "llc": llc, "nproc": len(os.sched_getaffinity(0))}


def run_workload(workload, args, spec):
    """Run one workload; returns (result line dict, context dict)."""
    res = run_worker(workload, args.seed, args.seconds, args.trace)
    context = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "commit": git_commit(), **machine(), **res["versions"],
               "threads_env_set": THREADS_ENV in os.environ,
               "sweep_threads": "1" if workload == "figures" else None,
               "attempted": res["attempted"], "failed": res["failed"],
               "failed_frac": res["failed"] / res["attempted"]}
    if res.get("shares"):
        total = sum(res["shares"].values())
        context["outcome_shares"] = {k: v / total for k, v in res["shares"].items()}
    if args.trace:
        values = {**res["metrics"], **import_breakdown()}
        context.update(traced_equals_untraced=res["traced_equals_untraced"],
                       spans=res["spans"], traced_ops=res["ops"],
                       g_bytes_moved_per_elem="16 (computed: 8 read + 8 written)")
        names = spec["per_layer"]
    else:
        values = {"setup_s": setup_seconds(), "peak_rss_mb": res["peak_rss_mb"],
                  "items_per_s": res["items_per_s"], "p50_us": res["p50_us"]}
        context.update(setup_samples=SETUP_SAMPLES, passes=res["passes"], ops=res["ops"],
                       probes=res["probes"], measured_s=res["measured_s"],
                       tail_pct=res["tail_pct"], tail_us=res["tail_us"], raw=res["raw"],
                       infeasible=res["infeasible"])
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        context["not_measured"] = missing
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}
    result = {"correct": res["failed"] == 0 and (not args.trace or res["traced_equals_untraced"]),
              "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    return result, context


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bosonic_bounds" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'bosonic_bounds'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads + ["all"]:
        ap.error(f"--workload must be one of {', '.join(workloads)} or all")
    if args.workload != "all":
        result, context = run_workload(args.workload, args, spec)
        print("context " + json.dumps(context))
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result, context = run_workload(workload, args, spec)
        print("context " + json.dumps(context))
        print(f"{workload}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} ({context['failed_frac']:.3g})")
        for name, m in result["metrics"].items():
            print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{workload}/{name}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

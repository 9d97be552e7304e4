"""Self-check of the benchmark's tracer.

    python3 bench/selfcheck.py                 # all workloads
    python3 bench/selfcheck.py figures verify  # some of them
    python3 bench/selfcheck.py --record        # store the counts as reference

Runs every named workload traced twice (``run.py --trace 1``) and fails
unless both runs are correct (which includes traced outputs equal to
untraced ones) and every per-layer count repeats exactly.  It then lists
the counts that differ from ``refs/trace_counts.json``, the counts recorded
at the reference commit; those differences are reported, not failed,
because a change may lower a count on purpose.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNTS = BENCH / "refs" / "trace_counts.json"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def traced_counts(workload):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "0", "--trace", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    return result["correct"], counts


def main(argv):
    record = "--record" in argv
    names = [a for a in argv if a != "--record"] or WORKLOADS
    stored = json.loads(COUNTS.read_text()) if COUNTS.is_file() else {}
    ok = True
    for wl in names:
        (c1, n1), (c2, n2) = traced_counts(wl), traced_counts(wl)
        repeat = n1 == n2
        ok &= c1 and c2 and repeat
        print(f"{wl}: correct={c1 and c2} counts_repeat={repeat}")
        for k in sorted(n1):
            if n1[k] != n2.get(k):
                print(f"  {k}: {n1[k]} then {n2.get(k)}")
        for k, v in sorted(stored.get(wl, {}).items()):
            if n1.get(k) != v:
                print(f"  {k}: {n1.get(k)} (reference commit: {v})")
        stored[wl] = n1
    if record:
        COUNTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

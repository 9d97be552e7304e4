"""Capture the reference outputs the benchmark checks against.

Run once, at the commit whose outputs are the reference, from the root of
the checkout:

    python3 bench/capture_refs.py

It writes ``bench/refs/``: the ten figure CSVs, the output of
``boson-bounds verify --suite all``, and for every seed in
``workloads.REF_SEEDS`` the outcome (values, or the error class) of the
first ``workloads.REF_PREFIX`` queries of each points class.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from worker import load_package  # noqa: E402


def main():
    bb = load_package()
    refs = workloads.REFS
    refs.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for fig in workloads.FIGURES:
            out = Path(tmp) / f"fig{fig}.csv"
            if bb.cli.main(["sweep", "--fig", fig, "--out", str(out)]) != 0:
                raise SystemExit(f"sweep --fig {fig} failed")
            (refs / f"fig{fig}.csv").write_bytes(out.read_bytes())
    scratch.rmdir()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bb.cli.main(["verify", "--suite", "all"])
    if code != 0:
        raise SystemExit("verify --suite all failed")
    (refs / "verify.txt").write_text(buf.getvalue())

    points = {}
    for klass, count in workloads.REF_PREFIX.items():
        points[klass] = {}
        for seed in workloads.REF_SEEDS:
            wl = workloads.Points(bb, seed, klass)
            outs = []
            for q in workloads.make_queries(seed, klass, count):
                out = wl.output(None, wl.run((None, q)))
                if out[0] == "x":
                    raise SystemExit(f"unexpected error on {q}: {out[1]}")
                outs.append(out)
            points[klass][str(seed)] = outs
    text = json.dumps(points, separators=(",", ":"))
    (refs / "points.json").write_text(text.replace("]],", "]],\n") + "\n")


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands:
  bound   evaluate one bound at one parameter point, JSON on stdout
  sweep   evaluate bounds over a parameter grid, CSV to a file
  verify  run the named invariant suites and report pass/fail

Exit codes: 0 success, 1 argument error or non-finite result, 2 infeasible
bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import bounds as bnd
from . import channels as chn
from . import verify as vfy
from .errors import BosonicBoundsError, DomainError, InfeasibleBoundError

BOUND_KINDS = tuple(bnd.REGISTRY)
SWEEP_VARS = ("ns", "eta", "nb", "g", "nbar")
FIGURES = ("3a", "3b", "3c", "3d", "4a", "4b", "5a", "5b", "6a", "6b")
# Not read by the package (sweeps run serially in grid order).  It stays
# because bench/workloads.py sets it; ROADMAP item K removes both.
THREADS_ENV = "BOSON_BOUNDS_THREADS"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 means "infeasible" here, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def cmd_bound(args) -> int:
    try:
        given = {k: v for k in ("eta", "g", "nbar", "nb") if (v := getattr(args, k)) is not None}
        stray = [k for k in given if k not in (*chn._KINDS[args.channel][1], "nb")]
        if stray:  # nb has a default, so an additive channel accepts it
            raise DomainError(f"{args.channel} channel takes no --{stray[0]}")
        ch = chn.make_channel(args.channel, **given)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing form is a DomainError
            result = bnd.evaluate(args.bound, ch, args.ns, args.eps_prime)
    except InfeasibleBoundError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except BosonicBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        text = json.dumps(result.to_dict(), allow_nan=False)
    except ValueError:  # strict JSON has no NaN or Infinity
        print(f"error: {result.kind} is not finite here (value_bits {result.value}, "
              f"raw_bits {result.raw})", file=sys.stderr)
        return 1
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid over one swept variable plus fixed channel params."""

    channel: str
    fixed: dict
    sweep: str
    start: float
    stop: float
    points: int
    scale: str
    bounds: tuple

    def __post_init__(self):
        if self.channel not in ("thermal", "amplifier", "additive"):
            raise ValueError(f"unknown channel {self.channel!r}")
        takes = ("ns", *chn._KINDS[self.channel][1])
        stray = [key for key in (*self.fixed, self.sweep) if key not in takes]
        if stray:
            raise ValueError(f"{self.channel} sweeps take {', '.join(takes)}, not {stray[0]}")
        need = takes[1]  # the kind's first parameter: only nb has a default
        if need not in self.fixed and need != self.sweep:
            raise ValueError(f"{self.channel} sweeps need {need}")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not self.start < self.stop:
            raise ValueError("start must be < stop")
        if self.scale not in ("linear", "log"):
            raise ValueError("scale must be linear or log")
        if self.scale == "log" and self.start <= 0:
            raise ValueError("log scale requires start > 0")
        bad = [b for b in self.bounds if b not in BOUND_KINDS]
        if bad:
            raise ValueError(f"unknown bounds {bad}")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


SPEC_KEYS = ("channel", "sweep", "start", "stop", "points", "scale", "bounds", *SWEEP_VARS)


def _value(kv, key, convert=str, default=None):
    """The value of `key` in kv through `convert`, or `default` when the key
    is absent; a missing, unreadable or non-finite value is an error that
    names the key."""
    if key not in kv:
        if default is None:
            raise ValueError(f"missing spec key {key!r}")
        return default
    try:
        value = convert(kv[key])
    except ValueError:
        raise ValueError(f"{key} = {kv[key]!r} is not a valid {convert.__name__}") from None
    if convert is float and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return value


def parse_spec(text: str) -> SweepSpec:
    """Parse the key=value sweep format (see README for the keys)."""
    kv = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in kv:
            raise ValueError(f"repeated spec key {key!r}")
        kv[key] = value
    unknown = [key for key in kv if key not in SPEC_KEYS]
    if unknown:
        raise ValueError(f"unknown spec keys {unknown}; the keys are {', '.join(SPEC_KEYS)}")
    return SweepSpec(
        channel=_value(kv, "channel"),
        fixed={key: _value(kv, key, float) for key in SWEEP_VARS if key in kv},
        sweep=_value(kv, "sweep"),
        start=_value(kv, "start", float),
        stop=_value(kv, "stop", float),
        points=_value(kv, "points", int),
        scale=_value(kv, "scale", default="linear"),
        bounds=tuple(b.strip() for b in _value(kv, "bounds").split(",")),
    )


def load_figure_spec(fig: str) -> SweepSpec:
    if fig not in FIGURES:
        raise ValueError(f"unknown figure id {fig!r}; choose from {FIGURES}")
    text = resources.files("bosonic_bounds").joinpath(f"configs/fig{fig}.cfg").read_text()
    return parse_spec(text)


def _sweep_channel(spec: SweepSpec, value: float):
    """(channel, ns) at a grid point, or None where the channel does not build."""
    params = {**spec.fixed, spec.sweep: value}
    ns = params.pop("ns", 0.0)
    try:
        return chn.make_channel(spec.channel, **params), ns
    except BosonicBoundsError:
        return None


def run_sweep(spec: SweepSpec) -> list:
    """Rows of the sweep as (value, [cells]) in grid order.  All bound kinds
    are one :func:`bounds.evaluate_columns` call over the rows whose channel
    builds, so their penalized kinds share one eps' minimization batch; a
    row without a channel and an infeasible cell stay None."""
    values = [float(v) for v in spec.grid()]
    points = [_sweep_channel(spec, v) for v in values]
    built = [i for i, p in enumerate(points) if p is not None]
    rows = [[None] * len(spec.bounds) for _ in values]
    channels, ns = zip(*(points[i] for i in built)) if built else ((), ())
    columns = bnd.evaluate_columns(spec.bounds, channels, ns)
    for j, column in enumerate(columns):
        for i, cell in zip(built, column):
            if isinstance(cell, bnd.BoundResult):
                rows[i][j] = cell.value
    for value, cells in zip(values, rows):
        for kind, cell in zip(spec.bounds, cells):
            if cell is not None and not np.isfinite(cell):
                raise DomainError(f"{kind} is not finite at {spec.sweep} = {value:.12g} "
                                  f"(value_bits {cell})")
    return list(zip(values, rows))


def format_csv(spec: SweepSpec, rows) -> str:
    lines = ["sweep_var," + ",".join(spec.bounds)]
    for value, cells in rows:  # an infeasible cell is an empty field
        lines.append(",".join("" if x is None else format(x, ".12g") for x in (value, *cells)))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    try:
        if args.fig:
            spec = load_figure_spec(args.fig)
        else:
            with open(args.spec, encoding="utf-8") as fh:
                spec = parse_spec(fh.read())
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing form is a DomainError
            rows = run_sweep(spec)
        csv_text = format_csv(spec, rows)
    except (OSError, ValueError, BosonicBoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    results = vfy.run_suite(args.suite)
    for r in results:
        print(r.format())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="boson-bounds",
                description="Capacity bounds for phase-insensitive bosonic Gaussian channels")
    sub = p.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound", help="evaluate a single bound, JSON output")
    pb.add_argument("--channel", required=True, choices=("thermal", "amplifier", "additive"))
    pb.add_argument("--eta", type=float, help="thermal transmissivity")
    pb.add_argument("--g", type=float, help="amplifier gain")
    pb.add_argument("--nbar", type=float, help="additive noise photons")
    pb.add_argument("--nb", type=float, default=0.0, help="environment photons")
    pb.add_argument("--ns", type=float, default=0.0, help="input mean photon number")
    pb.add_argument("--bound", required=True, choices=BOUND_KINDS)
    pb.add_argument("--eps-prime", type=float, default=None,
                    help="fix eps' instead of optimizing it")

    ps = sub.add_parser("sweep", help="evaluate bounds over a grid, CSV output")
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="key=value sweep config file")
    group.add_argument("--fig", choices=FIGURES,
                       help="checked-in figure-reproduction config")
    ps.add_argument("--out", required=True, help="output CSV path")

    pv = sub.add_parser("verify", help="run the invariant suites")
    pv.add_argument("--suite", default="all", choices=tuple(vfy.SUITES))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a cmd_* wrapped after the parser was cached still runs
    return {"bound": cmd_bound, "sweep": cmd_sweep, "verify": cmd_verify}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

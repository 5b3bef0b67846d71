"""Run one workload of the repository benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload atm_append --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
every timing is printed speed-normalised (scaled to the reference
machine speed, see ``probe.py``) with the raw value beside it.
``--trace 1`` runs the workload once plain and once with the per-layer
ledger installed (see ``layers.py``) and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("atm_append", "billing_durable", "sharded_process")

#: End-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "records_per_s": "rec/s",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "read_p50_us": "us",
    "read_tail_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
#: A reported tail percentile has at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with >= TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile, samples beyond)`` (nearest rank).
    """
    ordered = sorted(values)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100 * n))
        if n - rank >= TAIL_BEYOND or percentile == TAIL_PERCENTILES[-1]:
            return ordered[rank - 1], percentile, n - rank
    raise AssertionError("unreachable")


def end_to_end(result: Any) -> Dict[str, Tuple[float, Optional[float], str]]:
    """name -> (speed-normalised value, raw value, note)."""
    meter = result.meter
    out: Dict[str, Tuple[float, Optional[float], str]] = {
        "records_per_s": (
            meter.records / meter.work_scaled,
            meter.records / meter.work_raw,
            f"{meter.records} records in {meter.work_raw:.2f} s of timed work",
        ),
    }
    for kind, scaled, raw, unit, factor in (
        ("write", meter.writes_scaled, meter.writes_raw, "ms", 1e3),
        ("read", meter.reads_scaled, meter.reads_raw, "us", 1e6),
    ):
        out[f"{kind}_p50_{unit}"] = (
            statistics.median(scaled) * factor,
            statistics.median(raw) * factor,
            f"median of {len(raw)}",
        )
        value, percentile, beyond = tail(scaled)
        out[f"{kind}_tail_{unit}"] = (
            value * factor,
            tail(raw)[0] * factor,
            f"p{percentile:g} of {len(raw)} ({beyond} beyond)",
        )
    out["setup_s"] = (
        statistics.median(result.setup_scaled),
        statistics.median(result.setup_raw),
        f"median of {len(result.setup_raw)} set-ups",
    )
    out["peak_rss_mb"] = (result.peak_rss_mb, None, "not scaled; workers included")
    return out


def print_table(rows: List[Tuple[str, str, str, str, str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def run_end_to_end(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from workloads import WORKLOADS

    result = WORKLOADS[name](seed, seconds)
    metrics = end_to_end(result)
    rows = [("metric", "value", "raw", "unit", "note")]
    for metric, (value, raw, note) in metrics.items():
        rows.append((
            metric,
            f"{value:.6g}",
            "-" if raw is None else f"{raw:.6g}",
            END_TO_END_UNITS[metric],
            note,
        ))
    print_table(rows)
    print("raw " + json.dumps({metric: raw for metric, (_, raw, _) in metrics.items()}))
    scale = result.meter.scale
    print(
        f"speed probe: median {scale.median_probe() * 1e3:.3f} ms raw, reference "
        f"{scale.reference * 1e3:.3f} ms; {len(scale.probes)} clean probes, "
        f"{scale.rejected} retried"
    )
    return {
        "correct": result.correct,
        "attempted": result.meter.attempted,
        "failed": result.meter.failed,
        "metrics": {
            metric: {"value": value, "unit": END_TO_END_UNITS[metric]}
            for metric, (value, _, _) in metrics.items()
        },
    }


#: Set-ups per pass of a traced run.  Two, so that both passes time a
#: database built after a discarded one: the first pass would otherwise
#: also pay for growing the process heap, and the overhead would read low.
TRACE_SETUP_REPS = 2


def run_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from layers import PER_LAYER_UNITS, LayerLedger
    from workloads import WORKLOADS

    untraced = WORKLOADS[name](seed, seconds, setup_reps=TRACE_SETUP_REPS)
    ledger = LayerLedger().install()
    try:
        traced = WORKLOADS[name](seed, seconds, setup_reps=TRACE_SETUP_REPS, ledger=ledger)
    finally:
        ledger.uninstall()
    rows = [("layer metric", "value", "", "unit", "")]
    for metric, value in traced.layers.items():
        rows.append((metric, f"{value:.6g}", "", PER_LAYER_UNITS[metric], ""))
    print_table(rows)
    plain = end_to_end(untraced)["records_per_s"][0]
    wrapped = end_to_end(traced)["records_per_s"][0]
    print(
        f"tracing overhead: records_per_s {plain:.6g} untraced, {wrapped:.6g} traced "
        f"({(1 - wrapped / plain) * 100:.1f}% slower)"
    )
    return {
        "correct": untraced.correct and traced.correct,
        "attempted": untraced.meter.attempted + traced.meter.attempted,
        "failed": untraced.meter.failed + traced.meter.failed,
        "metrics": {
            metric: {"value": value, "unit": PER_LAYER_UNITS[metric]}
            for metric, value in traced.layers.items()
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; prints each one's output."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            print(f"{name} exited with status {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program under test is missing: no {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    run = run_traced if args.trace else run_end_to_end
    from workloads import stop_children

    try:
        result = run(args.workload, args.seed, args.seconds)
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure how steady the end-to-end metrics are across seeds.

From the root of a checkout::

    python3 perfbench/steadiness.py --workload atm_append --seeds 1-10

Runs ``run.py`` once per seed (one process each, one after another) and
prints, per end-to-end metric, the median and the spread of the values:
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, for
the speed-normalised values that the benchmark reports and for the raw
ones beside them.  A metric is steady when its spread stays well inside
its ``bound`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: List[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()
    scaled: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for line in lines:
            if line.startswith("raw "):
                for metric, value in json.loads(line[4:]).items():
                    if value is not None:
                        raw.setdefault(metric, []).append(value)
        for metric, value in result["metrics"].items():
            scaled.setdefault(metric, []).append(value["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{metric}={value['value']:.5g}" for metric, value in result["metrics"].items()
        ), flush=True)
    print(f"{'metric':15} {'median':>10} {'spread':>8} {'raw spread':>11} {'bound':>6}")
    for metric, values in scaled.items():
        raw_spread = f"{spread(raw[metric]):.1%}" if metric in raw else "-"
        print(f"{metric:15} {statistics.median(values):10.5g} {spread(values):8.1%} "
              f"{raw_spread:>11} {bounds.get(metric, float('nan')):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: repeatable counts and the probe check.

Run from the root of a checkout::

    python3 -m pytest perfbench

Each workload runs twice, traced, with one seed at a reduced size; every
count metric of the per-layer ledger must repeat exactly.  The speed
probe must refuse to measure while a program thread keeps the
interpreter busy, and no worker process or resource tracker may outlive
a run.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from layers import COUNT_METRICS, LayerLedger  # noqa: E402
from probe import ProbeError, SpeedScale, is_clean, timed_probe  # noqa: E402

#: Reduced key spaces; with SECONDS the runs take a few seconds each.
SMALL = {
    "atm_append": {"accounts": 200},
    "billing_durable": {"subscribers": 500},
    "sharded_process": {"accounts": 500},
}
SECONDS = 0.3


def traced_run(name: str) -> workloads.RunResult:
    ledger = LayerLedger().install()
    try:
        return workloads.WORKLOADS[name](
            seed=3, seconds=SECONDS, setup_reps=1, ledger=ledger, **SMALL[name]
        )
    finally:
        ledger.uninstall()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(name: str) -> None:
    first = traced_run(name)
    second = traced_run(name)
    assert first.correct and second.correct
    assert first.meter.attempted == second.meter.attempted
    for metric in COUNT_METRICS:
        assert first.layers[metric] == second.layers[metric], metric


def test_untraced_run_is_correct_and_unwrapped() -> None:
    result = workloads.atm_append(seed=5, seconds=SECONDS, setup_reps=2, accounts=200)
    assert result.correct
    assert result.layers == {}
    assert len(result.setup_raw) == 2
    assert result.meter.attempted > 2 * result.meter.records  # reads, writes, state checks


def _spin(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(range(1000))


def test_probe_rejected_beside_a_busy_thread() -> None:
    assert timed_probe()[0] > sys.getswitchinterval()
    stop = threading.Event()
    thread = threading.Thread(target=_spin, args=(stop,))
    thread.start()
    try:
        wall, cpu = timed_probe()
        assert not is_clean(wall, cpu)
        with pytest.raises(ProbeError):
            SpeedScale(max_attempts=3)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_speed_factor_scales_to_reference() -> None:
    scale = SpeedScale(reference=1.0)
    factor = scale.end_slice()
    first, second = scale.probes
    assert factor == pytest.approx(2 / (first + second))


def test_no_process_outlives_a_sharded_run() -> None:
    from multiprocessing import resource_tracker

    result = workloads.sharded_process(seed=4, seconds=SECONDS, setup_reps=1, accounts=500)
    assert result.correct
    workloads.stop_children()
    assert workloads.child_pids() == []
    assert resource_tracker._resource_tracker._fd is None

"""Machine-speed probe: scales measured times to a fixed reference speed.

The host this benchmark runs on changes speed from one second to the
next (shared CPUs, frequency scaling), by more than the bounds a
regression gate needs.  So between short measured slices the benchmark
runs a fixed pure-Python loop, the *probe*, and scales every slice by
``REFERENCE_PROBE_S / probe time``: a slice measured while the machine
ran 20% slow is credited back those 20%.

The probe is only valid while the program under test is idle.  Each
probe checks that the main thread's CPU time (``time.thread_time``)
covered its wall time: a program thread holding the interpreter lock,
or the host descheduling the process, shows as a gap and the probe is
taken again.  A run that cannot get a clean probe is invalid
(:class:`ProbeError`).
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: Median wall time of one probe on the reference machine, in seconds
#: (the 2-vCPU Python 3.11 host the bounds in BENCHMARK.json were set on).
REFERENCE_PROBE_S = 0.012
#: Passes over the pattern in one probe: about 10 ms, longer than the
#: interpreter's 5 ms thread switch interval, so a program thread that
#: wants the interpreter lock always gets it during a probe and shows.
PROBE_ROUNDS = 8
#: A clean probe's main thread ran for at least this share of its wall time.
MIN_CPU_SHARE = 0.95
#: Probes tried before a measurement point is declared invalid.
MAX_ATTEMPTS = 25
#: The probe's fixed input: integers below 256, which CPython allocates
#: once at start-up.
_PATTERN = [((i * 40503) >> 3) & 255 for i in range(15_000)]


class ProbeError(RuntimeError):
    """No clean probe could be taken: the measurement is invalid."""


def probe_loop(pattern: List[int] = _PATTERN) -> int:
    """Fixed interpreter work: list reads and writes, small-integer sums.

    The loop allocates nothing.  Its speed therefore does not depend on
    the program's heap (a probe that allocates reuses the blocks the
    program freed, and slows or speeds up with the program's state), and
    it never starts a garbage-collection pass.
    """
    table = list(range(256))
    acc = 0
    for _ in range(PROBE_ROUNDS):
        for x in pattern:
            acc = (acc + table[x ^ acc]) & 255
            table[x] = acc
    return acc


def timed_probe() -> Tuple[float, float]:
    """Run one probe; returns ``(wall seconds, main-thread CPU seconds)``."""
    cpu0 = time.thread_time()
    wall0 = time.perf_counter()
    probe_loop()
    wall = time.perf_counter() - wall0
    cpu = time.thread_time() - cpu0
    return wall, cpu


def is_clean(wall: float, cpu: float) -> bool:
    """Whether the probe ran undisturbed (CPU time covers wall time)."""
    return cpu >= MIN_CPU_SHARE * wall


class SpeedScale:
    """Probes between measured slices and converts raw seconds.

    Call :meth:`end_slice` after each slice of measured work; it probes
    and returns the factor for that slice: reference probe time over the
    mean of the probes just before and just after it.  Multiplying a
    slice's raw seconds by its factor gives reference-machine seconds.
    """

    def __init__(
        self,
        reference: float = REFERENCE_PROBE_S,
        max_attempts: int = MAX_ATTEMPTS,
    ) -> None:
        self.reference = reference
        self.max_attempts = max_attempts
        self.probes: List[float] = []
        self.rejected = 0
        self._last = self.probe()

    def probe(self) -> float:
        """Take one clean probe (retrying disturbed ones); returns its wall time."""
        for _ in range(self.max_attempts):
            wall, cpu = timed_probe()
            if is_clean(wall, cpu):
                self.probes.append(wall)
                return wall
            self.rejected += 1
        raise ProbeError(
            f"no clean speed probe in {self.max_attempts} attempts: the main "
            f"thread was not running for the whole probe (a program thread "
            f"held the interpreter lock, or the host descheduled the process)"
        )

    def end_slice(self) -> float:
        """Probe after a slice; returns the slice's speed factor."""
        after = self.probe()
        factor = self.reference / ((self._last + after) / 2)
        self._last = after
        return factor

    def median_probe(self) -> float:
        return statistics.median(self.probes)

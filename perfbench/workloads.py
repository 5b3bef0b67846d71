"""The benchmark's workloads: seeded inputs, closed loops and oracles.

Each workload is a closed loop with one client that waits for every
reply before it sends the next request.  All inputs are generated from
the seed before set-up starts, and the number of operations follows
from ``--seconds`` and a nominal reference-machine rate, never from the
clock: a given seed and size always runs the same operations, the same
number of snapshots and windows.

Every timed read is checked against a reference fold kept here (plain
dict sums over the generated records), outside the timed interval, and
the final state of every view is compared key by key.  A wrong read or
a mismatched key counts as a failed operation.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from time import perf_counter as clock
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from repro import (
    BankingWorkload,
    ChronicleDatabase,
    DatabaseConfig,
    DurabilityConfig,
    TelecomWorkload,
)

from layers import diff, layer_metrics
from probe import SpeedScale

Record = Dict[str, Any]

#: Set-up repetitions of an end-to-end run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Where durable databases live while a run needs them (inside the
#: checkout, removed when the run ends).
WORK_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".perfbench-work")


# -- measurement ------------------------------------------------------------------


class Meter:
    """Raw and speed-scaled samples of one run's timed operations.

    Operations are recorded into the current slice; :meth:`end_slice`
    probes machine speed and scales the slice's samples by its factor.
    """

    def __init__(self, scale: SpeedScale) -> None:
        self.scale = scale
        self.writes_raw: List[float] = []
        self.writes_scaled: List[float] = []
        self.reads_raw: List[float] = []
        self.reads_scaled: List[float] = []
        self.work_raw = 0.0
        self.work_scaled = 0.0
        self.records = 0
        self.batches = 0
        self.attempted = 0
        self.failed = 0
        self._writes: List[float] = []
        self._reads: List[float] = []

    def write(self, seconds: float, records: int, batches: int) -> None:
        self._writes.append(seconds)
        self.records += records
        self.batches += batches
        self.attempted += 1

    def write_failed(self) -> None:
        self.attempted += 1
        self.failed += 1

    def read(self, seconds: float, correct: bool) -> None:
        self._reads.append(seconds)
        self.attempted += 1
        if not correct:
            self.failed += 1

    def check(self, counts: Tuple[int, int]) -> None:
        """Count untimed state checks: ``(keys checked, keys wrong)``."""
        checked, wrong = counts
        self.attempted += checked
        self.failed += wrong

    def end_slice(self) -> None:
        factor = self.scale.end_slice()
        for pending, raw, scaled in (
            (self._writes, self.writes_raw, self.writes_scaled),
            (self._reads, self.reads_raw, self.reads_scaled),
        ):
            raw.extend(pending)
            scaled.extend(seconds * factor for seconds in pending)
            work = sum(pending)
            self.work_raw += work
            self.work_scaled += work * factor
            pending.clear()


@dataclass
class RunResult:
    """Everything one workload run measured."""

    meter: Meter
    setup_raw: List[float]
    setup_scaled: List[float]
    peak_rss_mb: float
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.meter.failed == 0


SetupSteps = Generator[None, None, Any]


def timed_setup(scale: SpeedScale, steps: SetupSteps) -> Tuple[Any, float, float]:
    """Run one set-up, probing between its steps.

    *steps* is a generator that yields between set-up steps and returns
    the database.  Returns ``(database, raw seconds, scaled seconds)``.
    """
    scale.end_slice()  # a fresh probe right before the set-up starts
    raw = scaled = 0.0
    while True:
        started = clock()
        try:
            next(steps)
        except StopIteration as done:
            elapsed = clock() - started
            return done.value, raw + elapsed, scaled + elapsed * scale.end_slice()
        elapsed = clock() - started
        raw += elapsed
        scaled += elapsed * scale.end_slice()


def child_pids() -> List[int]:
    """Pids of this process's child processes, zombies included."""
    parent = str(os.getpid())
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # "pid (comm) state ppid ...": comm may hold spaces.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == parent:
            pids.append(int(pid))
    return pids


def worker_peak_kb() -> int:
    """Summed peak RSS (VmHWM) of this process's live child processes."""
    total = 0
    for pid in child_pids():
        try:
            with open(f"/proc/{pid}/status") as handle:
                status = dict(line.split(":", 1) for line in handle if ":" in line)
        except OSError:
            continue  # the process ended while we looked
        if "VmHWM" in status:
            total += int(status["VmHWM"].split()[0])
    return total


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The process executor's pools are joined by ``close()``, but
    ``multiprocessing`` also starts a resource tracker that would
    otherwise outlive this process by a moment: stop it first, then
    wait for (and, after *timeout*, kill) any child still left; give up
    after twice *timeout*.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    deadline = clock() + timeout
    while True:
        pids = child_pids()
        if not pids or clock() > deadline + timeout:
            return
        for pid in pids:
            if clock() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # not ours to wait for (already reaped elsewhere)
        time.sleep(0.01)


def peak_rss_mb(workers_kb: int = 0) -> float:
    """Peak RSS of this process plus *workers_kb*, in MB."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + workers_kb) / 1024


def ops_for(seconds: float, rate: float) -> int:
    """Operations sized to take *seconds* at a nominal reference *rate*."""
    return max(1, round(seconds * rate))


def chunks(items: Sequence[Any], size: int) -> List[Sequence[Any]]:
    return [items[start : start + size] for start in range(0, len(items), size)]


def unique(batch: Iterable[Record]) -> List[Record]:
    """A batch's distinct records: identical records in one batch share a
    sequence number, so set semantics admits them once."""
    return list({tuple(record.values()): record for record in batch}.values())


def compare(expected: Dict[Any, Any], actual: Dict[Any, Any]) -> Tuple[int, int]:
    """``(keys checked, keys wrong)``: a key is wrong when it is missing
    on either side or its values differ."""
    keys = expected.keys() | actual.keys()
    wrong = sum(1 for key in keys if expected.get(key) != actual.get(key))
    return len(keys), wrong


class Phases:
    """Ledger snapshots around set-up and the timed loop (traced runs)."""

    def __init__(self, ledger: Any) -> None:
        self.ledger = ledger
        self.marks: Dict[str, Any] = {}

    def mark(self, name: str, db: Any = None) -> None:
        if self.ledger is None:
            return
        obs = db.observability if db is not None else None
        self.marks[name] = (
            self.ledger.snapshot(),
            dict(db.stats) if db is not None else {},
            obs.tracer.completed_count if obs is not None else 0,
        )

    def layer_metrics(self, meter: Meter, reps: int, windows: int) -> Dict[str, float]:
        if self.ledger is None:
            return {}
        setup = diff(self.marks["setup_end"][0], self.marks["setup_start"][0])
        (after, stats_after, spans_after) = self.marks["timed_end"]
        (before, stats_before, spans_before) = self.marks["timed_start"]
        stats = {
            key: stats_after.get(key, 0) - stats_before.get(key, 0)
            for key in ("events", "candidate_views", "maintained_views")
        }
        return layer_metrics(
            diff(after, before),
            setup,
            reps,
            records=meter.records,
            batches=meter.batches,
            windows=windows,
            stats=stats,
            spans=spans_after - spans_before,
            work_seconds=meter.work_raw,
            probe_seconds=meter.scale.median_probe(),
        )


def measure_setups(
    scale: SpeedScale,
    build: Callable[[], SetupSteps],
    reps: int,
    discard: Callable[[Any], None],
) -> Tuple[Any, List[float], List[float]]:
    """Set up *reps* times; keeps the last database, discards the others.

    ``build()`` itself is not timed: it returns the generator of timed
    set-up steps.
    """
    raw: List[float] = []
    scaled: List[float] = []
    db = None
    for _ in range(reps):
        if db is not None:
            discard(db)
        db, seconds, reference_seconds = timed_setup(scale, build())
        raw.append(seconds)
        scaled.append(reference_seconds)
    return db, raw, scaled


# -- the banking catalog (atm_append, sharded_process) ------------------------------

#: Amount bands (cents) crossed with transaction kinds: 40 filtered
#: summaries plus ``balance``, all grouped by account (the E14 catalog).
BANDS = (-100_000, -40_000, -20_000, -5_000, -1_000, 0, 20_000, 80_000, 150_000, 250_000)
KINDS = ("withdrawal", "deposit", "fee", "check")
#: (view name, kind or None, comparison, band)
BANKING_VIEWS: Tuple[Tuple[str, Optional[str], str, int], ...] = (
    ("balance", None, "", 0),
) + tuple(
    (f"v_{kind}_{i}", kind, "<" if band <= 0 else ">", band)
    for kind in KINDS
    for i, band in enumerate(BANDS)
)


def banking_ddl() -> List[str]:
    statements = []
    for name, kind, op, band in BANKING_VIEWS:
        where = "" if kind is None else f" WHERE kind = '{kind}' AND cents {op} {band}"
        statements.append(
            f"DEFINE VIEW {name} AS SELECT acct, SUM(cents) AS total, COUNT(*) AS n "
            f"FROM transactions{where} GROUP BY acct"
        )
    return statements


def create_banking(db: ChronicleDatabase) -> None:
    db.create_chronicle("transactions", BankingWorkload.CHRONICLE_SCHEMA, retention=0)
    for statement in banking_ddl():
        db.define_view(statement)


def opening_deposits(seed: int, accounts: int) -> List[Record]:
    """One opening deposit per account, seeded amounts."""
    rng = random.Random(seed * 7919 + 1)
    return [
        {"acct": 100_000 + i, "kind": "deposit", "cents": rng.randrange(10_000, 500_001), "day": 0}
        for i in range(accounts)
    ]


class BankingOracle:
    """Reference fold of all 41 banking views: acct -> [total, n]."""

    def __init__(self) -> None:
        self.states: Dict[str, Dict[int, List[int]]] = {name: {} for name, *_ in BANKING_VIEWS}
        self.balance = self.states["balance"]

    def add(self, batch: Iterable[Record]) -> None:
        states = self.states
        for record in unique(batch):
            acct, kind, cents = record["acct"], record["kind"], record["cents"]
            for name, view_kind, op, band in BANKING_VIEWS:
                if view_kind is not None and (
                    kind != view_kind or not (cents < band if op == "<" else cents > band)
                ):
                    continue
                state = states[name].get(acct)
                if state is None:
                    states[name][acct] = [cents, 1]
                else:
                    state[0] += cents
                    state[1] += 1

    def total(self, acct: int) -> Optional[int]:
        state = self.balance.get(acct)
        return None if state is None else state[0]

    def compare(self, db: ChronicleDatabase) -> Tuple[int, int]:
        """``(keys checked, keys wrong)`` over every view."""
        checked = wrong = 0
        for name, expected in self.states.items():
            actual = {row["acct"]: [row["total"], row["n"]] for row in db.view(name).rows()}
            keys, bad = compare(expected, actual)
            checked += keys
            wrong += bad
        return checked, wrong


# -- atm_append ---------------------------------------------------------------------

ATM_ACCOUNTS = 2_000
#: Nominal append+read pairs per second on the reference machine.
ATM_OPS_PER_S = 2_800
#: Appends between speed probes.
ATM_SLICE = 200


def atm_append(
    seed: int,
    seconds: float,
    setup_reps: int = SETUP_REPS,
    ledger: Any = None,
    accounts: int = ATM_ACCOUNTS,
) -> RunResult:
    """The paper's Section 1 ATM regime on the default serial engine.

    Why: one transaction per ``append``, then a balance read, so admission,
    view routing and prefiltering, and per-event fixed costs do most of
    the work; no WAL, IPC or observability runs.  It is the "mechanism
    on" side for predicate-indexed routing and the "bypass" side for
    window coalescing (every batch is its own event).  Accounts are
    Zipf-distributed over a small hot key set.
    """
    stream = list(BankingWorkload(seed=seed, accounts=accounts).records(
        ops_for(seconds, ATM_OPS_PER_S)
    ))
    opening = opening_deposits(seed, accounts)
    phases = Phases(ledger)
    scale = SpeedScale()

    def build() -> SetupSteps:
        db = ChronicleDatabase()
        create_banking(db)
        db.registry.ensure_compiled()
        yield
        for chunk in chunks(opening, 250):
            for record in chunk:
                db.append("transactions", record)
            yield
        return db

    phases.mark("setup_start")
    db, setup_raw, setup_scaled = measure_setups(scale, build, setup_reps, ChronicleDatabase.close)
    phases.mark("setup_end")
    oracle = BankingOracle()
    oracle.add(opening)
    meter = Meter(scale)
    phases.mark("timed_start", db)
    for chunk in chunks(stream, ATM_SLICE):
        for record in chunk:
            started = clock()
            try:
                db.append("transactions", record)
            except Exception:
                meter.write_failed()
                continue
            appended = clock()
            total = db.view_value("balance", (record["acct"],), "total")
            read = clock()
            meter.write(appended - started, 1, 1)
            oracle.add((record,))
            meter.read(read - appended, total == oracle.total(record["acct"]))
        meter.end_slice()
    phases.mark("timed_end", db)
    meter.check(oracle.compare(db))
    layer = phases.layer_metrics(meter, setup_reps, windows=len(stream))
    db.close()
    return RunResult(meter, setup_raw, setup_scaled, peak_rss_mb(), layer)


# -- billing_durable ----------------------------------------------------------------

BILLING_SUBSCRIBERS = 20_000
CALLS_PER_DAY = 200
#: Records per call-detail batch, and batches per ingest window.
BILLING_BATCH = 4
BILLING_WINDOW = 8
#: ``view_row("usage", ...)`` lookups in one billing statement.
BILLING_READS = 8
#: Nominal records per second on the reference machine.
BILLING_RECORDS_PER_S = 1_800
#: Windows between speed probes.
BILLING_SLICE = 4
#: The flush policy: per-batch commit, fsync at snapshots, a snapshot
#: every 512 logged batches (the defaults).
SNAPSHOT_INTERVAL = 512
#: The untimed prep log: two snapshots plus a 256-batch tail to replay.
PREP_BATCH = 16
PREP_BATCHES = 2 * SNAPSHOT_INTERVAL + 256

BILLING_DDL = (
    "DEFINE VIEW usage AS SELECT caller, SUM(cents) AS total_cents, "
    "SUM(seconds) AS total_seconds, COUNT(*) AS calls FROM calls GROUP BY caller",
    "DEFINE VIEW daily AS SELECT day, SUM(cents) AS total_cents, COUNT(*) AS calls "
    "FROM calls GROUP BY day",
    "DEFINE VIEW heavy AS SELECT caller, SUM(seconds) AS total_seconds FROM calls "
    "GROUP BY caller HAVING total_seconds > 36000",
    "DEFINE VIEW long_received AS SELECT callee, COUNT(*) AS calls FROM calls "
    "WHERE seconds > 1800 GROUP BY callee",
    "DEFINE PERIODIC VIEW monthly OVER EVERY 30 EXPIRE AFTER 60 BY day AS "
    "SELECT caller, SUM(cents) AS total_cents FROM calls GROUP BY caller",
)
PERIOD, EXPIRE_AFTER, HEAVY_SECONDS, LONG_CALL = 30, 60, 36_000, 1_800


def billing_config(directory: str, observe: bool) -> DatabaseConfig:
    return DatabaseConfig(
        observe=observe,
        durability=DurabilityConfig(
            mode="wal+snapshot",
            dir=directory,
            fsync="batch",
            snapshot_interval_batches=SNAPSHOT_INTERVAL,
        ),
    )


class BillingOracle:
    """Reference fold of the five billing views."""

    def __init__(self) -> None:
        self.usage: Dict[int, List[int]] = {}
        self.daily: Dict[int, List[int]] = {}
        self.long_received: Dict[int, int] = {}
        self.monthly: Dict[int, Dict[int, int]] = {}
        self.clock = -1

    def add(self, batch: Iterable[Record]) -> None:
        for record in unique(batch):
            caller, cents, seconds, day = (
                record["caller"], record["cents"], record["seconds"], record["day"]
            )
            state = self.usage.setdefault(caller, [0, 0, 0])
            state[0] += cents
            state[1] += seconds
            state[2] += 1
            daily = self.daily.setdefault(day, [0, 0])
            daily[0] += cents
            daily[1] += 1
            if seconds > LONG_CALL:
                callee = record["callee"]
                self.long_received[callee] = self.long_received.get(callee, 0) + 1
            period = self.monthly.setdefault(day // PERIOD, {})
            period[caller] = period.get(caller, 0) + cents
            self.clock = max(self.clock, day)

    def usage_row(self, caller: int) -> Optional[List[int]]:
        return self.usage.get(caller)

    def compare(self, db: ChronicleDatabase) -> Tuple[int, int]:
        """``(keys checked, keys wrong)`` over every view."""

        def rows(name: str, key: str, *outputs: str) -> Dict[Any, Any]:
            return {
                row[key]: [row[o] for o in outputs] if len(outputs) > 1 else row[outputs[0]]
                for row in db.view(name).rows()
            }

        heavy = {c: s[1] for c, s in self.usage.items() if s[1] > HEAVY_SECONDS}
        active = {
            index: totals
            for index, totals in self.monthly.items()
            if index * PERIOD + PERIOD + EXPIRE_AFTER > self.clock
        }
        monthly = {
            index: {row["caller"]: row["total_cents"] for row in view.rows()}
            for index, view in db.periodic_view("monthly").active_views()
        }
        pairs = (
            (self.usage, rows("usage", "caller", "total_cents", "total_seconds", "calls")),
            (self.daily, rows("daily", "day", "total_cents", "calls")),
            (heavy, rows("heavy", "caller", "total_seconds")),
            (self.long_received, rows("long_received", "callee", "calls")),
            (active, monthly),
        )
        counts = [compare(expected, actual) for expected, actual in pairs]
        return sum(c for c, _ in counts), sum(w for _, w in counts)


def billing_durable(
    seed: int,
    seconds: float,
    setup_reps: int = SETUP_REPS,
    ledger: Any = None,
    subscribers: int = BILLING_SUBSCRIBERS,
) -> RunResult:
    """Durable, monitored billing on the serial engine (Section 5 views).

    Why: ``storage`` (WAL append, snapshot stalls, recovery) and ``obs``
    (full tracing, auditor, cost ledger and metrics history, as a
    monitored production deployment runs) do most of the work, and view
    routing almost none.  Writes are ``ingest`` windows of small CDR
    batches, each followed by one billing statement of usage lookups.
    An untimed prep builds the log and ends in a simulated crash;
    ``setup_s`` is the recovery inside ``open()``: DDL recompile,
    snapshot load and tail replay.  This is also the serial-engine
    window path that window coalescing would change.
    """
    workload = TelecomWorkload(seed=seed, subscribers=subscribers, calls_per_day=CALLS_PER_DAY)
    prep_records = list(workload.records(PREP_BATCHES * PREP_BATCH))
    prep_batches = chunks(prep_records, PREP_BATCH)
    timed_records = list(workload.records(
        ops_for(seconds, BILLING_RECORDS_PER_S), start=len(prep_records)
    ))
    windows = chunks(chunks(timed_records, BILLING_BATCH), BILLING_WINDOW)
    oracle = BillingOracle()
    for batch in prep_batches:
        oracle.add(batch)
    phases = Phases(ledger)
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="billing-", dir=WORK_DIR)
    try:
        prep = os.path.join(work, "prep")
        db = ChronicleDatabase.open(prep, billing_config(prep, observe=False))
        db.create_chronicle("calls", TelecomWorkload.CHRONICLE_SCHEMA, retention=0)
        for statement in BILLING_DDL:
            db.define_view(statement)
        for window in chunks(prep_batches, BILLING_WINDOW):
            db.ingest("calls", window)
        logged_watermark = db.group().watermark
        db.durability.abort()  # the simulated crash
        db.close()

        scale = SpeedScale()
        copies = iter(range(setup_reps))

        def build() -> SetupSteps:
            directory = os.path.join(work, f"db{next(copies)}")
            shutil.copytree(prep, directory)  # untimed: a fresh copy of the crashed log
            return recover(directory)

        def recover(directory: str) -> SetupSteps:
            db = ChronicleDatabase.open(directory, billing_config(directory, observe=True))
            yield
            return db

        def discard(db: ChronicleDatabase) -> None:
            db.durability.abort()
            db.close()

        phases.mark("setup_start")
        db, setup_raw, setup_scaled = measure_setups(scale, build, setup_reps, discard)
        phases.mark("setup_end")
        meter = Meter(scale)
        # The recovered state must equal the reference at the logged watermark.
        meter.check((1, int(db.group().watermark != logged_watermark)))
        meter.check(oracle.compare(db))
        phases.mark("timed_start", db)
        for slice_windows in chunks(windows, BILLING_SLICE):
            for window in slice_windows:
                started = clock()
                try:
                    db.ingest("calls", window)
                except Exception:
                    meter.write_failed()
                    continue
                meter.write(clock() - started, sum(len(b) for b in window), len(window))
                for batch in window:
                    oracle.add(batch)
                callers = list(dict.fromkeys(r["caller"] for b in window for r in b))
                for caller in callers[:BILLING_READS]:
                    started = clock()
                    row = db.view_row("usage", (caller,))
                    elapsed = clock() - started
                    expected = oracle.usage_row(caller)
                    meter.read(elapsed, row is not None and expected == [
                        row["total_cents"], row["total_seconds"], row["calls"]
                    ])
            meter.end_slice()
        phases.mark("timed_end", db)
        meter.check(oracle.compare(db))
        layer = phases.layer_metrics(meter, setup_reps, windows=len(windows))
        db.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run's work directory is still there
    return RunResult(meter, setup_raw, setup_scaled, peak_rss_mb(), layer)


# -- sharded_process ----------------------------------------------------------------

SHARDED_ACCOUNTS = 20_000
#: Each set-up starts two worker processes and preloads every account,
#: about five seconds, so fewer repetitions than the other workloads.
SHARDED_SETUP_REPS = 3
SHARDS = 2
SHARDED_BATCH = 4
SHARDED_WINDOW = 32
#: ``view_row`` reads through the merged view after each window.
SHARDED_READS = 8
#: Nominal records per second on the reference machine.
SHARDED_RECORDS_PER_S = 3_700
SHARDED_SLICE = 4
#: Opening deposits are ingested in windows of 256 batches of 16.
PRELOAD_BATCH = 16
PRELOAD_WINDOW = 256


def sharded_process(
    seed: int,
    seconds: float,
    setup_reps: int = SHARDED_SETUP_REPS,
    ledger: Any = None,
    accounts: int = SHARDED_ACCOUNTS,
) -> RunResult:
    """The banking catalog on the sharded engine with worker processes.

    Why: ``parallel`` routing, IPC dispatch, worker maintenance and
    parent-side absorb do the work, and reads take the merged path.  Two
    shards match the two CPUs of the reference host; the large key
    space makes view state dominate RSS.  Worker sole ownership of view
    state would speed writes here and could slow reads; this workload
    shows both.  The other two workloads never enter ``parallel``.
    """
    opening = opening_deposits(seed, accounts)
    preload = chunks(chunks(opening, PRELOAD_BATCH), PRELOAD_WINDOW)
    stream = list(BankingWorkload(seed=seed, accounts=accounts).records(
        ops_for(seconds, SHARDED_RECORDS_PER_S)
    ))
    windows = chunks(chunks(stream, SHARDED_BATCH), SHARDED_WINDOW)
    phases = Phases(ledger)
    scale = SpeedScale()
    workers_kb = 0

    def build() -> SetupSteps:
        db = ChronicleDatabase(
            config=DatabaseConfig(engine="sharded", executor="process", shards=SHARDS)
        )
        create_banking(db)
        yield
        for window in preload:  # the first window starts the worker processes
            db.ingest("transactions", window)
            yield
        return db

    def close(db: ChronicleDatabase) -> None:
        nonlocal workers_kb
        workers_kb = max(workers_kb, worker_peak_kb())
        db.close()

    phases.mark("setup_start")
    db, setup_raw, setup_scaled = measure_setups(scale, build, setup_reps, close)
    try:
        phases.mark("setup_end")
        oracle = BankingOracle()
        oracle.add(opening)
        meter = Meter(scale)
        phases.mark("timed_start", db)
        for slice_windows in chunks(windows, SHARDED_SLICE):
            for window in slice_windows:
                started = clock()
                try:
                    db.ingest("transactions", window)
                except Exception:
                    meter.write_failed()
                    continue
                meter.write(clock() - started, sum(len(b) for b in window), len(window))
                for batch in window:
                    oracle.add(batch)
                for batch in window[:SHARDED_READS]:
                    acct = batch[0]["acct"]
                    started = clock()
                    row = db.view_row("balance", (acct,))
                    elapsed = clock() - started
                    meter.read(elapsed, row is not None and row["total"] == oracle.total(acct))
            meter.end_slice()
        phases.mark("timed_end", db)
        meter.check(oracle.compare(db))
        layer = phases.layer_metrics(meter, setup_reps, windows=len(windows))
    finally:
        close(db)
    return RunResult(meter, setup_raw, setup_scaled, peak_rss_mb(workers_kb), layer)


WORKLOADS: Dict[str, Callable[..., RunResult]] = {
    "atm_append": atm_append,
    "billing_durable": billing_durable,
    "sharded_process": sharded_process,
}

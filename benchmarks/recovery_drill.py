"""Recovery drill — kill a live ingesting process, verify recovery.

CI's black-box check for the durability subsystem, the counterpart of
``incident_smoke.py``:

1. **kill -9 drill** — a child process opens a durable database
   (``wal`` mode, ``fsync="always"``), builds the banking catalog, and
   ingests batches, printing a marker line after each durable commit.
   The parent SIGKILLs it mid-stream, then recovers the directory via
   ``ChronicleDatabase.open`` and cross-checks the recovered views
   against the batch count read straight off the SQLite log (every
   printed marker must be on disk — ``fsync="always"``), plus
   cross-view consistency (per-key sums/counts vs the global view).
2. **corruption drill** — a logged batch payload is overwritten in
   place; reopening must raise :class:`RecoveryError` and leave a
   readable ``recovery-failure.json`` incident bundle in the durable
   directory.

Exits non-zero on any missing piece.  Set ``RECOVERY_DIR`` to choose
the artifact directory (default ``recovery-artifacts``).
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import time

from repro import ChronicleDatabase, DatabaseConfig, DurabilityConfig
from repro.errors import ChronicleError
from repro.storage.durability import RecoveryError
from repro.storage.wal import wal_path

BATCH = 4
KILL_AFTER = 8  # marker lines before the SIGKILL

_CHILD = textwrap.dedent(
    """
    import sys
    import warnings

    from repro import BankingWorkload, ChronicleDatabase, DatabaseConfig, DurabilityConfig
    from repro.aggregates import COUNT, SUM, spec
    from repro.algebra.ast import scan
    from repro.sca.summarize import GroupBySummary


    def main():
        directory = sys.argv[1]
        config = DatabaseConfig(
            durability=DurabilityConfig(mode="wal", dir=directory, fsync="always")
        )
        db = ChronicleDatabase.open(directory, config=config)
        workload = BankingWorkload(seed=7)
        db.create_chronicle(workload.NAME, workload.CHRONICLE_SCHEMA)
        chron = db.chronicle(workload.NAME)
        db.define_view(
            GroupBySummary(scan(chron), ["acct"], [spec(SUM, "cents"), spec(COUNT)]),
            name="by_key",
        )
        db.define_view(
            GroupBySummary(scan(chron), [], [spec(SUM, "cents"), spec(COUNT)]),
            name="grand",
        )
        for n in range(1000000):
            db.append(workload.NAME, list(workload.records(4)))
            print(f"BATCH {n}", flush=True)


    if __name__ == "__main__":
        main()
    """
)


def _session_members(session):
    """Live (non-zombie) pids whose session id is *session* (Linux /proc)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After "(comm)": state, ppid, pgrp, session, ...
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(entry))
    return members


def _await_session_exit(session, timeout=10.0):
    """Wait for every process of *session* to die; returns any survivors."""
    if not os.path.isdir("/proc"):
        return []
    deadline = time.monotonic() + timeout
    survivors = _session_members(session)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = _session_members(session)
    return survivors


def _logged_batches(directory):
    """Durably committed batches, read straight off the SQLite file."""
    conn = sqlite3.connect(wal_path(directory))
    try:
        return conn.execute(
            "SELECT COUNT(*) FROM log WHERE kind = 'batch'"
        ).fetchone()[0]
    finally:
        conn.close()


def drill_kill9(artifact_dir):
    directory = os.path.join(artifact_dir, "kill9-db")
    script = os.path.join(artifact_dir, "child.py")
    with open(script, "w") as handle:
        handle.write(_CHILD)
    # Its own session, so the kill reaches every process the child
    # started; none may outlive the drill.
    proc = subprocess.Popen(
        [sys.executable, script, directory],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    seen = 0
    started = time.time()
    try:
        for line in proc.stdout:
            if line.startswith("BATCH"):
                seen += 1
                if seen >= KILL_AFTER:
                    break
        if seen < KILL_AFTER:
            raise SystemExit(
                f"kill9 drill: child died early after {seen} batches: "
                f"{proc.stderr.read()}"
            )
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    survivors = _await_session_exit(proc.pid)
    if survivors:
        raise SystemExit(
            f"kill9 drill: processes {survivors} of the killed session survived"
        )
    print(
        f"kill9 drill: SIGKILL after {seen} durable batches "
        f"({time.time() - started:.1f}s)"
    )

    logged = _logged_batches(directory)
    if logged < seen:
        raise SystemExit(
            f"kill9 drill: log holds {logged} batches but the child "
            f"printed {seen} durable commits"
        )

    config = DatabaseConfig(
        durability=DurabilityConfig(mode="wal", dir=directory, fsync="off")
    )
    db = ChronicleDatabase.open(directory, config=config)
    try:
        report = db.durability.last_recovery
        if report.replayed_batches != logged:
            raise SystemExit(
                f"kill9 drill: recovery replayed {report.replayed_batches} "
                f"of {logged} logged batches"
            )
        (grand,) = db.view("grand").rows()
        grand_sum, grand_count = grand.values
        if grand_count != logged * BATCH:
            raise SystemExit(
                f"kill9 drill: recovered global count {grand_count} != "
                f"{logged} batches x {BATCH} records"
            )
        by_key = list(db.view("by_key").rows())
        if sum(row.values[-1] for row in by_key) != grand_count:
            raise SystemExit("kill9 drill: per-key counts disagree with grand")
        if sum(row.values[-2] for row in by_key) != grand_sum:
            raise SystemExit("kill9 drill: per-key sums disagree with grand")
        print(
            f"kill9 drill: recovered {logged} batches "
            f"({grand_count} records) in {report.seconds * 1000:.1f}ms, "
            f"views consistent"
        )
    finally:
        db.close()


def drill_corruption(artifact_dir):
    directory = os.path.join(artifact_dir, "corrupt-db")
    config = DatabaseConfig(
        durability=DurabilityConfig(mode="wal", dir=directory, fsync="off")
    )
    db = ChronicleDatabase.open(directory, config=config)
    db.create_chronicle("t", [("k", "INT")])
    for i in range(4):
        db.append("t", {"k": i})
    db.durability.abort()

    conn = sqlite3.connect(wal_path(directory))
    conn.execute(
        "UPDATE log SET payload = X'DEADBEEF' WHERE kind = 'batch' "
        "AND id = (SELECT MAX(id) FROM log WHERE kind = 'batch')"
    )
    conn.commit()
    conn.close()

    try:
        ChronicleDatabase.open(directory, config=config)
    except RecoveryError as exc:
        print(f"corruption drill: open failed as expected ({exc})")
    except ChronicleError as exc:
        raise SystemExit(
            f"corruption drill: expected RecoveryError, got {type(exc).__name__}"
        )
    else:
        raise SystemExit("corruption drill: expected RecoveryError")

    bundle_path = os.path.join(directory, "recovery-failure.json")
    if not os.path.exists(bundle_path):
        raise SystemExit(f"corruption drill: no incident bundle at {bundle_path}")
    with open(bundle_path) as handle:
        bundle = json.load(handle)
    for key in ("reason", "at", "context"):
        if key not in bundle:
            raise SystemExit(f"{bundle_path}: missing bundle key {key!r}")
    if bundle["reason"] != "recovery-failure":
        raise SystemExit(
            f"{bundle_path}: reason {bundle['reason']!r} != 'recovery-failure'"
        )
    print(
        f"corruption drill: bundle {os.path.basename(bundle_path)} "
        f"reason={bundle['reason']!r} readable"
    )


def main():
    artifact_dir = os.environ.get("RECOVERY_DIR", "recovery-artifacts")
    os.makedirs(artifact_dir, exist_ok=True)
    drill_kill9(artifact_dir)
    drill_corruption(artifact_dir)
    print("recovery drill: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

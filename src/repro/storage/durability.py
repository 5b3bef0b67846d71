"""The durability subsystem: append-ahead logging + snapshot recovery.

The chronicle model's asset is view state — the stream itself is never
stored, so a crash that loses the views would force exactly the
unbounded recompute the model forbids.  :class:`DurabilityManager` makes
restart cheap instead:

* every **admitted batch** is written to the append-ahead log *before*
  it is stored or maintained (the ``wal_sink`` hook fires between
  admission and commit in :meth:`~repro.core.group.ChronicleGroup
  .append_window`); one write call's batches commit in one SQLite
  transaction, so recovery never replays a window that was never
  admitted live;
* catalog operations (groups, chronicles, relations, view definitions)
  are interleaved in the same ordered log, so a view defined mid-stream
  replays at the right point relative to the data;
* in ``wal+snapshot`` mode, a watermark-stamped checkpoint document
  (the same codec as :mod:`repro.storage.checkpoint`) is written every
  ``snapshot_interval_batches`` batches and the covered log tail is
  truncated — recovery work and disk are both bounded by the interval.

Recovery (:func:`open_database`, reached through
``ChronicleDatabase.open``) rebuilds the catalog from the logged DDL,
loads the latest snapshot, then replays the log tail through the normal
``ingest_stamped`` → ``on_event`` maintenance path — on the sharded
engine, each event is routed and applied only to shards whose watermark
is still behind it.

Known limits (documented in docs/api.md): chronicle retention windows
rebuild only from the replayed tail; rows inserted directly into a
relation (``db.relation(...).insert``) and programmatic periodic views
are durable only through snapshots; a programmatic view whose summary
has no portable plan spec cannot be logged — defining one raises a
:class:`NonDurableWarning` and recovery will not rebuild it.

Periodic-view *clocks* are more durable than their definitions: every
registered :class:`~repro.views.periodic.PeriodicViewSet`'s latest
observed chronon is persisted to the WAL ``meta`` table (cheap upsert,
written only when it moved) so that after ``ChronicleDatabase.open()``
a re-defined programmatic periodic view resumes its cadence — interval
expiry picks up where the crash left it instead of restarting from a
blank clock (:meth:`DurabilityManager.seed_periodic_clock`).
"""

from __future__ import annotations

import os
import threading
import time
import warnings
import weakref
from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ChronicleError
from ..obs import runtime as obs_runtime
from ..relational.tuples import Row
from .checkpoint import checkpoint_document
from .wal import ChronicleWal, WalError

__all__ = [
    "DurabilityManager",
    "NonDurableWarning",
    "RecoveryError",
    "RecoveryReport",
    "open_database",
]


class RecoveryError(ChronicleError):
    """Durable state exists but could not be recovered."""


class NonDurableWarning(UserWarning):
    """An operation produced state the durability subsystem cannot log."""


#: ``meta``-table key prefix for persisted periodic-view clocks
#: (``periodic_clock:<view name>`` → latest observed chronon).
_PERIODIC_CLOCK_PREFIX = "periodic_clock:"

#: Thread-local marker set while ``open_database`` constructs a database
#: over existing durable state — the only context in which the manager
#: accepts a non-fresh log.
_OPEN_STATE = threading.local()


def _opening() -> bool:
    return getattr(_OPEN_STATE, "active", False)


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery did: snapshot used + log tail replayed."""

    snapshot_watermark: Optional[int]
    replayed_batches: int
    replayed_ddl: int
    replayed_relation_updates: int
    seconds: float


class _ChronicleMap:
    """Lazy chronicle resolution for rebuilding view plan specs."""

    def __init__(self, db: Any) -> None:
        self._db = db

    def __getitem__(self, name: str) -> Any:
        return self._db.chronicle(name)


def _apply_ddl(db: Any, op: Tuple[Any, ...]) -> None:
    """Re-apply one logged catalog operation during recovery."""
    from ..algebra.plan import build_schema, build_summary

    kind = op[0]
    if kind == "group":
        db.create_group(op[1], start=op[2])
    elif kind == "chronicle":
        _, name, schema, retention, group = op
        db.create_chronicle(
            name, build_schema(schema), retention=retention, group=group
        )
    elif kind == "relation":
        _, name, schema, group, keep_history = op
        db.create_relation(
            name, build_schema(schema), group=group, keep_history=keep_history
        )
    elif kind == "view_text":
        _, name, definition, materialize = op
        db.define_view(definition, name=name, materialize=materialize)
    elif kind == "view_spec":
        _, name, spec, materialize = op
        summary = build_summary(spec, _ChronicleMap(db))
        db.define_view(summary, name=name, materialize=materialize)
    elif kind == "drop_view":
        db.drop_view(op[1])
    else:
        raise RecoveryError(f"unknown catalog operation {kind!r} in log")


class DurabilityManager:
    """Owns one database's append-ahead log, snapshots, and recovery.

    Created by the facade when ``config.durability.mode != "off"``; the
    facade and the chronicle groups call in through narrow hooks
    (``admission_sink``, ``record_ddl``, ``batch_committed``) that are
    never reached when durability is off — the zero-cost idiom of the
    observability layer.
    """

    def __init__(self, db: Any, config: Any) -> None:
        self._db_ref = weakref.ref(db)
        self.config = config
        self.wal = ChronicleWal(config.dir, fsync=config.fsync)
        self.last_recovery: Optional[RecoveryReport] = None
        self._batches_since_snapshot = 0
        #: Clocks loaded from the ``meta`` table during recovery, keyed
        #: by view name — consumed by :meth:`seed_periodic_clock` when a
        #: programmatic periodic view is re-defined after ``open()``.
        self._recovered_clocks: Dict[str, float] = {}
        #: Last clock value written per view — skips the ``meta`` upsert
        #: when nothing moved (the common case between expiries).
        self._logged_clocks: Dict[str, float] = {}
        self._closed = False
        #: False while recovery replays the log — replayed operations
        #: must not be re-logged.
        self._live = True
        if not self.wal.is_fresh() and not _opening():
            self.wal.close()
            raise WalError(
                f"directory {config.dir!r} holds existing durable state; "
                f"open it with ChronicleDatabase.open({config.dir!r}, ...) "
                f"instead of constructing over it"
            )

    def _database(self) -> Any:
        db = self._db_ref()
        if db is None:
            raise WalError("the durable database no longer exists")
        return db

    def _watermark(self) -> int:
        db = self._db_ref()
        if db is None:
            return -1
        return max((g.watermark for g in db.groups.values()), default=-1)

    # -- hot path -------------------------------------------------------------

    def attach_group(self, group: Any) -> None:
        """Point a group's ``wal_sink`` at this manager."""
        group.wal_sink = self.admission_sink

    def admission_sink(self, group: Any, window: Sequence[Tuple[Mapping[str, Any], int]]) -> None:
        """Log one write call's batches — before anything is stored.

        One ``batch`` row per ``(event, sequence number)`` of *window*,
        all in one SQLite transaction: if any row fails, none lands and
        the exception aborts the call before it changed anything.
        """
        if self._closed or not self._live:
            return
        obs = obs_runtime.ACTIVE
        started = time.perf_counter() if obs is not None else 0.0
        size = 0
        with self.wal.transaction():
            for event, watermark in window:
                payload = {
                    name: [row.values for row in rows] for name, rows in event.items()
                }
                size += self.wal.log_batch(group.name, payload, watermark)
        if obs is not None:
            obs.metrics.inc("wal_batches_total", len(window), group=group.name)
            obs.metrics.inc("wal_bytes_total", size, group=group.name)
            obs.metrics.observe(
                "wal_append_seconds", time.perf_counter() - started, group=group.name
            )
        self._batches_since_snapshot += len(window)

    def batch_committed(self) -> None:
        """Facade hook after maintenance finished one write call.

        Snapshots run here — never inside the admission path — so the
        checkpoint document always captures fully-maintained view state.
        """
        if self._closed or not self._live:
            return
        self._record_periodic_clocks()
        if (
            self.config.mode == "wal+snapshot"
            and self._batches_since_snapshot >= self.config.snapshot_interval_batches
        ):
            self.snapshot()

    # -- periodic-view clocks ---------------------------------------------------

    def _record_periodic_clocks(self) -> None:
        """Persist moved periodic-view clocks to the ``meta`` table."""
        db = self._db_ref()
        if db is None:
            return
        for name, view_set in db.registry._periodic.items():
            clock = view_set._clock
            if clock is None:
                continue
            clock = float(clock)
            if self._logged_clocks.get(name) == clock:
                continue
            self.wal.set_meta(_PERIODIC_CLOCK_PREFIX + name, repr(clock))
            self._logged_clocks[name] = clock

    def seed_periodic_clock(self, view_set: Any) -> None:
        """Resume a (re-)defined periodic view's cadence from the log.

        Called by the facade whenever a periodic view is registered on a
        durable database: if the ``meta`` table recorded a clock for
        this view name before the crash (or a recovered snapshot/tail
        already advanced it), the later of the two wins, so interval
        expiry continues from where the previous process stopped.
        """
        recovered = self._recovered_clocks.get(view_set.name)
        if recovered is None:
            return
        if view_set._clock is None or recovered > view_set._clock:
            view_set._clock = recovered
            view_set._expire_stale()

    # -- catalog + relation logging -------------------------------------------

    def record_ddl(self, op: Tuple[Any, ...]) -> None:
        if self._closed or not self._live:
            return
        self.wal.log_ddl(op, self._watermark())

    def record_view_definition(
        self, definition: Any, name: Optional[str], materialize: bool
    ) -> None:
        if self._closed or not self._live:
            return
        if isinstance(definition, str):
            self.record_ddl(("view_text", name, definition, materialize))
        else:
            from ..algebra.plan import is_portable, summary_spec

            if not is_portable(definition):
                warnings.warn(
                    f"programmatic view {name!r} has no portable plan spec; "
                    f"recovery will not rebuild it — re-define it after open()",
                    NonDurableWarning,
                    stacklevel=4,
                )
                return
            self.record_ddl(("view_spec", name, summary_spec(definition), materialize))
        # A view defined mid-stream may have materialized from chronicle
        # history the truncated log can no longer rebuild; snapshotting
        # right after the definition captures that state while it is
        # fresh (DDL is rare, so the cost is bounded).  In plain "wal"
        # mode the full log replays from the start, which rebuilds the
        # history exactly — no snapshot needed.
        if self.config.mode == "wal+snapshot":
            self.snapshot()

    def record_relation_update(
        self, name: str, key: Any, changes: Dict[str, Any]
    ) -> None:
        if self._closed or not self._live:
            return
        self.wal.log_relation_update(
            name, tuple(key), dict(changes), self._watermark()
        )

    # -- snapshots --------------------------------------------------------------

    def snapshot(self) -> int:
        """Write a watermark-stamped snapshot and truncate the log tail."""
        db = self._database()
        obs = obs_runtime.ACTIVE
        span = None
        if obs is not None and obs.trace:
            span = obs.tracer.start("snapshot", path=self.wal.path)
        started = time.perf_counter()
        try:
            document = checkpoint_document(db)
            # Stamped per-shard watermarks: informational for bundle
            # inspection; the authoritative group watermark travels in
            # the document's "groups" section.
            document["watermarks"] = db.watermarks()
            watermark = self._watermark()
            size, truncated = self.wal.write_snapshot(document, watermark)
            self._batches_since_snapshot = 0
        finally:
            if span is not None:
                obs.tracer.finish(span)
        if obs is not None:
            obs.metrics.inc("snapshots_total")
            obs.metrics.set("snapshot_bytes", size)
            obs.metrics.inc("wal_truncated_rows_total", truncated)
            obs.metrics.observe("snapshot_seconds", time.perf_counter() - started)
        return watermark

    # -- recovery ----------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Load the latest snapshot and replay the log tail.

        Catalog operations at or below the snapshot's log position are
        applied first (they rebuild the shape the snapshot's state needs),
        then the snapshot document restores watermarks/relations/views,
        then the tail replays in admission order through the engines'
        ``_replay_stamped`` (watermark-aware on both engines).
        """
        db = self._database()
        obs = obs_runtime.ACTIVE
        span = None
        if obs is not None and obs.trace:
            span = obs.tracer.start("recovery", path=self.wal.path)
        started = time.perf_counter()
        self._live = False
        try:
            for key, value in self.wal.meta_items(_PERIODIC_CLOCK_PREFIX):
                name = key[len(_PERIODIC_CLOCK_PREFIX):]
                try:
                    self._recovered_clocks[name] = float(value)
                except ValueError:
                    continue
            snapshot = self.wal.latest_snapshot()
            snapshot_id = snapshot.log_id if snapshot is not None else 0
            replayed_ddl = 0
            for entry in self.wal.ddl_entries(up_to=snapshot_id):
                _apply_ddl(db, entry.payload)
                replayed_ddl += 1
            if snapshot is not None:
                # A snapshot may carry state for a programmatic periodic
                # view no logged DDL rebuilds; restoring would abort on
                # the unknown name.  Drop that state (the documented
                # limit) instead of failing the whole recovery — the
                # view's clock still resumes from the meta table once it
                # is re-defined.
                periodic_state = snapshot.document.get("periodic", {})
                for name in [
                    n for n in periodic_state if n not in db.registry._periodic
                ]:
                    del periodic_state[name]
                    warnings.warn(
                        f"snapshot carries state for periodic view {name!r} "
                        f"which no logged DDL rebuilds; dropping it — "
                        f"re-define the view after open() (its clock "
                        f"resumes from the log's meta table)",
                        NonDurableWarning,
                        stacklevel=2,
                    )
                db.restore(snapshot.document)
            replayed = 0
            relation_updates = 0
            for entry in self.wal.entries(after=snapshot_id):
                if entry.kind == "ddl":
                    _apply_ddl(db, entry.payload)
                    replayed_ddl += 1
                elif entry.kind == "relupdate":
                    name, key, changes = entry.payload
                    db.update_relation(name, key, **changes)
                    relation_updates += 1
                elif entry.kind == "batch":
                    group_name, payload = entry.payload
                    group = db.groups.get(group_name)
                    if group is None:
                        raise RecoveryError(
                            f"log entry {entry.entry_id} names unknown group "
                            f"{group_name!r}"
                        )
                    event = {
                        name: tuple(
                            Row.unchecked(db.chronicle(name).schema, tuple(values))
                            for values in rows
                        )
                        for name, rows in payload.items()
                    }
                    db._replay_stamped(group, event, entry.watermark)
                    replayed += 1
                else:
                    raise RecoveryError(
                        f"unknown log entry kind {entry.kind!r} "
                        f"(entry {entry.entry_id})"
                    )
            # Text-defined periodic views were rebuilt by the DDL replay
            # above; hand each its persisted clock in case the truncated
            # tail no longer reaches the last pre-crash chronon.
            for view_set in db.registry._periodic.values():
                self.seed_periodic_clock(view_set)
            self._logged_clocks = dict(self._recovered_clocks)
            elapsed = time.perf_counter() - started
            self._batches_since_snapshot = replayed
            self.last_recovery = RecoveryReport(
                snapshot_watermark=(
                    snapshot.watermark if snapshot is not None else None
                ),
                replayed_batches=replayed,
                replayed_ddl=replayed_ddl,
                replayed_relation_updates=relation_updates,
                seconds=elapsed,
            )
            if span is not None:
                span.attrs["replayed_batches"] = replayed
                span.attrs["replayed_ddl"] = replayed_ddl
            if obs is not None:
                obs.metrics.inc("recoveries_total")
                obs.metrics.set("recovery_replayed_batches", replayed)
                obs.metrics.observe("recovery_seconds", elapsed)
            return self.last_recovery
        except RecoveryError as exc:
            self._recovery_failed(exc)
            raise
        except Exception as exc:
            self._recovery_failed(exc)
            raise RecoveryError(
                f"recovery from {self.wal.path} failed: {exc}"
            ) from exc
        finally:
            self._live = True
            if span is not None:
                obs.tracer.finish(span)

    def _recovery_failed(self, exc: BaseException) -> None:
        """Incident bundle + metrics on a failed recovery; close the log."""
        obs = obs_runtime.ACTIVE
        if obs is not None:
            obs.metrics.inc("recovery_failures_total")
        db = self._db_ref()
        handle = db._observability if db is not None else None
        if handle is None:
            from ..obs import Observability

            handle = Observability(trace=False, audit="off")
            if db is not None:
                handle.bind_database(db)
        bundle = os.path.join(self.config.dir, "recovery-failure.json")
        try:
            handle.incident(
                "recovery-failure",
                path=bundle,
                error=repr(exc),
                wal=self.wal.path,
            )
        except Exception:
            pass
        self.wal.close()
        self._closed = True

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        """Commit and fsync the log (an explicit durability barrier)."""
        if self._closed:
            return
        if self._live:
            self._record_periodic_clocks()
        obs = obs_runtime.ACTIVE
        span = None
        if obs is not None and obs.trace:
            span = obs.tracer.start("wal_flush", path=self.wal.path)
        started = time.perf_counter()
        try:
            self.wal.flush()
        finally:
            if span is not None:
                obs.tracer.finish(span)
        if obs is not None:
            obs.metrics.observe("wal_flush_seconds", time.perf_counter() - started)

    def close(self) -> None:
        """Finalize the log: final snapshot (if due), fsync, detach, close."""
        if self._closed:
            return
        self._record_periodic_clocks()
        if self.config.mode == "wal+snapshot" and self._batches_since_snapshot:
            self.snapshot()
        self._detach()
        self.wal.close()
        self._closed = True

    def abort(self) -> None:
        """Fault injection: simulate a crash (no snapshot, no finalize)."""
        if self._closed:
            return
        self._detach()
        self.wal.abort()
        self._closed = True

    def _detach(self) -> None:
        db = self._db_ref()
        if db is not None:
            for group in db.groups.values():
                group.wal_sink = None

    @property
    def closed(self) -> bool:
        return self._closed

    def status(self) -> Dict[str, Any]:
        """An inspectable summary (CLI ``SHOW DURABILITY``)."""
        info: Dict[str, Any] = {
            "mode": self.config.mode,
            "dir": self.config.dir,
            "fsync": self.config.fsync,
            "path": self.wal.path,
            "snapshot_interval_batches": self.config.snapshot_interval_batches,
            "closed": self._closed,
            "batches_since_snapshot": self._batches_since_snapshot,
            "last_recovery": (
                asdict(self.last_recovery) if self.last_recovery else None
            ),
        }
        if not self._closed:
            info["log_rows"] = self.wal.log_rows()
        return info


def open_database(config: Any) -> Any:
    """Recover-or-create a durable database (``ChronicleDatabase.open``).

    Constructs the database over the configured durability directory;
    when the directory already holds durable state, recovery runs before
    the database is returned.
    """
    from ..core.database import ChronicleDatabase

    if config.durability.mode == "off":
        raise WalError("open_database requires a durability mode other than 'off'")
    _OPEN_STATE.active = True
    try:
        db = ChronicleDatabase(config=config)
    finally:
        _OPEN_STATE.active = False
    manager = db._durability
    if manager is not None and not manager.wal.is_fresh():
        manager.recover()
    return db

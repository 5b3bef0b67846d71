"""The sharded maintenance engine: parallel view maintenance by key class.

``ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=N))``
builds a :class:`ShardedDatabase`.  Views whose summary key has copy
lineage to the base records (:func:`~repro.algebra.plan.infer_partition`)
are split into *N* independent partitions, one per worker shard; views
whose keys straddle partitions fall back to the ordinary serial path (a
:class:`UnpartitionableViewWarning` says so).  Appends are admitted and
sequence-stamped exactly once on the serial path (the base engine's
one failure-atomic write path), then fanned out:

* **shard unit** — a private :class:`~repro.core.group.ChronicleGroup`
  of *mirror* chronicles (``retention=0`` — the no-access theorem means
  maintenance never reads them, so shards store no chronicle history)
  plus a private :class:`~repro.views.registry.ViewRegistry` holding
  this shard's partition of every view in the key class;
* **key class** — views with *equal* :class:`PartitionSpec` route
  identically and share one row of units (:class:`ShardGroup`); views
  with different specs get their own units, since a shard's registry
  maintains every view it holds against every event it receives;
* **route and dispatch** — the engine's only write-path step
  (:meth:`ShardedDatabase._fan_out`), called by the base engine once per
  write call: each shard receives *one* maintenance window for the
  whole call (:meth:`~repro.core.group.ChronicleGroup.ingest_stamped`),
  run inline or on worker processes (:class:`ParallelMaintainer`).

Reads merge: :class:`MergedView` routes key lookups to the owning shard
and unions scans, taking each unit's lock so a lookup never observes a
half-applied window (snapshot consistency via per-shard watermarks).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from threading import RLock
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union as TUnion

from ..algebra.ast import (
    ChronicleScan,
    Difference,
    GroupBySeq,
    Node,
    Project,
    RelKeyJoin,
    RelProduct,
    Select,
    SeqJoin,
    Union,
)
from ..algebra.plan import (
    UNPARTITIONABLE,
    PartitionSpec,
    infer_partition,
    is_portable,
    schema_spec,
    summary_spec,
)
from ..core.chronicle import Chronicle
from ..core.database import ChronicleDatabase
from ..core.delta import Delta
from ..core.group import ChronicleGroup
from ..core.sequence import SequenceNumber
from ..errors import EngineError, ViewRegistrationError
from ..obs import runtime as obs_runtime
from ..obs.health import ShardHealth, ShardLag
from ..relational.algebra import Table
from ..relational.tuples import Row
from ..sca.summarize import GroupBySummary, ProjectSummary, Summary
from ..sca.view import PersistentView
from ..views.registry import ViewRegistry
from .router import ShardRouter
from .worker import (
    ShardUnitSpec,
    WindowTelemetry,
    worker_add_view,
    worker_apply,
    worker_apply_relay,
    worker_install,
    worker_remove_view,
)


class UnpartitionableViewWarning(UserWarning):
    """A view's keys straddle partitions; it runs on the serial shard."""


class NonPortableViewWarning(UnpartitionableViewWarning):
    """A view's definition cannot cross a process boundary; serial shard."""


# ---------------------------------------------------------------------------
# Expression rebinding (real chronicles -> a shard's mirrors)
# ---------------------------------------------------------------------------


def rebind(node: Node, chronicles: Mapping[str, Chronicle]) -> Node:
    """Rebuild an algebra tree over mirror chronicles.

    Relations are shared (replicated read-only — proactive updates reach
    every shard through the one shared object); chronicle scans are
    redirected to the shard's mirrors, which carry the *same*
    :class:`~repro.relational.schema.Schema` objects, so rows stamped on
    the serial path flow into shard maintenance without copying.
    """
    if isinstance(node, ChronicleScan):
        return ChronicleScan(chronicles[node.chronicle.name])
    if isinstance(node, Select):
        return Select(rebind(node.child, chronicles), node.predicate)
    if isinstance(node, Project):
        return Project(rebind(node.child, chronicles), node.names)
    if isinstance(node, SeqJoin):
        return SeqJoin(rebind(node.left, chronicles), rebind(node.right, chronicles))
    if isinstance(node, Union):
        return Union(rebind(node.left, chronicles), rebind(node.right, chronicles))
    if isinstance(node, Difference):
        return Difference(rebind(node.left, chronicles), rebind(node.right, chronicles))
    if isinstance(node, GroupBySeq):
        return GroupBySeq(rebind(node.child, chronicles), node.grouping, node.aggregates)
    if isinstance(node, RelProduct):
        return RelProduct(rebind(node.child, chronicles), node.relation)
    if isinstance(node, RelKeyJoin):
        return RelKeyJoin(rebind(node.child, chronicles), node.relation, node.pairs)
    raise EngineError(
        f"cannot rebind {type(node).__name__} onto shard mirrors; "
        f"views containing it are unpartitionable"
    )


def rebind_summary(summary: Summary, chronicles: Mapping[str, Chronicle]) -> Summary:
    """Rebuild a summary specification over mirror chronicles."""
    expression = rebind(summary.expression, chronicles)
    if isinstance(summary, GroupBySummary):
        return GroupBySummary(
            expression, summary.grouping, summary.aggregates, having=summary.having
        )
    if isinstance(summary, ProjectSummary):
        return ProjectSummary(expression, summary.names)
    raise EngineError(f"cannot rebind summary type {type(summary).__name__}")


# ---------------------------------------------------------------------------
# Shard units and key classes
# ---------------------------------------------------------------------------


class ShardUnit:
    """One worker shard of one key class: mirrors + a private registry.

    All access to the unit's state — applying a maintenance window,
    reading a view partition — happens under :attr:`lock`, so reads are
    snapshot-consistent: they see whole windows or nothing.
    """

    __slots__ = (
        "index",
        "label",
        "group",
        "registry",
        "lock",
        "watermark",
        "dispatched",
        "dispatched_at",
        "last_apply_at",
        "last_lag_seconds",
        "records_applied",
        "windows_applied",
        "remote_stats",
        "remote_spans",
        "last_window_summary",
        "failed_watermark",
    )

    def __init__(
        self,
        index: int,
        label: str,
        source_group: ChronicleGroup,
        compile_plans: bool,
    ) -> None:
        self.index = index
        self.label = label
        self.group = ChronicleGroup(f"{source_group.name}::{label}")
        # No prefilter: units see coalesced multi-batch events, which are
        # large enough that nearly every view is affected — the prefilter
        # would re-scan the whole event per view only to say "yes".  The
        # prefilter stays on the serial registry, where per-batch events
        # are small and most views are untouched.
        self.registry = ViewRegistry(prefilter=False, compile=compile_plans)
        self.group.subscribe(self.registry.on_event)
        self.lock = RLock()
        #: Highest sequence number this shard has absorbed (-1 initially).
        self.watermark: SequenceNumber = -1
        #: Highest sequence number dispatched *to* this shard (set on the
        #: admission thread before the worker runs; ``dispatched >
        #: watermark`` means a window is in flight or queued).
        self.dispatched: SequenceNumber = -1
        #: Wall-clock instant the most recent window was dispatched.
        self.dispatched_at: float = 0.0
        #: Wall-clock instant of the last applied window (0.0 = never).
        self.last_apply_at: float = 0.0
        #: Dispatch→visible latency of the last applied window.
        self.last_lag_seconds: float = 0.0
        #: Lifetime records / windows absorbed by this shard.
        self.records_applied: int = 0
        self.windows_applied: int = 0
        #: Cumulative registry stats of this shard's worker-process
        #: replica (empty unless the process executor maintains it —
        #: the parent-side registry then never sees events itself).
        self.remote_stats: Dict[str, Any] = {}
        #: The last relayed worker span records (compact dicts) — what a
        #: worker-crash incident bundle reports as the worker's final
        #: observed activity.
        self.remote_spans: List[Dict[str, Any]] = []
        #: Summary of the last window this unit absorbed (shard,
        #: watermark, per-chronicle row counts).
        self.last_window_summary: Optional[Dict[str, Any]] = None
        #: Watermark of the earliest window this shard failed to apply
        #: (a worker raised or died, or an inline apply raised); its rows
        #: are missing here even after later windows succeed.  ``None``
        #: = no gap.  Only :meth:`ShardedDatabase.restore` clears it.
        self.failed_watermark: Optional[SequenceNumber] = None

    def mirror(self, chronicle: Chronicle) -> Chronicle:
        """The unit's mirror of a real chronicle (created on demand).

        Mirrors share the real chronicle's schema and store nothing
        (``retention=0``): maintenance never reads the store, so the
        shard only pays for view state, not chronicle history.
        """
        existing = self.group.chronicles.get(chronicle.name)
        if existing is None:
            existing = Chronicle(chronicle.name, chronicle.schema, retention=0)
            self.group.adopt(existing)
        return existing

    def apply(
        self,
        event: Mapping[str, Sequence[Row]],
        watermark: SequenceNumber,
        dispatched_at: float,
    ) -> None:
        """Absorb one coalesced maintenance window in place (inline).

        Runs on the writing thread, so the ``shard_apply`` span nests
        under the write's ``ingest`` span.
        """
        obs = obs_runtime.ACTIVE
        with self.lock:
            if obs is not None and obs.trace:
                span = obs.tracer.start("shard_apply", shard=self.label)
                try:
                    self.group.ingest_stamped(event, watermark)
                finally:
                    obs.tracer.finish(span)
            else:
                self.group.ingest_stamped(event, watermark)
            records = sum(len(rows) for rows in event.values())
            self.mark_applied(watermark, dispatched_at, records)

    def mark_applied(
        self,
        watermark: SequenceNumber,
        dispatched_at: float,
        records: int,
    ) -> None:
        """Watermark/lag bookkeeping shared by both executors.

        Caller holds :attr:`lock` and has just made a whole window
        visible (either by applying it in place or by absorbing a
        worker's results).
        """
        self.watermark = watermark
        now = time.time()
        self.last_apply_at = now
        self.windows_applied += 1
        self.records_applied += records
        self.last_lag_seconds = max(0.0, now - dispatched_at)
        obs = obs_runtime.ACTIVE
        if obs is not None:
            # The freshness gauges: how long dispatch→visible took for
            # the window just absorbed, and how many sequence numbers of
            # dispatched work remain unabsorbed.
            obs.metrics.set(
                "shard_lag_seconds", self.last_lag_seconds, shard=self.label
            )
            obs.metrics.set(
                "shard_lag_batches",
                max(0, self.dispatched - watermark),
                shard=self.label,
            )

    def absorb(
        self,
        per_view_items: Mapping[str, Sequence[Tuple[Any, Any]]],
        watermark: SequenceNumber,
        dispatched_at: float,
        records: int,
        worker_seconds: float,
        stats: Dict[str, Any],
        *,
        telemetry: Optional[WindowTelemetry] = None,
        ipc: Optional[Dict[str, Any]] = None,
        worker: Optional[str] = None,
    ) -> None:
        """Make one worker-process window visible (runs on the parent).

        The worker returns only the ``(key, state)`` pairs the window
        touched per view; this merges them into the parent-side
        partition views under the unit lock — the same snapshot
        consistency readers get from the inline executor — and performs
        the same watermark/lag/trace bookkeeping, with the worker's
        wall-clock attached to the ``shard_apply`` span.

        When the telemetry relay is active, *telemetry* carries the
        worker's captured spans and metric deltas, *ipc* the byte/time
        readings of both pickling directions, and *worker* the pool-slot
        label.  The spans are grafted under the ``shard_apply`` span
        (before it finishes — they enter the ring inside the stitched
        ingest trace), the deltas merged into the global registry with
        ``shard``/``worker`` labels, and the IPC readings turned into
        the ``ipc_*`` accounting series.
        """
        obs = obs_runtime.ACTIVE
        with self.lock:
            span = None
            if obs is not None and obs.trace:
                span = obs.tracer.start(
                    "shard_apply", shard=self.label, worker_seconds=worker_seconds
                )
            try:
                for name, items in per_view_items.items():
                    self.registry.view(name).absorb_states(items)
                if span is not None and telemetry is not None and telemetry.spans:
                    graft_attrs = {"worker": worker} if worker is not None else {}
                    obs.tracer.graft(span, telemetry.spans, **graft_attrs)
            finally:
                if span is not None:
                    obs.tracer.finish(span)
            self.remote_stats = stats
            if telemetry is not None:
                self.remote_spans = telemetry.spans
            self.mark_applied(watermark, dispatched_at, records)
            if obs is not None:
                self._relay_metrics(obs, telemetry, ipc, worker)

    def _relay_metrics(
        self,
        obs: Any,
        telemetry: Optional[WindowTelemetry],
        ipc: Optional[Dict[str, Any]],
        worker: Optional[str],
    ) -> None:
        """Publish one relayed window's IPC accounting and metric deltas."""
        metrics = obs.metrics
        shard = self.label
        if ipc is not None:
            metrics.inc("ipc_bytes_down_total", ipc["bytes_down"], shard=shard)
            metrics.inc("ipc_bytes_up_total", ipc["bytes_up"], shard=shard)
            metrics.observe(
                "ipc_encode_seconds",
                ipc["encode_down_seconds"],
                shard=shard,
                direction="down",
            )
            metrics.observe(
                "ipc_decode_seconds",
                ipc["decode_down_seconds"],
                shard=shard,
                direction="down",
            )
            metrics.observe(
                "ipc_encode_seconds",
                ipc["encode_up_seconds"],
                shard=shard,
                direction="up",
            )
            metrics.observe(
                "ipc_decode_seconds",
                ipc["decode_up_seconds"],
                shard=shard,
                direction="up",
            )
        if telemetry is not None:
            metrics.merge_deltas(telemetry.metrics, shard=shard, worker=worker)
            if telemetry.spans_dropped:
                metrics.inc(
                    "relay_spans_dropped_total", telemetry.spans_dropped, shard=shard
                )
            if telemetry.metrics_dropped:
                metrics.inc(
                    "relay_series_dropped_total",
                    telemetry.metrics_dropped,
                    shard=shard,
                )
            if worker is not None:
                if telemetry.maxrss_bytes:
                    metrics.set(
                        "worker_rss_bytes", telemetry.maxrss_bytes, worker=worker
                    )
                metrics.set(
                    "worker_cpu_seconds", telemetry.cpu_seconds, worker=worker
                )

    # -- portability -------------------------------------------------------------------

    def spec(self) -> ShardUnitSpec:
        """Snapshot everything a worker process needs to replicate this unit.

        Taken under the unit lock, so the fold-state snapshot is
        consistent with :attr:`watermark` — the replica resumes exactly
        where the unit stands.
        """
        with self.lock:
            chronicles = tuple(
                (name, schema_spec(chronicle.schema))
                for name, chronicle in self.group.chronicles.items()
            )
            views = tuple(
                (view.name, summary_spec(view.summary), view.state_export())
                for view in self.registry.views()
            )
            return ShardUnitSpec(
                self.label,
                self.registry.compile,
                chronicles,
                views,
                self.watermark,
            )

    def view_payload(self, name: str) -> Tuple[Any, Any, Any]:
        """The install payload for one view: (summary spec, state, chronicles)."""
        with self.lock:
            view = self.registry.view(name)
            chronicles = tuple(
                (n, schema_spec(chronicle.schema))
                for n, chronicle in self.group.chronicles.items()
            )
            return summary_spec(view.summary), view.state_export(), chronicles

    def __repr__(self) -> str:
        return f"ShardUnit({self.label!r}, watermark={self.watermark})"


class ShardGroup:
    """All worker shards of one partition key class.

    Views whose :class:`PartitionSpec` is *equal* share these units —
    they route records identically, so one event stream maintains them
    all.  Views with different specs must not share units: a unit's
    registry maintains every registered view against every event it
    receives, and rows routed under one spec generally belong to a
    different shard under another.
    """

    def __init__(
        self,
        name: str,
        spec: PartitionSpec,
        source_group: ChronicleGroup,
        shards: int,
        compile_plans: bool,
    ) -> None:
        self.name = name
        self.spec = spec
        self.source_group = source_group
        self.router = ShardRouter(spec, shards)
        self.units: List[ShardUnit] = [
            ShardUnit(i, f"{name}:{i}", source_group, compile_plans)
            for i in range(shards)
        ]
        self.views: Dict[str, Summary] = {}

    def add_view(self, name: str, summary: Summary) -> None:
        """Register one view partition in every unit."""
        chronicles = {c.name: c for c in summary.expression.chronicles()}
        for chronicle in chronicles.values():
            self.router.bind(chronicle)
        for unit in self.units:
            mirrors = {n: unit.mirror(c) for n, c in chronicles.items()}
            rebound = rebind_summary(summary, mirrors)
            with unit.lock:
                unit.registry.register(PersistentView(name, rebound))
        self.views[name] = summary

    def remove_view(self, name: str) -> None:
        for unit in self.units:
            with unit.lock:
                unit.registry.unregister(name)
        del self.views[name]

    def __repr__(self) -> str:
        return (
            f"ShardGroup({self.name!r}, shards={len(self.units)}, "
            f"views={sorted(self.views)})"
        )


class MergedView:
    """Read facade over one view's per-shard partitions.

    Key lookups hash the key to the owning shard; scans union the
    partitions.  Each access takes the unit's lock, so reads are
    snapshot-consistent with respect to maintenance windows.
    """

    def __init__(self, name: str, summary: Summary, shard_group: ShardGroup) -> None:
        self.name = name
        self.summary = summary
        #: The view's original expression over the *real* chronicles.
        self.expression = summary.expression
        self._shard_group = shard_group

    # -- introspection (delegated to the partition views) ----------------------

    @property
    def schema(self) -> Any:
        return self.summary.output_schema

    def _partition(self, unit: ShardUnit) -> PersistentView:
        return unit.registry.view(self.name)

    @property
    def classification(self) -> Any:
        return self._partition(self._shard_group.units[0]).classification

    @property
    def im_class(self) -> Any:
        return self._partition(self._shard_group.units[0]).im_class

    @property
    def language(self) -> Any:
        return self._partition(self._shard_group.units[0]).language

    def chronicle_names(self) -> Tuple[str, ...]:
        return tuple({c.name: None for c in self.expression.chronicles()})

    @property
    def maintenance_count(self) -> int:
        """Total maintenance windows processed across all partitions."""
        return sum(
            self._partition(unit).maintenance_count
            for unit in self._shard_group.units
        )

    # -- reads ------------------------------------------------------------------

    def lookup(self, key: Sequence[Any]) -> Optional[Row]:
        key = tuple(key)
        sg = self._shard_group
        unit = sg.units[sg.router.shard_of_key(key)]
        with unit.lock:
            return self._partition(unit).lookup(key)

    def value(self, key: Sequence[Any], output: str) -> Any:
        key = tuple(key)
        sg = self._shard_group
        unit = sg.units[sg.router.shard_of_key(key)]
        with unit.lock:
            return self._partition(unit).value(key, output)

    def rows(self) -> Any:
        """Union of the partitions (each snapshotted under its lock)."""
        for unit in self._shard_group.units:
            with unit.lock:
                chunk = list(self._partition(unit).rows())
            yield from chunk

    def __iter__(self) -> Any:
        return self.rows()

    def __len__(self) -> int:
        total = 0
        for unit in self._shard_group.units:
            with unit.lock:
                total += len(self._partition(unit))
        return total

    def to_table(self) -> Table:
        return Table(self.schema, list(self.rows()))

    # -- durability --------------------------------------------------------------------

    def export_state(self) -> Tuple[List[Tuple[Any, Any]], int]:
        """Union of the partitions' fold state, for checkpointing.

        Returns ``(state items, total maintenance count)``.  The items
        alone determine the visible rows (``view_row`` is pure), and
        partition keys are disjoint, so the union is the state the
        serial engine would hold — checkpoints are engine-portable.
        """
        items: List[Tuple[Any, Any]] = []
        count = 0
        for unit in self._shard_group.units:
            with unit.lock:
                view = self._partition(unit)
                items.extend(view.state_export())
                count += view.maintenance_count
        return items, count

    def import_state(
        self, items: Sequence[Tuple[Any, Any]], maintenance_count: int = 0
    ) -> None:
        """Restore the partitions from checkpointed fold state.

        Items are routed to their owning shard by the (stable) router
        hash — which is why restore works across processes at all — and
        each partition rebuilds its rows from its bucket.  The combined
        maintenance count is assigned to shard 0 so the merged total
        round-trips.
        """
        sg = self._shard_group
        buckets: List[List[Tuple[Any, Any]]] = [[] for _ in sg.units]
        for key, value in items:
            key = tuple(key)
            buckets[sg.router.shard_of_key(key)].append((key, value))
        for index, unit in enumerate(sg.units):
            with unit.lock:
                self._partition(unit).state_import(
                    buckets[index],
                    maintenance_count=maintenance_count if index == 0 else 0,
                )

    def __repr__(self) -> str:
        return (
            f"MergedView({self.name!r}, shards={len(self._shard_group.units)}, "
            f"rows={len(self)})"
        )


# ---------------------------------------------------------------------------
# The maintainer (inline or worker-process windows)
# ---------------------------------------------------------------------------


class ShardTask:
    """One shard's share of one maintenance window, ready to execute.

    Built on the admission thread by ``_dispatch``; the
    :class:`ParallelMaintainer` decides *where* it runs (inline or on a
    worker process) — the routing, watermark bookkeeping, and trace
    context are already fixed.
    """

    __slots__ = ("unit", "event", "watermark", "dispatched_at")

    def __init__(
        self,
        unit: ShardUnit,
        event: Mapping[str, Sequence[Row]],
        watermark: SequenceNumber,
        dispatched_at: float,
    ) -> None:
        self.unit = unit
        self.event = event
        self.watermark = watermark
        #: Dispatch wall-clock instant: the start of the lag measurement.
        self.dispatched_at = dispatched_at

    def summary(self) -> Dict[str, Any]:
        """A compact description of this task's window, for diagnostics.

        What a worker-crash incident bundle reports about the window
        that killed the worker: enough to characterize (and often
        reproduce) the failure without holding row data.
        """
        return {
            "shard": self.unit.label,
            "watermark": self.watermark,
            "chronicles": {name: len(rows) for name, rows in self.event.items()},
            "records": sum(len(rows) for rows in self.event.values()),
        }


class ProcessShardBackend:
    """Run tasks in worker processes holding shard replicas.

    Each shard label is pinned to one single-process pool (a replica is
    mutable state; it must only ever live in one process), assigned
    round-robin over *workers* slots.  Pools use the ``spawn`` start
    method — workers import :mod:`repro.parallel.worker` fresh, proving
    the replica really was rebuilt from the portable spec rather than
    inherited address space.  Replicas install lazily on a shard's first
    window (amortized over its lifetime); per window only stamped value
    tuples go down and touched ``(key, state)`` pairs come back.

    With observability installed, windows travel through
    :func:`~repro.parallel.worker.worker_apply_relay` instead: the
    parent pre-pickles the window (timing the encode, counting the
    bytes) and the worker piggybacks a bounded
    :class:`~repro.parallel.worker.WindowTelemetry` — captured spans,
    metric deltas, resource readings — on the result, which
    :meth:`ShardUnit.absorb` grafts, merges, and accounts.  With
    observability off the plain path runs and the payload is
    byte-identical to the untelemetered one.

    A worker that raises keeps its pool: the window failed, the parent
    watermark stands, and the next dispatch retries cleanly.  A worker
    that *dies* breaks its pool; its slot is marked and every subsequent
    dispatch to shards on that slot raises
    :class:`~repro.errors.EngineError` (the replica state is gone — a
    restore or restart must rebuild it).
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self._context = multiprocessing.get_context("spawn")
        self._pools: List[Optional[ProcessPoolExecutor]] = [None] * self.workers
        self._assignment: Dict[str, int] = {}
        self._installed: Set[str] = set()
        self._broken: Dict[int, str] = {}

    # -- pool management ---------------------------------------------------------------

    def _slot_of(self, label: str) -> int:
        slot = self._assignment.get(label)
        if slot is None:
            slot = self._assignment[label] = len(self._assignment) % self.workers
        return slot

    def _pool_for(self, label: str) -> ProcessPoolExecutor:
        slot = self._slot_of(label)
        if slot in self._broken:
            raise EngineError(
                f"shard {label!r}'s worker process died previously "
                f"({self._broken[slot]}); its replica state is gone — "
                f"restore from a checkpoint or rebuild the database"
            )
        pool = self._pools[slot]
        if pool is None:
            pool = self._pools[slot] = ProcessPoolExecutor(
                max_workers=1, mp_context=self._context
            )
        return pool

    def _mark_broken(self, label: str, exc: BaseException) -> None:
        slot = self._slot_of(label)
        self._broken[slot] = repr(exc)
        pool = self._pools[slot]
        if pool is not None:
            pool.shutdown(wait=False)
            self._pools[slot] = None
        self._installed = {
            installed
            for installed in self._installed
            if self._assignment.get(installed) != slot
        }

    def _ensure_installed(self, unit: ShardUnit) -> ProcessPoolExecutor:
        pool = self._pool_for(unit.label)
        if unit.label not in self._installed:
            pool.submit(worker_install, unit.spec()).result()
            self._installed.add(unit.label)
        return pool

    # -- dispatch ----------------------------------------------------------------------

    def _relay_active(self) -> bool:
        """Whether windows travel through the telemetry relay: exactly
        when an observability handle is installed."""
        return obs_runtime.ACTIVE is not None

    def _encode_task(self, task: ShardTask) -> Tuple[Any, Tuple[Any, ...], Optional[Dict[str, Any]]]:
        """One task's submission: ``(worker fn, args, ipc meta or None)``.

        On the relay path the parent pickles the window itself (so the
        encode can be timed and the bytes counted); the pool then ships
        an opaque ``bytes`` — re-pickling bytes is nearly free.  Off the
        relay path the args are the plain ``worker_apply`` payload.
        """
        payload = {
            name: [row.values for row in rows]
            for name, rows in task.event.items()
        }
        if not self._relay_active():
            return worker_apply, (task.unit.label, payload, task.watermark), None
        t0 = time.perf_counter()
        blob = pickle.dumps(
            (payload, task.watermark), protocol=pickle.HIGHEST_PROTOCOL
        )
        encode_seconds = time.perf_counter() - t0
        meta = {"bytes_down": len(blob), "encode_down_seconds": encode_seconds}
        return worker_apply_relay, (task.unit.label, blob), meta

    def _attach_diagnostics(self, exc: BaseException, task: ShardTask) -> None:
        """Stamp the failing task's context onto *exc* for the incident path."""
        try:
            exc.shard_task_summary = task.summary()  # type: ignore[attr-defined]
            exc.worker_spans = task.unit.remote_spans  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - exotic exception types
            pass

    def run(self, tasks: Sequence[ShardTask]) -> None:
        submitted: List[Tuple[ShardTask, Any, Optional[Dict[str, Any]]]] = []
        error: Optional[BaseException] = None
        for task in tasks:
            unit = task.unit
            try:
                pool = self._ensure_installed(unit)
                fn, args, ipc_meta = self._encode_task(task)
                future = pool.submit(fn, *args)
            except BrokenProcessPool as exc:
                # The pool's management thread already noticed the death;
                # submit refuses synchronously.
                self._mark_broken(unit.label, exc)
                if error is None:
                    error = EngineError(
                        f"shard {unit.label!r}'s worker process died: {exc!r}"
                    )
                    error.__cause__ = exc
                    self._attach_diagnostics(error, task)
                continue
            except EngineError as exc:
                # A previously broken slot (_pool_for refuses).
                if error is None:
                    error = exc
                    self._attach_diagnostics(error, task)
                continue
            submitted.append((task, future, ipc_meta))
        for task, future, ipc_meta in submitted:
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                self._mark_broken(task.unit.label, exc)
                if error is None:
                    error = EngineError(
                        f"shard {task.unit.label!r}'s worker process died "
                        f"mid-window: {exc!r}"
                    )
                    error.__cause__ = exc
                    self._attach_diagnostics(error, task)
                continue
            except BaseException as exc:
                if error is None:
                    error = exc
                    self._attach_diagnostics(error, task)
                continue
            if ipc_meta is None:
                items, records, elapsed, stats = result
                task.unit.absorb(
                    items, task.watermark, task.dispatched_at, records, elapsed, stats
                )
            else:
                blob, worker_decode, worker_encode = result
                t0 = time.perf_counter()
                items, records, elapsed, stats, telemetry = pickle.loads(blob)
                decode_up = time.perf_counter() - t0
                ipc = {
                    "bytes_down": ipc_meta["bytes_down"],
                    "bytes_up": len(blob),
                    "encode_down_seconds": ipc_meta["encode_down_seconds"],
                    "decode_down_seconds": worker_decode,
                    "encode_up_seconds": worker_encode,
                    "decode_up_seconds": decode_up,
                }
                task.unit.absorb(
                    items,
                    task.watermark,
                    task.dispatched_at,
                    records,
                    elapsed,
                    stats,
                    telemetry=telemetry,
                    ipc=ipc,
                    worker=str(self._slot_of(task.unit.label)),
                )
            task.unit.last_window_summary = task.summary()
        if error is not None:
            raise error

    def queue_depth(self) -> int:
        """Windows submitted to worker processes and not yet finished."""
        depth = 0
        for pool in self._pools:
            if pool is not None:
                pending = getattr(pool, "_pending_work_items", None)
                if pending is not None:
                    depth += len(pending)
        return depth

    # -- registration tracking ---------------------------------------------------------

    def view_added(self, shard_group: "ShardGroup", name: str) -> None:
        """Install a view registered after workers may hold replicas."""
        for unit in shard_group.units:
            if unit.label in self._installed:
                summary_sp, state, chronicles = unit.view_payload(name)
                self._pool_for(unit.label).submit(
                    worker_add_view, unit.label, name, summary_sp, state, chronicles
                ).result()

    def view_removed(self, shard_group: "ShardGroup", name: str) -> None:
        for unit in shard_group.units:
            if unit.label in self._installed:
                self._pool_for(unit.label).submit(
                    worker_remove_view, unit.label, name
                ).result()

    def reset_units(self) -> None:
        """Forget installed replicas; next dispatch reinstalls from state."""
        self._installed.clear()

    def close(self) -> None:
        for pool in self._pools:
            if pool is not None:
                pool.shutdown(wait=True)
        self._pools = [None] * self.workers


class ParallelMaintainer:
    """Runs each window's per-shard tasks, inline or on worker processes.

    ``executor="serial"`` applies every task on the writing thread
    (deterministic — and, because windows are coalesced, as fast as
    maintenance gets on one core); ``"process"`` hands the window to a
    :class:`ProcessShardBackend`, whose worker processes hold portable
    shard replicas — true multi-core maintenance.  Routing, watermark
    bookkeeping, lag gauges, and trace correlation are identical for
    both; only *where* a window executes differs.
    """

    def __init__(self, executor: str = "serial", workers: int = 4) -> None:
        if executor not in ("serial", "process"):
            raise EngineError(f"unknown executor {executor!r}")
        self.executor = executor
        self.workers = workers
        self._backend: Optional[ProcessShardBackend] = (
            ProcessShardBackend(workers) if executor == "process" else None
        )

    def run(self, tasks: Sequence[ShardTask]) -> None:
        """Run every task; re-raises the first failure after all finish."""
        if not tasks:
            return
        if self._backend is not None:
            self._backend.run(tasks)
            return
        error: Optional[Exception] = None
        for task in tasks:
            try:
                task.unit.apply(task.event, task.watermark, task.dispatched_at)
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def queue_depth(self) -> int:
        """Windows submitted to workers and not yet finished (0 inline).

        A best-effort probe — under the synchronous :meth:`run` it only
        exceeds zero while a window is mid-flight, which is exactly when
        health snapshots taken from other threads want to see it.
        """
        return self._backend.queue_depth() if self._backend is not None else 0

    def view_added(self, shard_group: "ShardGroup", name: str) -> None:
        if self._backend is not None:
            self._backend.view_added(shard_group, name)

    def view_removed(self, shard_group: "ShardGroup", name: str) -> None:
        if self._backend is not None:
            self._backend.view_removed(shard_group, name)

    def reset_units(self) -> None:
        """Parent-side shard state was replaced (restore): resync workers."""
        if self._backend is not None:
            self._backend.reset_units()

    def close(self) -> None:
        if self._backend is not None:
            self._backend.close()

    def __repr__(self) -> str:
        return f"ParallelMaintainer(executor={self.executor!r}, workers={self.workers})"


# ---------------------------------------------------------------------------
# The sharded database
# ---------------------------------------------------------------------------


class ShardedDatabase(ChronicleDatabase):
    """A chronicle database maintaining partitionable views in parallel.

    Construction goes through the facade::

        db = ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=4))

    Writes take the base engine's one failure-atomic path (one sequence
    number domain per group — Section 4's ordering requirement); this
    engine adds only the route-and-dispatch step the base path calls
    once per write (:meth:`_fan_out`).  Views that cannot be
    partitioned run exactly as in the serial engine, on the base
    registry; everything else lives in per-key-class
    :class:`ShardGroup` units and is read through :class:`MergedView`.
    """

    def __init__(self, config: Any = None) -> None:
        super().__init__(config=config)
        if self.config.engine != "sharded":
            self.config = self.config.replace(engine="sharded")
        self._maintainer = ParallelMaintainer(
            executor=self.config.executor, workers=self.config.shards
        )
        self._shard_groups: Dict[Tuple[str, Any], ShardGroup] = {}
        self._merged: Dict[str, MergedView] = {}
        self._fallbacks: List[str] = []

    # -- view registration --------------------------------------------------------

    def _register_summary(
        self, view_name: str, summary: Summary, materialize: bool
    ) -> TUnion[PersistentView, MergedView]:
        if view_name in self._merged:
            raise ViewRegistrationError(f"view name {view_name!r} already registered")
        spec = infer_partition(summary)
        fallback: Optional[Tuple[str, type]] = None
        if spec is UNPARTITIONABLE:
            fallback = (
                f"view {view_name!r} is unpartitionable (its summary key has "
                f"no copy lineage to every scanned chronicle); maintaining it "
                f"on the serial shard",
                UnpartitionableViewWarning,
            )
        elif self.config.executor == "process" and not is_portable(summary):
            # The process executor must ship the view definition to a
            # worker; a definition referencing process-local state (live
            # relations, lambdas in user aggregates) cannot cross.
            fallback = (
                f"view {view_name!r} has no portable definition (it "
                f"references process-local state such as a relation or a "
                f"non-picklable function); maintaining it on the serial shard",
                NonPortableViewWarning,
            )
        if fallback is not None:
            message, category = fallback
            warnings.warn(message, category, stacklevel=4)
            obs = obs_runtime.ACTIVE
            if obs is not None:
                obs.metrics.inc("shard_fallback_total", view=view_name)
            self._fallbacks.append(view_name)
            return super()._register_summary(view_name, summary, materialize)
        if view_name in self.registry:
            raise ViewRegistrationError(f"view name {view_name!r} already registered")
        source_group = summary.expression.group
        shard_group = self._shard_group_for(spec, source_group)
        shard_group.add_view(view_name, summary)
        merged = MergedView(view_name, summary, shard_group)
        self._merged[view_name] = merged
        if materialize:
            self._materialize_partitioned(shard_group, view_name, summary)
        # After materialization, so an installed worker replica receives
        # the view's seeded state, not an empty partition.
        self._maintainer.view_added(shard_group, view_name)
        return merged

    def _shard_group_for(
        self, spec: PartitionSpec, source_group: ChronicleGroup
    ) -> ShardGroup:
        key = (source_group.name, spec.canonical())
        shard_group = self._shard_groups.get(key)
        if shard_group is None:
            shard_group = ShardGroup(
                f"kc{len(self._shard_groups)}",
                spec,
                source_group,
                self.config.shards,
                compile_plans=self.config.compile_views,
            )
            self._shard_groups[key] = shard_group
        return shard_group

    def _materialize_partitioned(
        self, shard_group: ShardGroup, view_name: str, summary: Summary
    ) -> None:
        """Initialize a new view's partitions from stored history.

        Routes the retained rows of each scanned chronicle to their
        shards and folds them into *this view only* (sibling views of
        the key class already absorbed that history incrementally).
        """
        pending: Dict[int, Dict[str, List[Row]]] = {}
        for chronicle in {c.name: c for c in summary.expression.chronicles()}.values():
            real = self.chronicle(chronicle.name)
            if not real.appended_count or real.retention == 0:
                continue
            routed = shard_group.router.route(chronicle.name, list(real.rows()))
            for index, rows in routed.items():
                pending.setdefault(index, {}).setdefault(
                    chronicle.name, []
                ).extend(rows)
        for index, event in pending.items():
            unit = shard_group.units[index]
            with unit.lock:
                view = unit.registry.view(view_name)
                deltas = {
                    name: Delta(unit.group[name].schema, tuple(rows))
                    for name, rows in event.items()
                }
                view.apply_event(deltas)

    def drop_view(self, name: str) -> None:
        merged = self._merged.pop(name, None)
        if merged is None:
            super().drop_view(name)
            return
        self._maintainer.view_removed(merged._shard_group, name)
        merged._shard_group.remove_view(name)
        if self._durability is not None:
            self._durability.record_ddl(("drop_view", name))

    def view(self, name: str) -> Any:
        """Fetch a view handle: merged for partitioned views."""
        merged = self._merged.get(name)
        if merged is not None:
            return merged
        return super().view(name)

    # -- writes ----------------------------------------------------------------------

    def _fans_out(self) -> bool:
        return bool(self._shard_groups)

    def _fan_out(
        self, group: ChronicleGroup, batches: Sequence[Mapping[str, Tuple[Row, ...]]]
    ) -> None:
        """Route one write call's rows to their shards and apply them.

        The engine's only write-path step, called by the base engine
        once per write call (and per replayed log entry) after the group
        committed the batches: each shard gets **one** coalesced window
        stamped with the group's new watermark.
        """
        if not self._shard_groups:
            return
        pending: Dict[ShardGroup, Dict[int, Dict[str, List[Row]]]] = {}
        for batch in batches:
            self._route(batch, pending)
        if pending:
            self._dispatch(pending, group.watermark)

    def _route(
        self,
        event: Mapping[str, Tuple[Row, ...]],
        pending: Dict[ShardGroup, Dict[int, Dict[str, List[Row]]]],
    ) -> None:
        """Bucket one stamped event by (key class, shard) into *pending*."""
        for shard_group in self._shard_groups.values():
            spec_chronicles = shard_group.spec.keys
            for name, rows in event.items():
                if not rows or name not in spec_chronicles:
                    continue
                routed = shard_group.router.route(name, rows)
                units = pending.setdefault(shard_group, {})
                for index, bucket in routed.items():
                    units.setdefault(index, {}).setdefault(name, []).extend(bucket)

    def _dispatch(
        self,
        pending: Dict[ShardGroup, Dict[int, Dict[str, List[Row]]]],
        watermark: SequenceNumber,
    ) -> None:
        tasks: List[ShardTask] = []
        obs = obs_runtime.ACTIVE
        dispatched_at = time.time()
        for shard_group, units in pending.items():
            for index, event in units.items():
                unit = shard_group.units[index]
                # Mark the dispatch on the admission thread *before* the
                # worker runs: a concurrent health probe or scrape sees
                # the in-flight window as lag, not as silence.
                unit.dispatched = watermark
                unit.dispatched_at = dispatched_at
                tasks.append(ShardTask(unit, event, watermark, dispatched_at))
                if obs is not None:
                    obs.metrics.inc(
                        "shard_records_total",
                        sum(len(rows) for rows in event.values()),
                        shard=unit.label,
                    )
                    obs.metrics.set(
                        "shard_lag_batches",
                        max(0, watermark - unit.watermark),
                        shard=unit.label,
                    )
        try:
            self._maintainer.run(tasks)
        except BaseException as exc:
            # A shard that did not absorb the window now lacks its rows;
            # the next window would move its watermark past them, so the
            # loss is recorded until restore() (see shard_health()).
            for task in tasks:
                unit = task.unit
                if unit.watermark < watermark and unit.failed_watermark is None:
                    unit.failed_watermark = watermark
            if obs is not None:
                obs.metrics.inc("engine_errors_total")
                obs.incident(
                    "shard-worker-error",
                    error=repr(exc),
                    watermark=watermark,
                    watermarks=self.watermarks(),
                    # The failing task's window summary and the worker's
                    # last relayed spans (when the backend could attach
                    # them) — a crash should be diagnosable from the
                    # bundle without reproducing it.
                    window=getattr(exc, "shard_task_summary", None),
                    worker_spans=getattr(exc, "worker_spans", None),
                )
            raise

    # -- stats / introspection ---------------------------------------------------------

    @property
    def stats(self) -> Dict[str, Any]:
        """Database-wide maintenance stats merged across every registry."""
        units = [
            unit
            for shard_group in self._shard_groups.values()
            for unit in shard_group.units
        ]
        return ViewRegistry.merge_stats(
            [self.registry.stats]
            + [unit.registry.stats for unit in units]
            # Under the process executor the maintaining registry lives
            # in the worker; each window returns its cumulative stats.
            + [unit.remote_stats for unit in units if unit.remote_stats]
        )

    def watermarks(self) -> Dict[str, SequenceNumber]:
        """Per-shard absorption watermarks (plus the serial admission one)."""
        marks: Dict[str, SequenceNumber] = {
            f"serial/{name}": group.watermark for name, group in self.groups.items()
        }
        for shard_group in self._shard_groups.values():
            for unit in shard_group.units:
                marks[unit.label] = unit.watermark
        return marks

    def shard_health(self) -> ShardHealth:
        """A live freshness snapshot across every shard unit.

        Lag is measured against what was *dispatched to* each unit, not
        the global admission watermark — a shard that simply received no
        rows for a while is caught up, not lagging.  ``lag_seconds`` is
        staleness: zero when absorbed, else the age of the oldest
        in-flight window.  ``gap_watermark`` names the earliest window a
        shard failed to apply; it stays set, whatever later windows do,
        until :meth:`restore`.
        """
        now = time.time()
        admission = max(
            (group.watermark for group in self.groups.values()), default=-1
        )
        shards: List[ShardLag] = []
        for shard_group in self._shard_groups.values():
            for unit in shard_group.units:
                behind = unit.dispatched > unit.watermark
                shards.append(
                    ShardLag(
                        shard=unit.label,
                        watermark=unit.watermark,
                        lag_batches=max(0, unit.dispatched - unit.watermark),
                        lag_seconds=(
                            max(0.0, now - unit.dispatched_at) if behind else 0.0
                        ),
                        records_applied=unit.records_applied,
                        windows_applied=unit.windows_applied,
                        last_apply_at=unit.last_apply_at,
                        gap_watermark=unit.failed_watermark,
                    )
                )
        return ShardHealth(
            admission_watermark=admission,
            shards=tuple(shards),
            queue_depth=self._maintainer.queue_depth(),
            at=now,
        )

    @property
    def fallback_views(self) -> Tuple[str, ...]:
        """Names of views that fell back to the serial shard."""
        return tuple(self._fallbacks)

    @property
    def partitioned_views(self) -> Tuple[str, ...]:
        """Names of views maintained across worker shards."""
        return tuple(sorted(self._merged))

    @property
    def shard_groups(self) -> Tuple[ShardGroup, ...]:
        return tuple(self._shard_groups.values())

    # -- durability -------------------------------------------------------------------

    def restore(self, source: Any) -> None:
        """Restore from a checkpoint, then resync shard bookkeeping.

        Routing is :func:`~repro.parallel.router.stable_hash`-based, so a
        checkpoint written by any process (or the serial engine) restores
        here with every key on its owning shard.  Unit watermarks advance
        to the restored admission watermark, and process-executor worker
        replicas are invalidated — the next window reinstalls them from
        the restored state.  Restored state is whole, so recorded shard
        gaps clear.
        """
        super().restore(source)
        for shard_group in self._shard_groups.values():
            watermark = shard_group.source_group.watermark
            for unit in shard_group.units:
                with unit.lock:
                    unit.watermark = watermark
                    unit.dispatched = watermark
                    unit.failed_watermark = None
        self._maintainer.reset_units()

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker processes down, then the base resources."""
        self._maintainer.close()
        super().close()

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase(shards={self.config.shards}, "
            f"key_classes={len(self._shard_groups)}, "
            f"partitioned={sorted(self._merged)}, "
            f"fallbacks={sorted(self._fallbacks)})"
        )

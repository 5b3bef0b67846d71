"""Per-layer ledger for the traced run, recorded from outside the program.

:class:`LayerLedger` wraps public functions of each layer of ``repro``
with timing spans.  Every span knows its parent (the span open when it
started), so a span's *self time* is its duration minus the time its
child spans cover; a layer's total time counts only its outermost span
when a layer re-enters itself.  Spans are aggregated as they close (per
name: calls, total and self seconds) instead of being stored one by one,
which keeps a multi-million-span run in constant memory.

Wrappers are installed on the classes (and on the registry module's
``event_deltas`` import) before the database under test is built,
because groups capture bound listener methods when views attach.  Only
the main thread is recorded; other threads (the metrics-history sampler,
the process pool's manager) pass straight through.  End-to-end runs
install nothing.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algebra.plan import CompiledPlan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.core.group import ChronicleGroup
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel.engine import MergedView, ParallelMaintainer, ShardUnit
from repro.parallel.router import ShardRouter
from repro.query.compiler import Compiler
from repro.sca.view import PersistentView
from repro.storage.durability import DurabilityManager
from repro.storage.wal import ChronicleWal
from repro.views import registry as registry_module
from repro.views.periodic import PeriodicViewSet
from repro.views.registry import RegisteredView, ViewRegistry

#: (owner, attribute, span name) for every wrapped function.
TARGETS: Tuple[Tuple[Any, str, str], ...] = (
    (ChronicleGroup, "append_simultaneous", "core.admit"),
    (ChronicleGroup, "ingest_stamped", "core.admit"),
    (Compiler, "compile_definition", "query.compile"),
    (ViewRegistry, "on_event", "views.route"),
    (RegisteredView, "might_be_affected", "views.prefilter"),
    (PeriodicViewSet, "route_event", "views.periodic"),
    (registry_module, "event_deltas", "algebra.delta"),
    (CompiledPlan, "__call__", "algebra.delta"),
    (PersistentView, "apply_delta", "sca.fold"),
    (PersistentView, "apply_event", "sca.fold"),
    (PersistentView, "lookup", "sca.lookup"),
    (DurabilityManager, "admission_sink", "storage.sink"),
    (ChronicleWal, "log_batch", "storage.wal_append"),
    (DurabilityManager, "batch_committed", "storage.commit"),
    (DurabilityManager, "snapshot", "storage.snapshot"),
    (DurabilityManager, "recover", "storage.recover"),
    (ShardRouter, "route", "parallel.route"),
    (ParallelMaintainer, "run", "parallel.run"),
    (ShardUnit, "absorb", "parallel.absorb"),
    (MergedView, "lookup", "parallel.merged_lookup"),
    (Tracer, "start", "obs.tracer"),
    (Tracer, "finish", "obs.tracer"),
    (MetricsRegistry, "inc", "obs.metrics"),
    (MetricsRegistry, "set", "obs.metrics"),
    (MetricsRegistry, "observe", "obs.metrics"),
)


class _Aggregate:
    """Closed spans of one name: calls, total and self seconds."""

    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class LayerLedger:
    """Span aggregates per layer, plus the counts some spans carry."""

    def __init__(self) -> None:
        self.spans: Dict[str, _Aggregate] = defaultdict(_Aggregate)
        #: Extra counts taken from span arguments and results.
        self.counts: Dict[str, float] = defaultdict(float)
        self.gc_seconds = 0.0
        #: Seconds a wrapper spends outside its own span per call; taken
        #: off the parent's self time so wrapping a child does not bill
        #: the parent layer.
        self.overhead = 0.0
        self._stack: List[List[float]] = []  # per open span: [child seconds]
        self._main = threading.get_ident()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._gc_started: Optional[float] = None

    # -- installation ---------------------------------------------------------

    def install(self) -> "LayerLedger":
        self.overhead = calibrate_overhead()
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, _EXTRAS.get((owner, attr))))
            self._restore.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, original: Callable[..., Any], name: str, extra: Any) -> Callable[..., Any]:
        ledger = self
        aggregate = self.spans[name]
        stack = self._stack
        main = self._main
        clock = time.perf_counter
        get_ident = threading.get_ident

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != main:
                return original(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            aggregate.depth += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                aggregate.depth -= 1
                aggregate.calls += 1
                aggregate.self_time += elapsed - frame[0]
                if not aggregate.depth:
                    aggregate.total += elapsed
                if stack:
                    stack[-1][0] += elapsed + ledger.overhead
            if extra is not None:
                extra(ledger.counts, args, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self._gc_started = None

    # -- phases -----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The ledger's current totals (diff two with :func:`diff`)."""
        spans = self.spans
        return {
            "calls": {name: span.calls for name, span in spans.items()},
            "total": {name: span.total for name, span in spans.items()},
            "self": {name: span.self_time for name, span in spans.items()},
            "counts": dict(self.counts),
            "gc": self.gc_seconds,
            "counters": GLOBAL_COUNTERS.total,
        }


def calibrate_overhead(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds one wrapper adds outside its own span, per call.

    Times a wrapped no-op from outside and subtracts the span time the
    wrapper itself recorded; the least of a few rounds is kept.
    """
    best = float("inf")
    for _ in range(rounds):
        ledger = LayerLedger()
        wrapped = ledger._wrap(lambda: None, "calibration", None)
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        outside = time.perf_counter() - started - ledger.spans["calibration"].total
        best = min(best, outside / calls)
    return max(best, 0.0)


def diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """Per-key differences of two :meth:`LayerLedger.snapshot` results."""
    out: Dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            base = before[key]
            out[key] = {k: v - base.get(k, 0) for k, v in value.items()}
        else:
            out[key] = value - before[key]
    return out


def _wal_bytes(counts: Dict[str, float], args: Tuple[Any, ...], result: Any) -> None:
    counts["wal_bytes"] += result


def _recovered(counts: Dict[str, float], args: Tuple[Any, ...], result: Any) -> None:
    counts["replayed_batches"] += result.replayed_batches


def _absorbed(counts: Dict[str, float], args: Tuple[Any, ...], result: Any) -> None:
    # absorb(self, per_view_items, watermark, window, records, worker_seconds, ...)
    counts["absorbed_keys"] += sum(len(items) for items in args[1].values())
    counts["worker_seconds"] += args[5]


_EXTRAS = {
    (ChronicleWal, "log_batch"): _wal_bytes,
    (DurabilityManager, "recover"): _recovered,
    (ShardUnit, "absorb"): _absorbed,
}


#: Per-layer metrics: name -> unit.  Every traced run reports all of
#: them; a layer the workload never enters reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.admit_us_per_record": "us",
    "query.compile_ms": "ms",
    "views.route_us_per_event": "us",
    "views.prefilter_us_per_event": "us",
    "views.candidates_per_event": "count",
    "views.maintained_per_event": "count",
    "views.prefilter_precision": "ratio",
    "views.periodic_us_per_batch": "us",
    "algebra.delta_us_per_event": "us",
    "sca.fold_us_per_record": "us",
    "sca.lookup_us": "us",
    "storage.wal_append_us_per_batch": "us",
    "storage.wal_bytes_per_record": "bytes",
    "storage.commit_us_per_window": "us",
    "storage.snapshots": "count",
    "storage.snapshot_ms": "ms",
    "storage.recover_s": "s",
    "storage.replayed_batches": "count",
    "parallel.route_us_per_record": "us",
    "parallel.dispatch_ms_per_window": "ms",
    "parallel.worker_busy_ms_per_window": "ms",
    "parallel.absorb_ms_per_window": "ms",
    "parallel.absorbed_keys_per_window": "count",
    "parallel.merged_lookup_us": "us",
    "obs.spans_per_record": "count",
    "obs.tracer_us_per_record": "us",
    "obs.metric_updates_per_record": "count",
    "obs.metrics_us_per_record": "us",
    "complexity.counter_increments_per_record": "count",
    "runtime.gc_ms_per_s": "ms/s",
    "bench.probe_ms": "ms",
}

#: Metrics that are counts of work, not times: they repeat exactly for a
#: given seed and size.
COUNT_METRICS = (
    "views.candidates_per_event",
    "views.maintained_per_event",
    "views.prefilter_precision",
    "storage.snapshots",
    "storage.replayed_batches",
    "storage.wal_bytes_per_record",
    "parallel.absorbed_keys_per_window",
    "obs.spans_per_record",
    "complexity.counter_increments_per_record",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    timed: Dict[str, Any],
    setup: Dict[str, Any],
    setup_reps: int,
    *,
    records: int,
    batches: int,
    windows: int,
    stats: Dict[str, int],
    spans: int,
    work_seconds: float,
    probe_seconds: float,
) -> Dict[str, float]:
    """Turn ledger diffs of the timed phase and of set-up into metrics.

    *stats* is the registry-stats delta over the timed phase, *spans*
    the tracer's completed-span delta, *work_seconds* the raw timed work.
    """
    calls, total, self_time, counts = (
        timed["calls"], timed["total"], timed["self"], timed["counts"]
    )

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def s(name: str) -> float:
        return self_time.get(name, 0.0)

    def c(name: str) -> int:
        return calls.get(name, 0)

    events = c("views.route")
    candidates = stats.get("candidate_views", 0)
    maintained = stats.get("maintained_views", 0)
    stat_events = stats.get("events", 0)
    us, ms = 1e6, 1e3
    return {
        "core.admit_us_per_record": _ratio(s("core.admit") * us, records),
        "query.compile_ms": _ratio(setup["total"].get("query.compile", 0.0) * ms, setup_reps),
        "views.route_us_per_event": _ratio(s("views.route") * us, events),
        "views.prefilter_us_per_event": _ratio(t("views.prefilter") * us, events),
        "views.candidates_per_event": _ratio(candidates, stat_events),
        "views.maintained_per_event": _ratio(maintained, stat_events),
        "views.prefilter_precision": _ratio(maintained, candidates),
        "views.periodic_us_per_batch": _ratio(t("views.periodic") * us, batches),
        "algebra.delta_us_per_event": _ratio(t("algebra.delta") * us, events),
        "sca.fold_us_per_record": _ratio(t("sca.fold") * us, records),
        "sca.lookup_us": _ratio(t("sca.lookup") * us, c("sca.lookup")),
        "storage.wal_append_us_per_batch": _ratio(
            t("storage.wal_append") * us, c("storage.wal_append")
        ),
        "storage.wal_bytes_per_record": _ratio(counts.get("wal_bytes", 0), records),
        "storage.commit_us_per_window": _ratio(t("storage.commit") * us, windows),
        "storage.snapshots": c("storage.snapshot"),
        "storage.snapshot_ms": _ratio(t("storage.snapshot") * ms, c("storage.snapshot")),
        "storage.recover_s": _ratio(setup["total"].get("storage.recover", 0.0), setup_reps),
        "storage.replayed_batches": _ratio(
            setup["counts"].get("replayed_batches", 0), setup_reps
        ),
        "parallel.route_us_per_record": _ratio(t("parallel.route") * us, records),
        "parallel.dispatch_ms_per_window": _ratio(s("parallel.run") * ms, windows),
        "parallel.worker_busy_ms_per_window": _ratio(
            counts.get("worker_seconds", 0.0) * ms, windows
        ),
        "parallel.absorb_ms_per_window": _ratio(t("parallel.absorb") * ms, windows),
        "parallel.absorbed_keys_per_window": _ratio(counts.get("absorbed_keys", 0), windows),
        "parallel.merged_lookup_us": _ratio(
            t("parallel.merged_lookup") * us, c("parallel.merged_lookup")
        ),
        "obs.spans_per_record": _ratio(spans, records),
        "obs.tracer_us_per_record": _ratio(t("obs.tracer") * us, records),
        "obs.metric_updates_per_record": _ratio(c("obs.metrics"), records),
        "obs.metrics_us_per_record": _ratio(t("obs.metrics") * us, records),
        "complexity.counter_increments_per_record": _ratio(timed["counters"], records),
        "runtime.gc_ms_per_s": _ratio(timed["gc"] * ms, work_seconds),
        "bench.probe_ms": probe_seconds * ms,
    }

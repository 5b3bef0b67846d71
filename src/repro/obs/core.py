"""The :class:`Observability` façade: tracer + metrics + auditor.

One instance bundles the three surfaces and the configuration knobs,
and bridges them: every finished span flows through
:meth:`Observability.on_span_end`, which feeds the metrics registry and
hands maintenance spans to the auditor.  Installing the instance
(:meth:`install`, or ``DatabaseConfig(observe=True)``) publishes it
to :mod:`repro.obs.runtime`, which is the only thing the hot-path hooks
ever look at — so constructing an Observability costs nothing until it
is installed, and uninstalling restores the zero-overhead no-op path.

Span names are the contract between the hooks and this bridge:

``append``
    One whole write call on a group (admission, logging, storage and
    every listener — one batch or a coalesced window).  Metrics:
    ``append_events_total{group}``, ``append_seconds{group}``, and the
    per-event :class:`~repro.complexity.counters.CostCounters` deltas as
    ``cost_<event>_total`` counters.
``prefilter``
    The registry's candidate filtering for one event.
``maintain``
    One view maintained for one event.  Metrics:
    ``view_maintained_total{view,engine}``,
    ``view_maintain_seconds{view,engine}``; audited.
``delta``
    One operator delta step (compiled plan step or interpreter node).
    Metrics: ``operator_invocations_total{operator,engine}``,
    ``operator_delta_rows_total{operator,engine}``.
``ingest``
    One sharded write window (admission through all-shards-visible —
    the end-to-end freshness gap).  Metrics:
    ``ingest_windows_total{group}``, ``ingest_visibility_seconds{group}``.
``shard_apply``
    One coalesced window applied by a shard worker.  Metrics:
    ``shard_batches_total{shard}``, ``shard_apply_seconds{shard}``.

Under ``executor="process"`` with observability installed, worker-side
spans arrive as relayed records grafted under ``shard_apply``
(:meth:`~repro.obs.tracer.Tracer.graft` — they bypass this bridge; the
worker's metric deltas are merged directly with ``shard``/``worker``
labels), and the parent emits the IPC accounting series:
``ipc_bytes_down_total{shard}`` / ``ipc_bytes_up_total{shard}``,
``ipc_encode_seconds{shard,direction}`` /
``ipc_decode_seconds{shard,direction}``, ``worker_rss_bytes{worker}`` /
``worker_cpu_seconds{worker}``, and the pressure-valve counters
``relay_spans_dropped_total{shard}`` /
``relay_series_dropped_total{shard}``.

Every finished *root* span is additionally summarized into the
:class:`~repro.obs.recorder.FlightRecorder` ring, and listener
exceptions are swallowed and counted
(``span_listener_errors_total{listener}``) so a broken exporter can
never abort the maintenance path.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, Optional

from ..errors import MaintenanceAuditError, ObservabilityError
from . import runtime
from .auditor import Auditor
from .costmodel import CostLedger
from .health import HealthReport, SloPolicy, evaluate_health
from .metrics import MetricsRegistry
from .recorder import FlightRecorder, summarize_span
from .tracer import Span, Tracer


class Observability:
    """Tracing, metrics, and auditing for one process.

    Parameters
    ----------
    trace:
        Record span trees per append event (ring buffer of *ring*).
    trace_operators:
        Also record per-operator ``delta`` spans (the deepest, most
        verbose layer; disable to trace only append/view granularity).
    audit:
        Auditor mode: ``"off"``, ``"warn"``, or ``"raise"``.  Any mode
        other than ``"off"`` forces *trace* on — the auditor reads the
        counter diffs the tracer collects.
    view_read_limit:
        Permitted ``view_read`` count per maintenance span (default 0).
    ring:
        Trace ring-buffer capacity.
    slo:
        The :class:`~repro.obs.health.SloPolicy` the ``/health`` route
        and :meth:`health` evaluate against (``None`` — the default
        policy).
    incident_dir:
        Directory where the flight recorder writes incident bundles on
        triggers (auditor violation, shard-worker error, SLO breach).
        ``None`` (the default) keeps the in-memory ring but never
        touches disk automatically; explicit
        :meth:`incident`/``dump_incident(path=...)`` calls still work.
    costs:
        Feed the :class:`~repro.obs.costmodel.CostLedger` from finished
        maintenance spans (requires *trace*; the ledger object exists
        either way so readers never need a None check).
    cost_entries:
        The ledger's cardinality bound (distinct (view, operator,
        shape) keys).
    """

    def __init__(
        self,
        trace: bool = True,
        trace_operators: bool = True,
        audit: str = "warn",
        view_read_limit: int = 0,
        ring: int = 256,
        slo: Optional[SloPolicy] = None,
        incident_dir: Optional[str] = None,
        costs: bool = True,
        cost_entries: int = 512,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.auditor = Auditor(
            mode=audit, view_read_limit=view_read_limit, metrics=self.metrics
        )
        self.trace = bool(trace) or self.auditor.enabled
        self.trace_operators = self.trace and trace_operators
        self.tracer = Tracer(capacity=ring, on_span_end=self.on_span_end)
        #: Conformance certificates by view name (JSON-ready dicts),
        #: published by :class:`~repro.obs.conformance.ConformanceProfiler`
        #: and served on the ``/certificates`` HTTP route.
        self.certificates: Dict[str, Dict[str, Any]] = {}
        #: The live per-(view, operator, shape) cost aggregates, fed by
        #: every finished ``maintain`` span when *costs* is on.  Served
        #: by ``SHOW COSTS`` and the ``/costs`` HTTP route.
        self.cost_ledger = CostLedger(max_entries=cost_entries)
        self.record_costs = self.trace and bool(costs)
        #: The SLO policy health evaluation uses (None = defaults).
        self.slo = slo
        #: The black-box ring + incident dumper.
        self.recorder = FlightRecorder(directory=incident_dir)
        self._span_listeners: List[Callable[[Span], None]] = []
        self._server: Optional[Any] = None
        #: The :class:`~repro.obs.history.MetricsHistory` sampler, once
        #: started (``None`` until then; survives :meth:`stop_history`
        #: so the ring stays readable after shutdown).
        self.history: Optional[Any] = None
        self._db_ref: Optional["weakref.ReferenceType[Any]"] = None
        self._last_health_status = "OK"

    # -- installation ------------------------------------------------------------------

    def install(self) -> "Observability":
        """Publish this instance to the process-wide runtime slot."""
        return runtime.install(self)

    def uninstall(self) -> None:
        """Withdraw this instance (no-op if another one is installed)."""
        runtime.uninstall(self)

    @property
    def installed(self) -> bool:
        return runtime.ACTIVE is self

    def __enter__(self) -> "Observability":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- exporters ---------------------------------------------------------------------

    def add_span_listener(self, listener: Callable[[Span], None]) -> None:
        """Register a callback fed every finished span (after metrics).

        :class:`~repro.obs.exporters.JsonlSpanSink` is the canonical
        listener: it ignores non-root spans and streams each completed
        trace to disk.  Listener exceptions are swallowed and counted
        (``span_listener_errors_total{listener=<type name>}``) — a
        closed sink must degrade the export, never the append path.
        """
        self._span_listeners.append(listener)

    def remove_span_listener(self, listener: Callable[[Span], None]) -> None:
        if listener in self._span_listeners:
            self._span_listeners.remove(listener)

    @property
    def server(self) -> Optional[Any]:
        """The running :class:`~repro.obs.exporters.MetricsServer`, if any."""
        return self._server

    def serve(self, port: int = 0, host: str = "127.0.0.1") -> Any:
        """Start the HTTP exporter (``/metrics``, ``/certificates``,
        ``/snapshot``) on *port* (0 = ephemeral); returns the server."""
        from .exporters import MetricsServer

        if self._server is not None:
            raise ObservabilityError(
                f"metrics server already running on port {self._server.port}"
            )
        self._server = MetricsServer(self, port=port, host=host).start()
        return self._server

    def stop_serving(self) -> None:
        """Stop the HTTP exporter (no-op when not serving)."""
        if self._server is not None:
            self._server.stop()
            self._server = None

    # -- metrics history ---------------------------------------------------------------

    def start_history(
        self,
        interval: float = 1.0,
        capacity: int = 720,
        thread: bool = True,
    ) -> Any:
        """Start the :class:`~repro.obs.history.MetricsHistory` sampler.

        With ``thread=True`` a daemon thread samples every *interval*
        seconds; ``thread=False`` builds the ring without one (callers
        drive :meth:`~repro.obs.history.MetricsHistory.sample_now`
        themselves — the CLI's ``SHOW TIMELINE``).  Raises
        :class:`ObservabilityError` when a sampler thread is already
        running; a stopped sampler is replaced, dropping its ring.
        """
        from .history import MetricsHistory

        if self.history is not None and self.history.running:
            raise ObservabilityError("metrics history already running")
        self.history = MetricsHistory(self, interval=interval, capacity=capacity)
        if thread:
            self.history.start()
        return self.history

    def stop_history(self) -> None:
        """Stop the history sampler thread; the ring stays readable."""
        if self.history is not None:
            self.history.stop()

    # -- span bridge -------------------------------------------------------------------

    def on_span_end(self, span: Span) -> None:
        """Feed one finished span into metrics and (maybe) the auditor."""
        name = span.name
        metrics = self.metrics
        if name == "maintain":
            view = str(span.attrs.get("view", "?"))
            engine = str(span.attrs.get("engine", "?"))
            metrics.inc("view_maintained_total", view=view, engine=engine)
            metrics.observe(
                "view_maintain_seconds", span.duration, view=view, engine=engine
            )
            if self.record_costs:
                # Before the auditor: a raise-mode violation still
                # leaves its cost recorded in the ledger.
                self.cost_ledger.observe_maintain(span)
            try:
                violations = self.auditor.check_span(span)
            except MaintenanceAuditError as exc:
                # Raise-mode: freeze the black box before the append
                # aborts — this is exactly the moment the tape matters.
                self.incident(
                    "auditor-violation",
                    error=str(exc),
                    span=summarize_span(span),
                )
                raise
            if violations:
                self.incident(
                    "auditor-violation",
                    violations=[v.describe() for v in violations],
                    span=summarize_span(span),
                )
        elif name == "delta":
            operator = str(span.attrs.get("operator", "?"))
            engine = str(span.attrs.get("engine", "?"))
            metrics.inc(
                "operator_invocations_total", operator=operator, engine=engine
            )
            rows = span.attrs.get("rows")
            if rows:
                metrics.inc(
                    "operator_delta_rows_total",
                    rows,
                    operator=operator,
                    engine=engine,
                )
        elif name == "append":
            group = str(span.attrs.get("group", "?"))
            metrics.inc("append_events_total", group=group)
            metrics.observe("append_seconds", span.duration, group=group)
            for event, amount in span.counters.items():
                metrics.inc(f"cost_{event}_total", amount, group=group)
        elif name == "shard_apply":
            # One coalesced maintenance window applied by a shard worker
            # (sharded engine).  The nested append/maintain spans carry
            # the per-view numbers; this series shows shard balance.
            shard = span.attrs.get("shard")
            if shard is None:
                # Never emit an unknown-shard bucket: a missing label is
                # a bug in the emitting hook, counted as such.
                metrics.inc("span_label_missing_total", span="shard_apply")
            else:
                shard = str(shard)
                metrics.inc("shard_batches_total", shard=shard)
                metrics.observe("shard_apply_seconds", span.duration, shard=shard)
        elif name == "ingest":
            # One sharded write window: the span covers admission through
            # all-shards-visible, so its duration IS the end-to-end
            # freshness gap the paper's bounded-cost claims protect.
            group = str(span.attrs.get("group", "?"))
            metrics.inc("ingest_windows_total", group=group)
            metrics.observe("ingest_visibility_seconds", span.duration, group=group)
        if span._is_root:
            self.recorder.record_span(span)
        for listener in self._span_listeners:
            try:
                listener(span)
            except Exception:
                metrics.inc(
                    "span_listener_errors_total",
                    listener=type(listener).__name__,
                )

    # -- health & incidents ------------------------------------------------------------

    def bind_database(self, db: Any) -> None:
        """Attach a database as the health/incident context source.

        Held through a weak reference so the process-wide handle can
        never keep a dropped database alive.  One database at a time —
        like the runtime slot itself, the last bind wins.
        """
        self._db_ref = weakref.ref(db)

    def database(self) -> Optional[Any]:
        """The bound database, or ``None`` (never bound / collected)."""
        return self._db_ref() if self._db_ref is not None else None

    def health(self) -> HealthReport:
        """Evaluate the SLO policy against the current state.

        Uses the bound database's :meth:`shard_health` snapshot when it
        has one (the sharded engine); a transition *into* ``FAILING``
        triggers an ``slo-breach`` incident dump.
        """
        db = self.database()
        shard_health = None
        if db is not None:
            probe = getattr(db, "shard_health", None)
            if probe is not None:
                shard_health = probe()
        report = evaluate_health(self, self.slo, shard_health)
        if report.status == "FAILING" and self._last_health_status != "FAILING":
            self.incident("slo-breach", health=report.as_dict())
        self._last_health_status = report.status
        return report

    def incident(
        self, reason: str, path: Optional[str] = None, **context: Any
    ) -> Optional[str]:
        """Trigger the flight recorder with full context; returns the path.

        Assembles whatever the moment can safely provide — per-shard
        watermarks and merged registry stats from the bound database,
        plus this handle's :meth:`snapshot` — and hands it to
        :meth:`~repro.obs.recorder.FlightRecorder.trigger`.  Context
        collection is best-effort: an incident dump must never add a
        second failure to the one being recorded.
        """
        db = self.database()
        if db is not None:
            try:
                context.setdefault("watermarks", db.watermarks())
            except Exception:
                pass
            try:
                context.setdefault("registry_stats", db.stats)
            except Exception:
                pass
        try:
            context.setdefault("snapshot", self.snapshot())
        except Exception:
            pass
        if self.history is not None:
            from .history import INCIDENT_TIMELINE_SAMPLES

            try:
                # The trailing window: a bundle records the lead-up,
                # not just the moment of failure.
                context.setdefault(
                    "timeline",
                    self.history.timeline(limit=INCIDENT_TIMELINE_SAMPLES),
                )
            except Exception:
                pass
        return self.recorder.trigger(reason, context, path=path)

    # -- snapshots ---------------------------------------------------------------------

    def cost_snapshot(self) -> Dict[str, Any]:
        """The cost ledger as a JSON-ready dict, certificates stamped.

        Conformance verdicts published since the last snapshot are
        linked onto matching entries first, so every exported row
        carries its claimed-vs-fitted class when one is known.  This is
        what the ``/costs`` HTTP route serves and what
        :meth:`~repro.obs.costmodel.CostLedger.from_dict` restores.
        """
        if self.certificates:
            self.cost_ledger.link_certificates(self.certificates)
        return self.cost_ledger.as_dict()

    def snapshot(self) -> Dict[str, Any]:
        """A one-call dict of everything: metrics, audit, trace status."""
        return {
            "metrics": self.metrics.as_dict(),
            "audit": self.auditor.summary(),
            "traces": {
                "completed": self.tracer.completed_count,
                "buffered": len(self.tracer.traces()),
                "capacity": self.tracer.capacity,
            },
            "certificates": {
                name: cert.get("conformant")
                for name, cert in sorted(self.certificates.items())
            },
            "health": self._last_health_status,
            "costs": {
                "entries": len(self.cost_ledger),
                "dropped": self.cost_ledger.dropped,
                "recording": self.record_costs,
            },
            "recorder": {
                "events": len(self.recorder.events()),
                "triggered": self.recorder.triggered,
                "dumped": self.recorder.dumped,
            },
            "history": (
                {
                    "running": self.history.running,
                    "samples": len(self.history.samples()),
                    "interval_seconds": self.history.interval,
                    "capacity": self.history.capacity,
                }
                if self.history is not None
                else {"running": False, "samples": 0}
            ),
        }

    def __repr__(self) -> str:
        state = "installed" if self.installed else "idle"
        return (
            f"Observability({state}, trace={self.trace}, "
            f"operators={self.trace_operators}, audit={self.auditor.mode!r})"
        )

"""Identifying affected persistent views (Section 5.2).

"When multiple views are to be maintained over the same chronicle, each
update to the chronicle would require checking all the views to determine
if they need to be updated."  The registry avoids that with two filters:

1. **dependency index** — chronicle name → views depending on it, so an
   append only visits views over the touched chronicles;
2. **selection prefilter** — for each (view, chronicle) pair, the
   conjunction of selection predicates sitting between the view's scan of
   that chronicle and any non-selection operator.  A delta none of whose
   rows pass the prefilter cannot change the view, so its (more
   expensive) delta propagation is skipped.  This is the cheap
   update-independence test of [LS93] specialized to CA's predicate
   fragment.

The registry is also the natural owner of periodic view sets: only the
views *active* for the current interval are maintained (third bullet of
Section 5.2).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..algebra.ast import ChronicleScan, Node, Select
from ..algebra.plan import (
    UNPARTITIONABLE,
    CompiledPlan,
    PlanCompiler,
    compile_prefilter,
    infer_partition,
)
from ..core.chronicle import maintenance_guard
from ..core.delta import Delta
from ..core.group import ChronicleGroup
from ..errors import ViewRegistrationError
from ..obs import runtime as obs_runtime
from ..relational.predicate import Predicate, conjunction
from ..relational.tuples import Row
from ..sca.maintenance import event_deltas
from ..sca.view import PersistentView
from .periodic import PeriodicViewSet


def scan_prefilters(expression: Node) -> Dict[str, List[Predicate]]:
    """Per-chronicle prefilter predicates of an expression.

    For every base-chronicle scan, collect the selection predicates that
    apply directly above it (before any reshaping operator), then AND
    them per chronicle.  Rows failing the prefilter can be discarded
    before delta propagation.  A chronicle scanned twice with different
    filters gets the OR-semantics of "any scan might accept the row" by
    keeping the predicate lists separate — callers must pass a row when
    *any* scan's conjunction accepts it.
    """
    filters: Dict[str, List[Predicate]] = {}
    unfiltered: set = set()

    def descend(node: Node, pending: Tuple[Predicate, ...]) -> None:
        if isinstance(node, Select):
            descend(node.child, pending + (node.predicate,))
            return
        if isinstance(node, ChronicleScan):
            name = node.chronicle.name
            filters.setdefault(name, [])
            if pending and name not in unfiltered:
                filters[name].append(conjunction(list(pending)))
            else:
                # An unfiltered scan accepts everything: no prefilter for
                # this chronicle, regardless of other (filtered) scans.
                unfiltered.add(name)
                filters[name] = []
            return
        for child in node.children:
            descend(child, ())

    descend(expression, ())
    return filters


class RegisteredView:
    """Registry bookkeeping for one persistent view.

    In compiled registries this also carries the view's interned
    expression (*root*), its :class:`~repro.algebra.plan.CompiledPlan`,
    and position-compiled prefilter tests (one per chronicle) that avoid
    per-row attribute-name resolution on the append path.
    """

    __slots__ = ("view", "prefilters", "root", "plan", "partition", "_compiled_prefilters")

    def __init__(self, view: PersistentView) -> None:
        self.view = view
        self.prefilters = scan_prefilters(view.expression)
        self.root: Optional[Node] = None
        self.plan: Optional[CompiledPlan] = None
        #: Partition declaration (PartitionSpec or UNPARTITIONABLE) —
        #: the sharded engine routes records by it; compiled plans carry
        #: the same declaration.
        self.partition = infer_partition(view.summary)
        self._compiled_prefilters: Optional[
            Dict[str, Optional[Callable[[Tuple[Row, ...]], bool]]]
        ] = None

    def compile_prefilters(self) -> None:
        """Precompile the prefilter conjunctions against chronicle schemas."""
        schemas = {c.name: c.schema for c in self.view.expression.chronicles()}
        compiled: Dict[str, Optional[Callable[[Tuple[Row, ...]], bool]]] = {}
        for name, predicates in self.prefilters.items():
            if predicates:
                compiled[name] = compile_prefilter(predicates, schemas[name])
            else:
                compiled[name] = None  # some scan of the chronicle is unfiltered
        self._compiled_prefilters = compiled

    def might_be_affected(self, chronicle_name: str, rows: Tuple[Row, ...]) -> bool:
        """Cheap test: could this delta change the view?"""
        if self._compiled_prefilters is not None:
            try:
                test = self._compiled_prefilters[chronicle_name]
            except KeyError:
                return False
            return True if test is None else test(rows)
        if chronicle_name not in self.prefilters:
            return False
        predicates = self.prefilters[chronicle_name]
        if not predicates:
            return True  # some scan of the chronicle is unfiltered
        return any(
            predicate.evaluate(row) for row in rows for predicate in predicates
        )


class ViewRegistry:
    """Owns every persistent view of a database and routes appends.

    Parameters
    ----------
    prefilter:
        Enable the selection prefilter (disable to measure its benefit —
        benchmark E9 does exactly that).
    compile:
        Route maintenance through compiled plans
        (:mod:`repro.algebra.plan`): view expressions are structurally
        interned at registration so equivalent subexpressions across
        independently-defined views share one node (and one delta
        computation per event), and each view's delta propagation runs as
        a fused closure pipeline instead of the tree interpreter.  Plans
        are (re)compiled lazily after registration changes; appends never
        pay compilation cost twice.
    """

    def __init__(self, prefilter: bool = True, compile: bool = False) -> None:
        self.prefilter = prefilter
        self.compile = compile
        self._views: Dict[str, RegisteredView] = {}
        self._periodic: Dict[str, PeriodicViewSet] = {}
        self._by_chronicle: Dict[str, List[RegisteredView]] = {}
        self._stats = {
            "events": 0,
            "candidate_views": 0,
            "maintained_views": 0,
            # Prefilter effectiveness: a *hit* is a candidate view the
            # prefilter proved unaffected (its maintenance was skipped);
            # a *miss* is a candidate that had to be maintained anyway.
            "prefilter_hits": 0,
            "prefilter_misses": 0,
            # Which engine maintained the views (compiled plans vs the
            # tree interpreter) — sums to maintained_views.
            "compiled_maintained": 0,
            "interpreted_maintained": 0,
        }
        # Per-view maintenance observations (span count + last append
        # latency), populated only while observability is installed —
        # the numbers come from the ``maintain`` spans.
        self._per_view: Dict[str, Dict[str, float]] = {}
        self._compiler: Optional[PlanCompiler] = PlanCompiler() if compile else None
        self._plans_stale = False

    # -- registration -----------------------------------------------------------------

    def register(self, view: PersistentView) -> PersistentView:
        """Register a persistent view for maintenance."""
        if view.name in self._views or view.name in self._periodic:
            raise ViewRegistrationError(f"view name {view.name!r} already registered")
        registered = RegisteredView(view)
        if self._compiler is not None:
            registered.root = self._compiler.add_root(view.expression)
            registered.compile_prefilters()
            # Sharing boundaries may have moved: recompile lazily, off the
            # append path.
            self._plans_stale = True
        self._views[view.name] = registered
        for chronicle_name in view.chronicle_names():
            self._by_chronicle.setdefault(chronicle_name, []).append(registered)
        return view

    def register_periodic(self, view_set: PeriodicViewSet, group: ChronicleGroup) -> PeriodicViewSet:
        """Register a periodic view set (it handles its own routing)."""
        if view_set.name in self._views or view_set.name in self._periodic:
            raise ViewRegistrationError(f"view name {view_set.name!r} already registered")
        self._periodic[view_set.name] = view_set
        view_set.attach(group)
        return view_set

    def unregister(self, name: str) -> None:
        """Drop a registered view."""
        if name in self._periodic:
            del self._periodic[name]
            return
        registered = self._views.pop(name, None)
        if registered is None:
            raise ViewRegistrationError(f"no view named {name!r}")
        for chronicle_name in registered.view.chronicle_names():
            views = self._by_chronicle.get(chronicle_name)
            if views is not None and registered in views:
                views.remove(registered)
        if self._compiler is not None and registered.root is not None:
            self._compiler.remove_root(registered.root)
            self._plans_stale = True

    # -- lookup ------------------------------------------------------------------------

    def view(self, name: str) -> PersistentView:
        try:
            return self._views[name].view
        except KeyError:
            raise ViewRegistrationError(f"no view named {name!r}") from None

    def periodic(self, name: str) -> PeriodicViewSet:
        try:
            return self._periodic[name]
        except KeyError:
            raise ViewRegistrationError(f"no periodic view named {name!r}") from None

    def views(self) -> Iterator[PersistentView]:
        for registered in self._views.values():
            yield registered.view

    def __contains__(self, name: object) -> bool:
        return name in self._views or name in self._periodic

    def __len__(self) -> int:
        return len(self._views) + len(self._periodic)

    def partition_of(self, name: str) -> Any:
        """The partition declaration of a registered persistent view.

        Returns the view's :class:`~repro.algebra.plan.PartitionSpec`,
        or :data:`~repro.algebra.plan.UNPARTITIONABLE` for views whose
        keys straddle partitions (periodic view sets are always
        unpartitionable — they carry interval state of their own).
        """
        registered = self._views.get(name)
        if registered is not None:
            return registered.partition
        if name in self._periodic:
            return UNPARTITIONABLE
        raise ViewRegistrationError(f"no view named {name!r}")

    @staticmethod
    def merge_stats(many: "Iterable[Dict[str, Any]]") -> Dict[str, Any]:
        """Merge several registries' :attr:`stats` dicts into one.

        The sharded engine keeps one registry per shard; this produces
        the database-wide view: numeric keys are summed, ``per_view``
        entries merge by view name (span counts summed, the most recent
        last-append latency kept — i.e. the max, since shards of one
        batch finish within the same append).
        """
        merged: Dict[str, Any] = {}
        per_view: Dict[str, Dict[str, float]] = {}
        for stats in many:
            for key, value in stats.items():
                if key == "per_view":
                    for name, values in value.items():
                        into = per_view.setdefault(
                            name, {"spans": 0, "last_append_seconds": 0.0}
                        )
                        into["spans"] += values.get("spans", 0)
                        into["last_append_seconds"] = max(
                            into["last_append_seconds"],
                            values.get("last_append_seconds", 0.0),
                        )
                else:
                    merged[key] = merged.get(key, 0) + value
        if per_view:
            merged["per_view"] = per_view
        return merged

    @property
    def stats(self) -> Dict[str, Any]:
        """Routing statistics for every event seen by this registry.

        Keys: ``events``, ``candidate_views``, ``maintained_views``,
        ``prefilter_hits`` / ``prefilter_misses`` (candidates skipped /
        not skipped by the Section 5.2 prefilter), and
        ``compiled_maintained`` / ``interpreted_maintained`` (which
        engine ran the maintenance).  The same numbers are surfaced as
        metrics (``view_prefilter_total{outcome}``,
        ``view_maintained_total{engine}``) when observability is
        installed.

        While observability is installed (either engine), a ``per_view``
        key is added: ``{view: {"spans": n, "last_append_seconds": s}}``
        from that view's ``maintain`` spans — absent entirely when no
        span was ever observed, so uninstrumented runs see the original
        flat shape.
        """
        out: Dict[str, Any] = dict(self._stats)
        if self._per_view:
            out["per_view"] = {
                name: dict(values) for name, values in self._per_view.items()
            }
        return out

    # -- compilation --------------------------------------------------------------------

    def ensure_compiled(self) -> None:
        """(Re)compile every view's plan if registrations changed.

        Called automatically on the first event after a registration
        change; exposed so benchmarks can pay compilation up front.
        """
        if self._compiler is None or not self._plans_stale:
            return
        for registered in self._views.values():
            registered.plan = self._compiler.compile(
                registered.root, partition=registered.partition
            )
        self._plans_stale = False

    def interned_expression(self, name: str) -> Node:
        """The interned (shared-subtree) expression of a registered view."""
        registered = self._views.get(name)
        if registered is None:
            raise ViewRegistrationError(f"no view named {name!r}")
        if registered.root is None:
            raise ViewRegistrationError(
                f"view {name!r} is registered in an interpreted registry"
            )
        return registered.root

    # -- routing -----------------------------------------------------------------------

    def attach(self, group: ChronicleGroup) -> None:
        """Subscribe the registry to a group's append events (coalesced)."""
        group.subscribe(self.on_event, coalesce=True)

    def on_event(self, group: ChronicleGroup, event: Mapping[str, Tuple[Row, ...]]) -> int:
        """Route one append event; returns how many views were maintained.

        Periodic view sets attached to the group route themselves.

        With observability installed, candidate filtering runs inside a
        ``prefilter`` span and each view's maintenance inside its own
        ``maintain`` span (see :mod:`repro.obs`); when it is not, the
        only added cost is one module-attribute load per event.
        """
        obs = obs_runtime.ACTIVE
        tracer = obs.tracer if obs is not None and obs.trace else None
        stats = self._stats
        stats["events"] += 1
        if self._plans_stale:
            self.ensure_compiled()
        candidates: Dict[str, RegisteredView] = {}
        for chronicle_name in event:
            for registered in self._by_chronicle.get(chronicle_name, ()):
                candidates[registered.view.name] = registered
        stats["candidate_views"] += len(candidates)
        if self.prefilter and candidates:
            span = (
                tracer.start("prefilter", candidates=len(candidates))
                if tracer is not None
                else None
            )
            try:
                survivors = [
                    registered
                    for registered in candidates.values()
                    if any(
                        registered.might_be_affected(name, rows)
                        for name, rows in event.items()
                    )
                ]
                hits = len(candidates) - len(survivors)
                stats["prefilter_hits"] += hits
                stats["prefilter_misses"] += len(survivors)
                if obs is not None:
                    if hits:
                        obs.metrics.inc("view_prefilter_total", hits, outcome="hit")
                    if survivors:
                        obs.metrics.inc(
                            "view_prefilter_total", len(survivors), outcome="miss"
                        )
                if span is not None:
                    span.attrs["skipped"] = hits
            finally:
                if span is not None:
                    tracer.finish(span)
        else:
            survivors = list(candidates.values())
        deltas: Optional[Dict[str, Delta]] = None
        cache: Dict[int, Delta] = {}
        maintained = 0
        for registered in survivors:
            if deltas is None:
                deltas = event_deltas(group, event)
            plan = registered.plan
            span = (
                tracer.start(
                    "maintain",
                    view=registered.view.name,
                    engine="compiled" if plan is not None else "interpreted",
                )
                if tracer is not None
                else None
            )
            try:
                if plan is not None:
                    # Compiled path: the plan computes the χ-delta (under
                    # the no-access guard); interned nodes shared between
                    # plans are served from the per-event cache.
                    with maintenance_guard():
                        delta = plan(deltas, cache)
                    folded = registered.view.apply_delta(delta)
                else:
                    # One delta cache per event: views sharing subexpression
                    # objects compute each shared node's delta once.
                    folded = registered.view.apply_event(deltas, cache=cache)
                if span is not None:
                    span.attrs["rows"] = folded
            finally:
                if span is not None:
                    tracer.finish(span)
            if span is not None:
                per_view = self._per_view.get(registered.view.name)
                if per_view is None:
                    per_view = self._per_view[registered.view.name] = {
                        "spans": 0,
                        "last_append_seconds": 0.0,
                    }
                per_view["spans"] += 1
                per_view["last_append_seconds"] = span.duration
            stats[
                "compiled_maintained" if plan is not None else "interpreted_maintained"
            ] += 1
            maintained += 1
        stats["maintained_views"] += maintained
        return maintained

"""Chronicle groups: shared sequence-number domains.

"We define a chronicle group as a collection of chronicles whose sequence
numbers are drawn from the same domain, along with the requirement that
an insert into any chronicle in a chronicle group must have a sequence
number greater than the sequence number of any tuple in the chronicle
group" (Section 4).  Operations like union, difference and the
sequence-number equijoin are only permitted between chronicles of the
same group — the validator checks this structurally.

The group is also the natural place for:

* the write entry point (checking and stamping a window of batches,
  recording chronons, notifying maintenance listeners) — all or nothing;
* the *watermark* that the proactive-update rule of Section 2.3 is
  policed against;
* simultaneous multi-chronicle appends sharing one sequence number
  ("multiple tuples with the same sequence number can be inserted
  simultaneously").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..errors import ChronicleGroupError
from ..obs import runtime as obs_runtime
from ..relational.schema import Attribute, Schema
from ..relational.tuples import Row
from ..relational.types import SEQ
from .chronicle import Chronicle, RowValues
from .sequence import ChrononMapper, IdentityChronons, SequenceIssuer, SequenceNumber

#: Listener signature: one call per append event, covering every chronicle
#: touched at that sequence number (or, for a coalescing listener, by the
#: whole write call): (group, {chronicle_name: stamped_rows}).
AppendListener = Callable[["ChronicleGroup", Dict[str, Tuple[Row, ...]]], None]

#: One admitted batch: (chronicle_name -> stamped rows, its sequence number).
StampedBatch = Tuple[Dict[str, Tuple[Row, ...]], SequenceNumber]


def _distinct(admitted: List[Row]) -> Tuple[Row, ...]:
    """Drop repeated records of one batch.

    Records in one batch share the sequence number, so identical records
    are the same tuple: set semantics dedups them here, keeping storage
    consistent with the (deduplicating) deltas.
    """
    if len(admitted) == 1:
        return tuple(admitted)
    seen = set()
    unique = []
    for row in admitted:
        if row.values not in seen:
            seen.add(row.values)
            unique.append(row)
    return tuple(unique)


def chronicle_schema(
    *attrs: "Tuple[str, Any] | Attribute",
    sequence_attribute: str = "sn",
) -> Schema:
    """Build a chronicle schema: the given attributes plus the SEQ column.

    The sequencing attribute is prepended unless an attribute of that
    name is already present.
    """
    attributes: List[Attribute] = [
        a if isinstance(a, Attribute) else Attribute(a[0], a[1]) for a in attrs
    ]
    names = [a.name for a in attributes]
    if sequence_attribute not in names:
        attributes.insert(0, Attribute(sequence_attribute, SEQ))
    return Schema(attributes, sequence_attribute=sequence_attribute)


class ChronicleGroup:
    """A named collection of chronicles over one sequence-number domain."""

    def __init__(
        self,
        name: str,
        chronons: Optional[ChrononMapper] = None,
        start: SequenceNumber = 0,
    ) -> None:
        self.name = name
        self.chronicles: Dict[str, Chronicle] = {}
        self.chronons = chronons if chronons is not None else IdentityChronons()
        self._issuer = SequenceIssuer(start)
        self._listeners: List[AppendListener] = []
        self._coalescing: Set[AppendListener] = set()
        #: Durability hook: when set (by :class:`~repro.storage.durability
        #: .DurabilityManager`), called with ``(group, window)`` — every
        #: admitted batch of one write call with its sequence number —
        #: after admission but *before* anything is stored or maintained:
        #: the append-ahead discipline.  If it raises, the call changes
        #: nothing.  ``None`` keeps the hot path untouched.
        self.wal_sink: Optional[
            Callable[["ChronicleGroup", Sequence[StampedBatch]], None]
        ] = None

    # -- membership --------------------------------------------------------------

    def create_chronicle(
        self,
        name: str,
        schema: "Schema | Sequence[Tuple[str, Any]]",
        retention: Optional[int] = None,
    ) -> Chronicle:
        """Create and register a chronicle in this group.

        *schema* may be a ready chronicle :class:`Schema` or a sequence of
        ``(name, domain)`` pairs, in which case an ``sn`` SEQ column is
        added automatically.
        """
        if name in self.chronicles:
            raise ChronicleGroupError(f"group {self.name!r} already has chronicle {name!r}")
        if not isinstance(schema, Schema):
            schema = chronicle_schema(*schema)
        chronicle = Chronicle(name, schema, retention=retention)
        chronicle.group = self
        self.chronicles[name] = chronicle
        return chronicle

    def adopt(self, chronicle: Chronicle) -> Chronicle:
        """Register an externally built chronicle into this group."""
        if chronicle.name in self.chronicles:
            raise ChronicleGroupError(
                f"group {self.name!r} already has chronicle {chronicle.name!r}"
            )
        if chronicle.group is not None and chronicle.group is not self:
            raise ChronicleGroupError(
                f"chronicle {chronicle.name!r} already belongs to group "
                f"{chronicle.group.name!r}"
            )
        chronicle.group = self
        self.chronicles[chronicle.name] = chronicle
        return chronicle

    def __contains__(self, name: object) -> bool:
        return name in self.chronicles

    def __getitem__(self, name: str) -> Chronicle:
        try:
            return self.chronicles[name]
        except KeyError:
            raise ChronicleGroupError(
                f"group {self.name!r} has no chronicle {name!r}"
            ) from None

    # -- watermark ----------------------------------------------------------------

    @property
    def watermark(self) -> SequenceNumber:
        """Highest sequence number seen by the group (-1 before any)."""
        return self._issuer.watermark

    def next_sequence_number(self) -> SequenceNumber:
        """The sequence number the next append will receive (peek)."""
        return self._issuer.watermark + 1

    # -- listeners ------------------------------------------------------------------

    def subscribe(self, listener: AppendListener, coalesce: bool = False) -> None:
        """Register a maintenance listener called after every write.

        A per-batch listener (the default) is called once per admitted
        batch.  A *coalescing* listener is called once per write call
        with the union of the call's batches — one maintenance event per
        window, each row keeping its own sequence number.  Only
        maintenance that folds a union exactly as it folds the parts may
        coalesce; :meth:`ingest_stamped` gives the argument for the
        persistent-view registry.  Listeners fire in subscription order.
        """
        self._listeners.append(listener)
        if coalesce:
            self._coalescing.add(listener)

    def unsubscribe(self, listener: AppendListener) -> None:
        """Remove a previously registered listener."""
        self._listeners.remove(listener)
        self._coalescing.discard(listener)

    # -- appends ----------------------------------------------------------------------

    def append(
        self,
        chronicle: "Chronicle | str",
        records: Union[RowValues, Sequence[RowValues]],
        sequence_number: Optional[SequenceNumber] = None,
        instant: Optional[float] = None,
    ) -> Tuple[Row, ...]:
        """Append one batch of records at a single fresh sequence number.

        *records* is one record or a list of records; all share the newly
        issued (or validated externally supplied) sequence number.
        Returns the stamped rows after notifying listeners.
        """
        resolved = self._resolve(chronicle)
        return self.append_simultaneous(
            {resolved: records},
            sequence_number=sequence_number,
            instant=instant,
        )[resolved.name]

    def append_simultaneous(
        self,
        batches: Mapping["Chronicle | str", Union[RowValues, Sequence[RowValues]]],
        sequence_number: Optional[SequenceNumber] = None,
        instant: Optional[float] = None,
    ) -> Dict[str, Tuple[Row, ...]]:
        """Append to several chronicles of the group at one sequence number.

        This is the "simultaneous insertion" of Section 4: every record in
        every batch shares the same fresh sequence number.  It is a
        one-batch :meth:`append_window`.
        """
        return self.append_window(
            [batches], sequence_number=sequence_number, instant=instant
        )[0]

    def append_window(
        self,
        batches: Sequence[
            Mapping["Chronicle | str", Union[RowValues, Sequence[RowValues]]]
        ],
        sequence_number: Optional[SequenceNumber] = None,
        instant: Optional[float] = None,
    ) -> List[Dict[str, Tuple[Row, ...]]]:
        """Append a window of batches, all or nothing.

        Each batch (a mapping chronicle → records) receives its own
        sequence number: the first gets *sequence_number* when given,
        else the next fresh one, and each further batch the next.  Every
        batch is resolved and type-checked against its number before
        anything changes; then the ``wal_sink`` logs the whole window.  A
        failure in either step leaves the watermark, the chronicles, the
        log and every view as they were.  Only then does the watermark
        advance and the rows get stored and maintained
        (:meth:`_commit`).  Returns the stamped rows of each batch.

        When observability is installed with tracing on, the whole call —
        admission, logging, storage, and every maintenance listener —
        runs inside one ``append`` root span (see :mod:`repro.obs`).
        """
        obs = obs_runtime.ACTIVE
        if obs is not None and obs.trace:
            span = obs.tracer.start("append", group=self.name)
            try:
                stamped = self._append_window_impl(batches, sequence_number, instant)
                sizes: Dict[str, int] = {}
                for batch in stamped:
                    for name, rows in batch.items():
                        if rows:
                            sizes[name] = sizes.get(name, 0) + len(rows)
                span.attrs["deltas"] = sizes
                if sizes:
                    first = next(
                        rows for batch in stamped for rows in batch.values() if rows
                    )
                    span.attrs["sequence"] = first[0].sequence_number
                if len(stamped) > 1:
                    span.attrs["batches"] = len(stamped)
            finally:
                obs.tracer.finish(span)
            return stamped
        return self._append_window_impl(batches, sequence_number, instant)

    def _append_window_impl(
        self,
        batches: Sequence[
            Mapping["Chronicle | str", Union[RowValues, Sequence[RowValues]]]
        ],
        sequence_number: Optional[SequenceNumber],
        instant: Optional[float],
    ) -> List[Dict[str, Tuple[Row, ...]]]:
        if not batches:
            return []
        if sequence_number is None:
            first = self._issuer.watermark + 1
        else:
            # Validate only; the issuer advances at commit.
            self._issuer.check(sequence_number)
            first = sequence_number
        last = first + len(batches) - 1
        if instant is not None:
            self.chronons.check(first, instant)
        stamped: List[Dict[str, Tuple[Row, ...]]] = []
        window: List[StampedBatch] = []
        for stamp, batch in enumerate(batches, first):
            rows_of: Dict[str, Tuple[Row, ...]] = {}
            for target, records in batch.items():
                chronicle = self._resolve(target)
                rows_of[chronicle.name] = _distinct(
                    chronicle._admit_batch(
                        self._normalize_records(chronicle, records), stamp
                    )
                )
            stamped.append(rows_of)
            event = {name: rows for name, rows in rows_of.items() if rows}
            if event:
                window.append((event, stamp))
        sink = self.wal_sink
        if sink is not None and window:
            sink(self, window)
        # Everything below changes state; nothing above did.
        obs = obs_runtime.ACTIVE
        if obs is not None:
            for event, _ in window:
                for name, rows in event.items():
                    obs.metrics.inc(
                        "chronicle_records_admitted_total", len(rows), chronicle=name
                    )
        if instant is not None:
            for stamp in range(first, last + 1):
                self.chronons.record(stamp, instant)
        self._commit(window, last)
        return stamped

    def ingest_stamped(
        self,
        event: Mapping[str, Sequence[Row]],
        watermark: SequenceNumber,
    ) -> None:
        """Absorb already-stamped rows as **one** maintenance event.

        Rows were admitted and stamped elsewhere (several transaction
        batches, each with its own fresh sequence number — *watermark*
        is the highest): recovery replays logged batches through here,
        and shard units absorb their coalesced windows.  The issuer
        advances to *watermark*, each chronicle stores its rows, and
        every listener fires **once** for the event.  Coalescing is
        sound for every CA delta rule — each rule is either per-row
        (select/project/union), matches only equal *fresh* sequence
        numbers (SeqJoin), keys delta groups by fresh sequence numbers
        (GroupBySeq), or cancels only identical tuples (Difference) — so
        one coalesced event folds to the same view state as the
        per-batch events would.  The same argument lets the registry
        subscribe as a coalescing listener on the live write path.

        Sequence-number gaps below *watermark* are legal (other shards
        own the skipped numbers).
        """
        fired = {name: tuple(rows) for name, rows in event.items() if rows}
        window = [(fired, watermark)] if fired else []
        obs = obs_runtime.ACTIVE
        if obs is not None and obs.trace:
            span = obs.tracer.start("append", group=self.name)
            try:
                self._commit(window, watermark)
                span.attrs["deltas"] = {name: len(rows) for name, rows in fired.items()}
                span.attrs["sequence"] = watermark
            finally:
                obs.tracer.finish(span)
            return
        self._commit(window, watermark)

    def _commit(self, window: Sequence[StampedBatch], watermark: SequenceNumber) -> None:
        """Advance to *watermark*, store the window's rows, fire listeners.

        Per-batch listeners see each batch in order; coalescing
        listeners see the union once.
        """
        if watermark > self._issuer.watermark:
            self._issuer.accept(watermark)
        chronicles = self.chronicles
        for event, _ in window:
            for name, rows in event.items():
                chronicles[name]._store(rows)
        if len(window) == 1:
            event = window[0][0]
            for listener in self._listeners:
                listener(self, event)
            return
        if not window:
            return
        parts: Dict[str, List[Row]] = {}
        for event, _ in window:
            for name, rows in event.items():
                parts.setdefault(name, []).extend(rows)
        union = {name: tuple(rows) for name, rows in parts.items()}
        for listener in self._listeners:
            if listener in self._coalescing:
                listener(self, union)
            else:
                for event, _ in window:
                    listener(self, event)

    def _resolve(self, target: "Chronicle | str") -> Chronicle:
        if isinstance(target, Chronicle):
            if target.group is not self:
                raise ChronicleGroupError(
                    f"chronicle {target.name!r} does not belong to group {self.name!r}"
                )
            return target
        return self[target]

    @staticmethod
    def _normalize_records(
        chronicle: Chronicle,
        records: Union[RowValues, Sequence[RowValues]],
    ) -> List[RowValues]:
        if isinstance(records, Mapping):
            return [records]
        records = list(records)
        if records and not isinstance(records[0], (Mapping, list, tuple, Row)):
            # A single positional record like ("alice", 3) rather than a list
            # of records.
            return [records]
        return records  # type: ignore[return-value]

    def same_group(self, *chronicles: Chronicle) -> bool:
        """Whether every argument chronicle belongs to this group."""
        return all(c.group is self for c in chronicles)

    def __repr__(self) -> str:
        return (
            f"ChronicleGroup({self.name!r}, chronicles={sorted(self.chronicles)}, "
            f"watermark={self.watermark})"
        )

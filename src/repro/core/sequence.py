"""Sequence numbers and chronons.

Sequence numbers are drawn from an infinite ordered domain (we use the
integers) shared by every chronicle in a chronicle group.  "There is a
temporal instant (or chronon) associated with each sequence number"
(Section 2.1); the mapping is what the periodic summarized chronicle
algebra of Section 5.1 needs in order to place chronicle tuples into
calendar intervals.

Three mappers cover the practical cases:

* :class:`IdentityChronons` — the sequence number *is* the chronon
  (useful when records are timestamped externally);
* :class:`LinearChronons` — affine mapping ``origin + step * sn`` (steady
  arrival rates, handy in synthetic workloads);
* :class:`RecordedChronons` — explicit timestamps recorded at append
  time, with monotonicity enforcement.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

from ..errors import SequenceOrderError

#: Sequence numbers are plain ints; the alias documents intent.
SequenceNumber = int


class ChrononMapper:
    """Maps sequence numbers to temporal instants (chronons)."""

    def chronon(self, sequence_number: SequenceNumber) -> float:
        """The temporal instant associated with *sequence_number*."""
        raise NotImplementedError

    def check(self, sequence_number: SequenceNumber, instant: float) -> None:
        """Raise exactly what :meth:`record` would, without recording."""

    def record(self, sequence_number: SequenceNumber, instant: float) -> None:
        """Record an observed (sn, instant) pair; default ignores it."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class IdentityChronons(ChrononMapper):
    """chronon(sn) = sn."""

    def chronon(self, sequence_number: SequenceNumber) -> float:
        return float(sequence_number)


class LinearChronons(ChrononMapper):
    """chronon(sn) = origin + step * sn."""

    def __init__(self, origin: float = 0.0, step: float = 1.0) -> None:
        if step <= 0:
            raise ValueError("chronon step must be positive")
        self.origin = origin
        self.step = step

    def chronon(self, sequence_number: SequenceNumber) -> float:
        return self.origin + self.step * sequence_number

    def __repr__(self) -> str:
        return f"LinearChronons(origin={self.origin}, step={self.step})"


class RecordedChronons(ChrononMapper):
    """Explicit, monotone (sequence number, instant) recordings.

    ``chronon(sn)`` returns the instant recorded for the largest recorded
    sequence number ``<= sn`` — i.e. the clock reading current when that
    part of the stream arrived.
    """

    def __init__(self) -> None:
        self._sns: List[SequenceNumber] = []
        self._instants: List[float] = []

    def check(self, sequence_number: SequenceNumber, instant: float) -> None:
        if self._sns:
            if sequence_number <= self._sns[-1]:
                raise SequenceOrderError(
                    f"chronon recording for sequence {sequence_number} is not "
                    f"after the last recorded sequence {self._sns[-1]}"
                )
            if instant < self._instants[-1]:
                raise SequenceOrderError(
                    f"chronon {instant} regresses below {self._instants[-1]}"
                )

    def record(self, sequence_number: SequenceNumber, instant: float) -> None:
        self.check(sequence_number, instant)
        self._sns.append(sequence_number)
        self._instants.append(instant)

    def chronon(self, sequence_number: SequenceNumber) -> float:
        position = bisect_right(self._sns, sequence_number)
        if position == 0:
            raise SequenceOrderError(
                f"no chronon recorded at or before sequence {sequence_number}"
            )
        return self._instants[position - 1]

    def __len__(self) -> int:
        return len(self._sns)


class SequenceIssuer:
    """Monotone sequence-number source for a chronicle group.

    Tracks the high-water mark across every chronicle of the group; a new
    batch may reuse the current batch number only through the explicit
    simultaneous-append API of the group (the issuer itself hands out
    strictly increasing numbers).
    """

    __slots__ = ("_last",)

    def __init__(self, start: SequenceNumber = 0) -> None:
        self._last: SequenceNumber = start - 1

    @property
    def watermark(self) -> SequenceNumber:
        """The highest sequence number issued so far (start-1 if none)."""
        return self._last

    def issue(self) -> SequenceNumber:
        """Hand out the next sequence number."""
        self._last += 1
        return self._last

    def check(self, sequence_number: SequenceNumber) -> None:
        """Raise :class:`SequenceOrderError` unless *sequence_number*
        exceeds the watermark, per the chronicle model's append rule."""
        if sequence_number <= self._last:
            raise SequenceOrderError(
                f"sequence number {sequence_number} is not greater than the "
                f"chronicle group's watermark {self._last}"
            )

    def accept(self, sequence_number: SequenceNumber) -> SequenceNumber:
        """Validate an externally supplied sequence number and advance."""
        self.check(sequence_number)
        self._last = sequence_number
        return sequence_number

    def __repr__(self) -> str:
        return f"SequenceIssuer(watermark={self._last})"

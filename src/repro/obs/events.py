"""The observability event model.

Every layer of the reproduction emits the same four primitive event
shapes onto the :class:`~repro.obs.bus.Instrument` bus, keyed by
``(category, name, rank, tid)``:

* **span begin/end** -- a duration on one simulated thread's timeline
  (lock wait, lock hold, critical-section occupancy).  Spans nest per
  ``(rank, tid)`` lane, exactly like Chrome-trace ``B``/``E`` events.
* **async begin/end** -- a duration *not* tied to a thread (a packet in
  flight between ranks), matched by ``id``.
* **counter** -- a sampled numeric series (queue depth, dangling
  requests, link backlog).
* **instant** -- a point event (lock hand-off, empty progress poll).

``kind`` values equal the Chrome-trace phase letters so the exporter is
a direct mapping.
"""

from __future__ import annotations

import enum
from typing import Any, Mapping, NamedTuple, Optional

__all__ = ["EventKind", "ObsEvent", "CATEGORIES"]

#: The categories used by the built-in emitters.  Subscribers may filter
#: on any subset; unknown categories are legal (the bus is open).
CATEGORIES = ("sim", "lock", "mpi", "net", "fault", "check", "service", "meta")


class EventKind(enum.Enum):
    """Primitive event shapes; values are Chrome-trace phase letters."""

    SPAN_BEGIN = "B"
    SPAN_END = "E"
    ASYNC_BEGIN = "b"
    ASYNC_END = "e"
    COUNTER = "C"
    INSTANT = "i"


class ObsEvent(NamedTuple):
    """One event on the bus.

    ``ts`` is the *simulated* clock in seconds; ``rank``/``tid`` locate
    the event on a timeline lane (``-1`` = not thread/rank attributed).
    ``value`` is only meaningful for counters, ``span_id`` only for
    async spans.

    A tuple, so the bus builds it in one C-level call and consumers
    can unpack it; like any tuple it is immutable and compares by value.
    """

    kind: EventKind
    category: str
    name: str
    ts: float
    rank: int = -1
    tid: int = -1
    value: Optional[float] = None
    span_id: Optional[int] = None
    args: Optional[Mapping[str, Any]] = None

    @property
    def key(self) -> tuple:
        """The ``(category, name, rank, tid)`` series key."""
        return (self.category, self.name, self.rank, self.tid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.value is not None:
            extra = f" value={self.value}"
        if self.span_id is not None:
            extra += f" id={self.span_id}"
        return (
            f"<ObsEvent {self.kind.value} {self.category}/{self.name} "
            f"t={self.ts:.9f} r{self.rank}t{self.tid}{extra}>"
        )

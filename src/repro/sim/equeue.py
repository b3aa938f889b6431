"""The simulator's event queue.

The :class:`~repro.sim.engine.Simulator` owns one :class:`EventQueue`, a
priority queue over ``(time, seq, event)`` entries.  The total order is
``(time, seq)`` with ``seq`` allocated at push time, so events sharing a
timestamp dispatch in creation order.

The queue is a binary heap with lazy deletion: a cancelled entry stays
where it is, is skipped (and accounted) when it reaches the head, and an
in-place compaction sweeps the heap once more than half of it is dead.
:class:`EventQueue` hides those books behind ``push`` / ``pop`` /
``note_cancelled`` and the read-only counters, which the simulator
exposes as ``queued_events`` / ``dead_events`` / ``heap_size`` /
``skipped`` / ``compactions``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional

__all__ = ["EventQueue"]

#: Lazy-deletion compaction gate: never sweep a queue carrying fewer
#: dead entries than this, however high the dead fraction (tiny queues
#: are cheaper to drain than to rebuild).
_COMPACT_MIN_DEAD = 64


class EventQueue:
    """Lazy-deletion binary heap of ``(time, seq, event)`` entries."""

    __slots__ = ("skipped", "compactions", "_dead", "_heap")

    def __init__(self) -> None:
        #: Cancelled entries removed without dispatch (pop-time skips
        #: plus compaction sweeps).
        self.skipped = 0
        #: In-place rebuilds triggered by the >50%-dead threshold.
        self.compactions = 0
        #: Cancelled entries not yet removed (lazy deletion).
        self._dead = 0
        self._heap: list = []

    # -- accounting ----------------------------------------------------
    @property
    def size(self) -> int:
        """Entries currently stored, live plus dead."""
        return len(self._heap)

    @property
    def dead(self) -> int:
        """Cancelled entries awaiting lazy removal."""
        return self._dead

    @property
    def live(self) -> int:
        """Non-cancelled entries still queued."""
        return len(self._heap) - self._dead

    # -- operations ----------------------------------------------------
    def push(self, when: float, seq: int, event) -> None:
        heappush(self._heap, (when, seq, event))

    def pop(self, horizon: Optional[float] = None):
        """Remove and return the minimal live ``(time, seq, event)``
        entry, or ``None`` when no live entry remains (or the next one
        is past ``horizon``).  Cancelled entries crossed on the way are
        consumed and accounted as skipped."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2]._cancelled:
                heappop(heap)
                self._dead -= 1
                self.skipped += 1
                continue
            if horizon is not None and head[0] > horizon:
                return None
            return heappop(heap)
        return None

    def note_cancelled(self) -> None:
        """Account one freshly-cancelled entry; may trigger a sweep."""
        self._dead = dead = self._dead + 1
        heap = self._heap
        if dead >= _COMPACT_MIN_DEAD and dead * 2 > len(heap):
            # Rebuild in place: drop the dead entries, then re-heapify.
            old = len(heap)
            heap[:] = [e for e in heap if not e[2]._cancelled]
            heapify(heap)
            removed = old - len(heap)
            self.skipped += removed
            self._dead -= removed
            self.compactions += 1

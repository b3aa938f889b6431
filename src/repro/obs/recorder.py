"""Event recording: the bridge from the live bus to the exporters.

:class:`EventLog` is the canonical subscriber -- an append-only, ordered
record of every event it saw.  :class:`Recording` bundles a bus and a
log for the common "trace this run" case (the ``python -m repro trace``
subcommand is a thin wrapper around it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .bus import Instrument
from .events import EventKind, ObsEvent

__all__ = ["Span", "EventLog", "Recording"]


@dataclass(frozen=True, slots=True)
class Span:
    """A closed duration reconstructed from a begin/end event pair."""

    category: str
    name: str
    rank: int
    tid: int
    t0: float
    t1: float
    args: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class EventLog:
    """Append-only, emission-ordered event record.

    Parameters
    ----------
    bus:
        Bus to subscribe to (optional: a free-standing log can be fed
        via :meth:`append`, which is how unit tests use it).
    categories:
        Category filter passed to the subscription.
    max_events:
        Soft cap: events beyond it are counted in :attr:`dropped`
        instead of stored, bounding memory on runaway traces.  The cap
        is reported by the exporters, never silently.  Fixed at
        construction: an uncapped log subscribes its list's own
        ``append``, so recording an event runs no Python code.
    """

    def __init__(
        self,
        bus: Optional[Instrument] = None,
        categories: Optional[Iterable[str]] = None,
        max_events: Optional[int] = None,
    ):
        self.events: List[ObsEvent] = []
        self.dropped = 0
        self.max_events = max_events
        self._bus = bus
        self._sink = self.append if max_events is not None else self.events.append
        if bus is not None:
            bus.subscribe(self._sink, categories=categories)

    def append(self, event: ObsEvent) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self._sink)
            self._bus = None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def spans(self, strict: bool = False) -> List[Span]:
        """Pair ``SPAN_BEGIN``/``SPAN_END`` events into closed spans.

        Spans nest LIFO per ``(rank, tid)`` lane.  With ``strict=True``
        a mismatched end (wrong name, or end without begin) raises
        ``ValueError``; otherwise mismatches are skipped and unclosed
        begins are simply not reported.
        """
        stacks: Dict[Tuple[int, int], List[ObsEvent]] = {}
        out: List[Span] = []
        for ev in self.events:
            if ev.kind is EventKind.SPAN_BEGIN:
                stacks.setdefault((ev.rank, ev.tid), []).append(ev)
            elif ev.kind is EventKind.SPAN_END:
                stack = stacks.get((ev.rank, ev.tid))
                if not stack or stack[-1].name != ev.name:
                    if strict:
                        raise ValueError(
                            f"unbalanced span end {ev.category}/{ev.name} on "
                            f"lane r{ev.rank}t{ev.tid} at t={ev.ts}"
                        )
                    continue
                begin = stack.pop()
                out.append(
                    Span(
                        category=begin.category,
                        name=begin.name,
                        rank=begin.rank,
                        tid=begin.tid,
                        t0=begin.ts,
                        t1=ev.ts,
                        args=dict(begin.args) if begin.args else None,
                    )
                )
        if strict:
            open_spans = [ev for stack in stacks.values() for ev in stack]
            if open_spans:
                raise ValueError(f"{len(open_spans)} spans never closed")
        return out

    def counters(self) -> Dict[Tuple[str, str, int], List[Tuple[float, float]]]:
        """Counter series keyed ``(category, name, rank)`` as
        ``[(ts, value), ...]`` in emission order."""
        series: Dict[Tuple[str, str, int], List[Tuple[float, float]]] = {}
        for ev in self.events:
            if ev.kind is EventKind.COUNTER:
                series.setdefault((ev.category, ev.name, ev.rank), []).append(
                    (ev.ts, ev.value)
                )
        return series

    def instants(self, category: Optional[str] = None) -> List[ObsEvent]:
        return [
            ev for ev in self.events
            if ev.kind is EventKind.INSTANT
            and (category is None or ev.category == category)
        ]


#: Default category set traced by :class:`Recording` and the CLI: the
#: ``sim`` category (per-event dispatch / process wake) is opt-in
#: because its volume dwarfs everything else.
DEFAULT_TRACE_CATEGORIES = ("lock", "mpi", "net", "fault", "meta")


class Recording:
    """A bus plus a log, ready to hand to ``run(obs=...)``.

    >>> rec = Recording()
    >>> result = run_experiment("fig2b", obs=rec.bus)
    >>> rec.write_chrome_trace("trace.json")
    """

    def __init__(
        self,
        categories: Optional[Iterable[str]] = DEFAULT_TRACE_CATEGORIES,
        max_events: Optional[int] = None,
    ):
        self.bus = Instrument()
        self.log = EventLog(self.bus, categories=categories,
                            max_events=max_events)

    @property
    def events(self) -> List[ObsEvent]:
        return self.log.events

    def chrome_trace(self) -> dict:
        from .chrome import to_chrome_trace

        return to_chrome_trace(self.log.events, bus=self.bus,
                               dropped=self.log.dropped)

    def write_chrome_trace(self, path) -> None:
        from .chrome import write_chrome_trace

        write_chrome_trace(self.log.events, path, bus=self.bus,
                           dropped=self.log.dropped)

    def counters_dump(self) -> dict:
        from .summary import counters_dump

        return counters_dump(self.log.events)

    def summary(self) -> str:
        from .summary import summarize

        return summarize(self.log.events, dropped=self.log.dropped)

"""Chrome-trace (``chrome://tracing`` / Perfetto) JSON export.

The mapping is direct because the event model was designed for it:

* ``pid``  = MPI rank (one process group per rank),
* ``tid``  = simulated thread id (one lane per thread),
* ``ts``   = simulated clock in **microseconds** (Chrome's unit; the
  cost model works at nanosecond scale, so timestamps are fractional
  and ``displayTimeUnit`` is set to ``ns``),
* span begin/end -> ``B``/``E``, async -> ``b``/``e`` (matched by
  ``id``), counter -> ``C``, instant -> ``i``.

Open the output at ``chrome://tracing`` ("Load") or
https://ui.perfetto.dev -- one lane per simulated thread, lock
wait/hold and critical-section spans nested on the simulated timeline.
"""

from __future__ import annotations

import gc
import json
from typing import Iterable, List, Optional

from .bus import Instrument
from .events import ObsEvent

__all__ = ["chrome_trace_events", "to_chrome_trace", "write_chrome_trace"]

_S_TO_US = 1e6


def chrome_trace_events(events: Iterable[ObsEvent]) -> List[dict]:
    """Convert bus events to Chrome ``traceEvents`` dicts.

    The cyclic garbage collector is paused meanwhile: the records form
    no cycles, and a collection triggered by their allocation would
    only walk every live object, the event log included, to free
    nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _convert(events)
    finally:
        if enabled:
            gc.enable()


def _convert(events: Iterable[ObsEvent]) -> List[dict]:
    out: List[dict] = []
    append = out.append
    for kind, cat, name, ts, rank, tid, value, span_id, args in events:
        if cat == "meta":
            # Lane metadata travels in-band as instants; the exporter
            # turns it into Chrome "M" records.
            if name in ("thread_name", "process_name") and args:
                append({
                    "name": name,
                    "ph": "M",
                    "pid": rank,
                    "tid": tid,
                    "args": {"name": args.get("name", "")},
                })
            continue
        # The member's stored phase letter: a plain attribute read,
        # where ``kind.value`` is an Enum property call per event.
        ph = kind._value_
        rec = {
            "name": name,
            "cat": cat,
            "ph": ph,
            "ts": ts * _S_TO_US,
            "pid": rank,
            "tid": tid,
        }
        if ph == "C":
            rec["args"] = {"value": value}
        else:
            if args:
                rec["args"] = dict(args)
            if ph == "b" or ph == "e":
                rec["id"] = span_id
            elif ph == "i":
                rec["s"] = "t"  # thread-scoped instant
        append(rec)
    return out


def to_chrome_trace(
    events: Iterable[ObsEvent],
    bus: Optional[Instrument] = None,
    dropped: int = 0,
) -> dict:
    """Build the full Chrome trace document.

    ``bus`` contributes declared process/thread names as metadata
    records; ``dropped`` (events lost to an :class:`EventLog` cap) is
    recorded in ``otherData`` so truncation is never silent.
    """
    trace_events: List[dict] = []
    if bus is not None:
        for rank, name in sorted(bus.process_names.items()):
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": rank, "tid": 0,
                "args": {"name": name},
            })
        for (rank, tid), name in sorted(bus.thread_names.items()):
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": rank, "tid": tid,
                "args": {"name": name},
            })
    trace_events.extend(chrome_trace_events(events))
    doc = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.obs (MPI+Threads runtime-contention reproduction)",
            "clock": "simulated seconds, exported as microseconds",
        },
    }
    if dropped:
        doc["otherData"]["dropped_events"] = dropped
    return doc


def write_chrome_trace(
    events: Iterable[ObsEvent],
    path,
    bus: Optional[Instrument] = None,
    dropped: int = 0,
) -> None:
    doc = to_chrome_trace(events, bus=bus, dropped=dropped)
    with open(path, "w") as fh:
        json.dump(doc, fh)

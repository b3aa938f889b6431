"""The exporters, pinned by value on two small traced cells.

Recorded before the emit path was flattened: a digest of the Chrome
trace document as ``json.dumps`` writes it, digests of the counters
dump and the text summary, and the bus's per-category event counts.
A change to how events are built, routed, stored or exported must
leave every one of these unchanged.

Thread ids, packet sequence numbers, request ids and lock ids come
from process-wide counters.  Each cell restarts them so the pins do
not depend on what ran earlier in the process.
"""

import hashlib
import json
from itertools import count

import pytest

import repro.locks.base
import repro.machine.threads
import repro.mpi.request
import repro.network.message
from repro.obs import DEFAULT_TRACE_CATEGORIES, Recording
from repro.workloads.throughput import (
    ThroughputConfig,
    run_throughput,
    throughput_cluster,
)

#: cell -> (categories, cluster keywords)
CELLS = {
    "priority-per-vci:4-continuation": (
        DEFAULT_TRACE_CATEGORIES,
        dict(lock="priority", cs="per-vci:4", completion="continuation"),
    ),
    "mutex-global-poll-sim": (
        DEFAULT_TRACE_CATEGORIES + ("sim",),
        dict(lock="mutex", cs="global", completion="poll"),
    ),
}

#: cell -> (chrome trace, counters dump, summary) digests, bus.stats()
PINS = {
    "priority-per-vci:4-continuation": (
        ("7d2f68ecd7df20900522ef52c8acae25",
         "a291a57fc0a1937ac04315b8479ad83b",
         "2f2cdfddacd58e00be6403fbac1804a4"),
        {"events_emitted": {"lock": 8750, "mpi": 4769, "net": 1024},
         "total": 14543},
    ),
    "mutex-global-poll-sim": (
        ("7eaff422639e7b11cd4f7e931ea80365",
         "3282f80907f422075b394b5f6495f01b",
         "d069617bd1df14ef913563b6b4bb8d39"),
        {"events_emitted": {"sim": 3898, "lock": 4065, "mpi": 3640,
                            "net": 1024},
         "total": 12627},
    ),
}


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.fixture
def fresh_ids(monkeypatch):
    for mod, attr in (
        (repro.machine.threads, "_ids"),
        (repro.network.message, "_packet_seq"),
        (repro.mpi.request, "_req_seq"),
        (repro.locks.base, "_lock_ids"),
    ):
        monkeypatch.setattr(mod, attr, count())


@pytest.mark.parametrize("cell", list(CELLS))
def test_exports_pinned(cell, fresh_ids):
    categories, kw = CELLS[cell]
    rec = Recording(categories=categories)
    cl = throughput_cluster(threads_per_rank=4, seed=7, obs=rec.bus, **kw)
    run_throughput(cl, ThroughputConfig(msg_size=64, n_windows=1))
    digests = (
        _digest(json.dumps(rec.chrome_trace())),
        _digest(json.dumps(rec.counters_dump())),
        _digest(rec.summary()),
    )
    assert (digests, rec.bus.stats()) == PINS[cell]

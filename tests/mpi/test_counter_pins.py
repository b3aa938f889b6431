"""Rank and domain counters, pinned by value.

Recorded when every domain-scoped counter was still incremented twice
(once on ``RuntimeStats``, once on ``DomainStats``).  The rank-level
view is now summed from the domains, and must report the same keys, in
the same order, with the same values.

Each cell also pins the simulator's end state (``sim.now`` bit for bit
and ``sim.dispatched``), and the mutex/poll cell pins a digest of its
``sim`` event stream.  These were recorded while every simulated delay
was still a ``Timeout``: a process sleeping on a bare float delay must
dispatch the same number of queue entries and emit the same single
``sim``/``wake`` instant per wake, with no extra ``dispatch`` instant.
"""

import hashlib

import pytest

from repro.obs import Recording
from repro.workloads.throughput import (
    ThroughputConfig,
    run_throughput,
    throughput_cluster,
)

RANK_KEYS = (
    "sends_issued", "recvs_issued", "completed", "freed", "posted_hits",
    "unexpected_hits", "progress_polls", "empty_polls", "packets_handled",
    "cs_entries_main", "cs_entries_progress", "continuations_fired",
    "wasted_acquisitions_avoided", "cancelled", "stale_rndv_data",
)
DOMAIN_KEYS = (
    "cs_entries_main", "cs_entries_progress", "progress_polls",
    "empty_polls", "packets_handled", "posted_hits", "unexpected_hits",
    "completed", "freed", "dangling", "peak_dangling",
)
IDLE = (0,) * len(DOMAIN_KEYS)

# (lock, cs, completion) -> (sim.now.hex(), sim.dispatched)
SIM_PINS = {
    ("mutex", "global", "poll"): ("0x1.2bb34ca3e4903p-11", 12879),
    ("priority", "per-vci:4", "continuation"): ("0x1.ad726a8fccb4ep-12", 15519),
}

# (lock, cs, completion) -> per rank: (rank counters, [domain counters])
PINS = {
    ("mutex", "global", "poll"): [
        ((768, 0, 768, 768, 0, 0, 8, 8, 0, 780, 1, 8, 0, 0, 0),
         [(780, 1, 8, 8, 0, 0, 0, 768, 768, 0, 206)]),
        ((0, 768, 768, 768, 768, 0, 192, 0, 768, 780, 182, 425, 0, 0, 0),
         [(780, 182, 192, 0, 768, 768, 0, 768, 768, 0, 232)]),
    ],
    ("priority", "per-vci:4", "continuation"): [
        ((768, 0, 768, 768, 0, 0, 0, 0, 0, 780, 0, 13, 12, 0, 0),
         [IDLE, IDLE, IDLE, (780, 0, 0, 0, 0, 0, 0, 768, 768, 0, 256)]),
        ((0, 768, 768, 768, 764, 4, 193, 1, 768, 780, 193, 762, 0, 0, 0),
         [(780, 193, 193, 1, 768, 764, 4, 768, 768, 0, 256),
          IDLE, IDLE, IDLE]),
    ],
}


def _run(cell, obs=None):
    lock, cs, completion = cell
    cl = throughput_cluster(lock=lock, threads_per_rank=4, seed=7, cs=cs,
                            completion=completion, obs=obs)
    run_throughput(cl, ThroughputConfig(msg_size=64, n_windows=3))
    return cl


@pytest.mark.parametrize("cell", list(PINS), ids=lambda c: "-".join(c))
def test_counters_pinned(cell):
    cl = _run(cell)
    assert (cl.sim.now.hex(), cl.sim.dispatched) == SIM_PINS[cell]
    for rt, (rank_vals, dom_vals) in zip(cl.runtimes, PINS[cell]):
        assert list(rt.stats.as_dict().items()) == list(zip(RANK_KEYS, rank_vals))
        assert rt.domain_stats() == [dict(zip(DOMAIN_KEYS, v)) for v in dom_vals]


def test_sim_event_stream_pinned():
    """Every ``sim`` instant of the mutex/poll cell, in order: the
    ``wake`` of each process resume and the ``dispatch`` of each named
    event, with their simulated timestamps."""
    rec = Recording(categories=("sim",))
    _run(("mutex", "global", "poll"), obs=rec.bus)
    h = hashlib.blake2b(digest_size=16)
    for e in rec.events:
        args = sorted((e.args or {}).items())
        h.update(f"{e.kind.value}|{e.name}|{e.ts.hex()}|{args}\n".encode())
    names = [e.name for e in rec.events]
    assert (names.count("wake"), names.count("dispatch")) == (10853, 497)
    assert h.hexdigest() == "1c2a0a30adf243cddf5e1fe7e70317bf"

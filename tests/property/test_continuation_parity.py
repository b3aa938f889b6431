"""Differential property test: continuation mode vs polling mode.

The continuation-driven blocking calls (``completion="continuation"``)
replace the polling loop's spin with event-driven parking, so sim
*timestamps* legitimately differ between the modes -- but the order in
which requests complete, and the data they deliver, must be
bit-identical: both modes drain the same packet stream through the same
``_complete`` funnel.  The harness records the completion sequence via
sync continuations (pure bookkeeping, schedule-neutral by construction)
and compares the two modes over random message plans.

Sizes stay in the inline/eager regime: rendezvous transfers interleave
CTS round-trips with the receiver's progress schedule, so their
*completion order* across unrelated tags is a property of the wait
loop's poll timing, not of the completion core under test here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Cluster, ClusterConfig

#: Inline (<=512) and eager (<=16384) sizes: completion order is pinned
#: by arrival order, identical across completion modes.
SIZES = (64, 1024, 4096)


def _run(mode, sizes, seed):
    cl = Cluster(ClusterConfig(
        n_nodes=2, ranks_per_node=1, threads_per_rank=1,
        lock="ticket", seed=seed, completion=mode,
    ))
    t0, t1 = cl.thread(0), cl.thread(1)
    order = []

    def sender():
        reqs = []
        for tag, nbytes in enumerate(sizes):
            r = yield from t0.isend(1, nbytes, tag=tag, data=(tag, nbytes))
            reqs.append(r)
        yield from t0.waitall(reqs)

    def receiver():
        reqs = []
        for tag, nbytes in enumerate(sizes):
            r = yield from t1.irecv(source=0, nbytes=nbytes, tag=tag)
            r.attach_continuation(
                lambda req, tag=tag: order.append(
                    (tag, req.data, cl.sim.now)
                ),
                sync=True,
            )
            reqs.append(r)
        delivered = yield from t1.waitall(reqs)
        order.append(("delivered", tuple(delivered), cl.sim.now))

    cl.run_workload([sender(), receiver()])
    return order


_plan = dict(
    sizes=st.lists(st.sampled_from(SIZES), min_size=1, max_size=12),
    seed=st.integers(0, 999),
)


@given(**_plan)
@settings(max_examples=40, deadline=None)
def test_completion_order_matches_polling_mode(sizes, seed):
    poll = _run("poll", sizes, seed)
    cont = _run("continuation", sizes, seed)
    # Timestamps differ by design (parking vs spinning); the completion
    # sequence and every delivered payload must not.
    assert [o[:2] for o in cont] == [o[:2] for o in poll]


@given(**_plan)
@settings(max_examples=20, deadline=None)
def test_continuation_mode_is_deterministic(sizes, seed):
    # Same plan, same seed: bit-identical replay, timestamps included.
    a = _run("continuation", sizes, seed)
    b = _run("continuation", sizes, seed)
    assert a == b

"""Specification property tests for the event queue (hypothesis).

The harness drives the simulator through random schedule/cancel/run
interleavings -- nested scheduling from inside callbacks, same-timestamp
ties, horizon runs and cancel storms -- and checks the dispatch trace
against the queue's rules themselves:

* **order** -- dispatches come in non-decreasing ``(time, creation
  order)``, each at exactly its due time;
* **exactly once** -- every live timer fires once, no cancelled timer
  fires;
* **horizon-neutral** -- a run to a horizon dispatches exactly the
  events due at or before it, and a run split there gives the same
  trace as one uninterrupted run;
* **books balance** -- afterwards ``live + dead == size == 0``, and
  ``dispatched + skipped`` covers every scheduled timer, with Timeout
  pooling active (pooling must be schedule-neutral, not just
  allocation-neutral).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Simulator

NS = 1e-9

#: One root timer: (fire delay ns, cancel?, nested spawn count).
_op = st.tuples(
    st.integers(0, 400),
    st.booleans(),
    st.integers(0, 2),
)


def _run(plan, horizon_ns):
    """Run ``plan``; return the simulator, the dispatch trace of
    ``(time, creation index, due time, label)``, the trace length at the
    horizon, and the labels of the timers that were created and
    successfully cancelled."""
    sim = Simulator(seed=0)
    trace = []
    created = []
    cancelled = set()
    cancellers = []

    def schedule(label, delay, spawn):
        idx = len(created)
        created.append(label)
        due = sim.now + delay
        ev = sim.timeout(delay, name=str(label))
        ev.callbacks.append(fire(label, idx, due, spawn))
        return ev

    def cancel(label, ev):
        if ev.cancel():
            cancelled.add(label)

    def fire(label, idx, due, spawn):
        def cb(_ev):
            trace.append((sim.now, idx, due, label))
            # Nested scheduling from inside a dispatch, including
            # zero-delay events that join the current timestamp.
            for k in range(spawn):
                schedule((label, k), k * 7 * NS, 0)
            if spawn and cancellers:
                # Cancel a pending (or already fired) timer mid-run.
                cancel(*cancellers.pop())
        return cb

    for i, (delay, do_cancel, spawn) in enumerate(plan):
        ev = schedule(i, delay * NS, spawn)
        if do_cancel:
            cancellers.append((i, ev))
    # Half the cancellations happen up front, half from callbacks.
    for label, ev in cancellers[: len(cancellers) // 2]:
        cancel(label, ev)
    del cancellers[: len(cancellers) // 2]

    split = None
    if horizon_ns is not None:
        sim.run(until=horizon_ns * NS)
        split = len(trace)
        sim.run()
    else:
        sim.run()
    return sim, trace, split, created, cancelled


@given(
    plan=st.lists(_op, min_size=1, max_size=40),
    horizon_ns=st.none() | st.integers(0, 400),
)
@settings(max_examples=60, deadline=None)
def test_dispatch_follows_the_queue_rules(plan, horizon_ns):
    sim, trace, split, created, cancelled = _run(plan, horizon_ns)

    # Order: non-decreasing (time, creation order), each at its due time.
    keys = [(t, idx) for t, idx, _due, _label in trace]
    assert keys == sorted(keys)
    assert all(t == due for t, _idx, due, _label in trace)

    # Exactly once: every live timer fires once, no cancelled one fires.
    fired = [label for *_, label in trace]
    assert len(fired) == len(set(fired))
    assert set(fired) == set(created) - cancelled

    # Horizon-neutral: the first leg stops exactly at the horizon, and
    # splitting the run changes nothing.
    if horizon_ns is not None:
        horizon = horizon_ns * NS
        assert all(t <= horizon for t, *_ in trace[:split])
        assert all(t > horizon for t, *_ in trace[split:])
        whole = _run(plan, None)[1]
        assert trace == whole

    # Books balance under pooling.
    q = sim.queue
    assert q.live + q.dead == q.size == 0
    assert sim.queued_events == 0
    assert sim.dispatched == len(fired)
    assert sim.skipped == len(cancelled)
    assert sim.dispatched + sim.skipped == len(created)


@given(plan=st.lists(_op, min_size=5, max_size=40), seed=st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_pooling_is_schedule_neutral(plan, seed):
    """A run with the pool warm must dispatch identically to a cold one."""

    def run(warm):
        sim = Simulator(seed=seed)
        if warm:
            # Prime the free pool: dispatch-and-recycle a few timers.
            for _ in range(8):
                sim.timeout(1 * NS)
            sim.run()
        base = sim.now
        trace = []
        for i, (delay, _cancel, _spawn) in enumerate(plan):
            ev = sim.timeout(delay * NS, name=f"t{i}")
            ev.callbacks.append(
                lambda e, i=i: trace.append((i, round((sim.now - base) / NS)))
            )
        sim.run()
        return sim, trace

    sim_cold, trace_cold = run(False)
    sim_warm, trace_warm = run(True)
    assert trace_cold == trace_warm
    assert sim_warm.pool_hits > 0


# ----------------------------------------------------------------------
# Bare delays against Timeouts.
# ----------------------------------------------------------------------
#: One process: its sleeps in ns (ties and zero delays included).
_sleeps = st.lists(st.integers(0, 50), min_size=1, max_size=8)
#: One disturbance: (at ns, target process).
_poke = st.tuples(st.integers(0, 300), st.integers(0, 7))


def _run_sleepers(plan, pokes, bare):
    """Run ``plan``'s processes, every sleep spelled ``yield d`` when
    ``bare`` else ``yield sim.timeout(d)``; interrupts come from timers
    at the ``pokes`` times.  Returns the simulator and the
    ``(now, process, step)`` trace."""
    sim = Simulator(seed=0)
    trace = []

    def sleeper(i, sleeps):
        for k, d in enumerate(sleeps):
            try:
                yield d * NS if bare else sim.timeout(d * NS)
            except Interrupt:
                trace.append((sim.now, i, k, "interrupt"))
            trace.append((sim.now, i, k))

    procs = [sim.process(sleeper(i, s), name=f"p{i}")
             for i, s in enumerate(plan)]

    def poke(i):
        p = procs[i % len(procs)]
        if p.is_alive:
            p.interrupt(i)

    for at, i in pokes:
        sim.call_after(at * NS, poke, i)
    sim.run()
    return sim, trace


@given(
    plan=st.lists(_sleeps, min_size=1, max_size=6),
    pokes=st.lists(_poke, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_bare_delays_dispatch_like_timeouts(plan, pokes):
    """A bare delay is the Timeout it replaces, minus the object: the
    same resumes at the same times in the same order, the same number
    of dispatched queue entries, and balanced books, under interrupts
    (stale sleeps)."""
    sim_t, trace_t = _run_sleepers(plan, pokes, bare=False)
    sim_b, trace_b = _run_sleepers(plan, pokes, bare=True)
    assert trace_b == trace_t
    assert sim_b.dispatched == sim_t.dispatched
    assert sim_b.now == sim_t.now
    for sim in (sim_t, sim_b):
        q = sim.queue
        assert q.dead == 0 and q.live + q.dead == q.size == 0

"""Unit tests for the simulator's event queue (repro.sim.equeue) and the
engine loop that drains it: ``(time, seq)`` order, lazy-deletion books,
horizon and early stops, ``step``, Timeout pooling, and the sync
primitives' handling of cancelled waiters.
"""

import pytest

from repro.sim import EventQueue, SimulationError, Simulator
from repro.sim.sync import Mailbox, SimSemaphore


class _Ev:
    """Bare queue payload: the queue only reads ``_cancelled``."""

    _cancelled = False


def test_simulator_ctor_is_kw_only():
    with pytest.raises(TypeError):
        Simulator(7)  # simlint: disable=all


def test_stats_shape():
    sim = Simulator()
    sim.timeout(1e-9)
    assert (sim.queued_events, sim.dead_events, sim.heap_size,
            sim.skipped, sim.compactions) == (1, 0, 1, 0, 0)


# ----------------------------------------------------------------------
# Dispatch order
# ----------------------------------------------------------------------

def _dispatch_order(delays):
    sim = Simulator()
    log = []
    for i, d in enumerate(delays):
        ev = sim.timeout(d, name=f"t{i}")
        ev.callbacks.append(lambda e: log.append(e.name))
    sim.run()
    return log


def test_ties_dispatch_in_creation_order():
    # Duplicate timestamps and reversed pushes: time first, then seq.
    delays = [5e-9, 0.0, 1e-9, 1e-9, 0.999e-9, 1.001e-9, 0.0, 3.5e-9]
    assert _dispatch_order(delays) == [
        "t1", "t6", "t4", "t2", "t3", "t5", "t7", "t0",
    ]


def test_zero_delay_chain_keeps_seq_order():
    sim = Simulator()
    log = []

    def chain(e):
        log.append(e.name)
        if len(log) < 6:
            nxt = sim.timeout(0.0, name=f"z{len(log)}")
            nxt.callbacks.append(chain)

    for i in range(3):
        sim.timeout(0.0, name=f"a{i}").callbacks.append(chain)
    sim.run()
    # Events created by a callback join the tie behind every older one.
    assert log == ["a0", "a1", "a2", "z1", "z2", "z3", "z4", "z5"]
    assert sim.now == 0.0


def test_far_future_event_fires_last():
    sim = Simulator()
    fired = []
    sim.call_after(10.0, fired.append, "far")
    sim.call_after(1e-9, fired.append, "near")
    sim.run()
    assert fired == ["near", "far"]
    assert sim.now == pytest.approx(10.0)


def test_pop_honours_horizon_and_skips_dead():
    q = EventQueue()
    dead, a, b = _Ev(), _Ev(), _Ev()
    dead._cancelled = True
    q.push(1e-9, 0, dead)
    q.note_cancelled()
    q.push(2e-9, 1, a)
    q.push(3e-9, 2, b)
    # The dead head is consumed on the way, even when the horizon stops
    # the pop at the next live entry.
    assert q.pop(horizon=1.5e-9) is None
    assert q.skipped == 1 and q.dead == 0 and q.size == 2
    assert q.pop(horizon=2e-9) == (2e-9, 1, a)
    assert q.pop() == (3e-9, 2, b)
    assert q.pop() is None


# ----------------------------------------------------------------------
# Cancellation books
# ----------------------------------------------------------------------

def test_cancel_storm_books_balance():
    sim = Simulator()
    evs = [sim.timeout(i * 1e-9) for i in range(256)]
    for ev in evs[::2]:
        assert ev.cancel()
    q = sim.queue
    assert q.live + q.dead == q.size
    sim.run()
    assert sim.dispatched == 128
    assert sim.skipped == 128
    assert sim.dead_events == 0
    assert sim.queued_events == 0


def test_compaction_sweeps_dead_entries():
    sim = Simulator()
    evs = [sim.timeout(i * 1e-9) for i in range(256)]
    for ev in evs[:130]:
        ev.cancel()
    # The sweep fires at the 129th cancel (dead*2 > size); the 130th
    # then sits as fresh dead weight awaiting the next trigger.
    assert sim.compactions == 1
    assert sim.heap_size == 127
    assert sim.dead_events == 1
    assert sim.skipped == 129


def test_horizon_run_stops_short():
    sim = Simulator()
    fired = []
    sim.call_after(1e-9, fired.append, "early")
    sim.call_after(1.0, fired.append, "late")
    sim.run(until=0.5)
    assert fired == ["early"]
    assert sim.now == 0.5
    assert sim.queued_events == 1
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_event_deadlock():
    sim = Simulator()
    stop = sim.event(name="never")
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=stop)


def test_stop_mid_tie_leaves_rest_queued():
    sim = Simulator()
    log = []
    a = sim.timeout(0.0, name="a")
    a.callbacks.append(lambda e: log.append("a"))
    stop = sim.event(name="stop")
    stop.succeed()
    b = sim.timeout(0.0, name="b")
    b.callbacks.append(lambda e: log.append("b"))
    c = sim.timeout(0.0, name="c")
    c.callbacks.append(lambda e: log.append("c"))
    sim.run(until=stop)
    # a and the stop event dispatched; b and c are still queued and run
    # next, in seq order.
    assert log == ["a"]
    assert sim.queued_events == 2
    assert sim.dispatched == 2
    sim.run()
    assert log == ["a", "b", "c"]


def test_cancelled_tie_sibling_is_skipped():
    sim = Simulator()
    fired = []
    first = sim.timeout(0.0, name="first")
    victim = sim.timeout(0.0, name="victim")
    survivor = sim.timeout(0.0, name="survivor")
    first.callbacks.append(lambda e: victim.cancel())
    victim.callbacks.append(lambda e: fired.append("victim"))
    survivor.callbacks.append(lambda e: fired.append("survivor"))
    sim.run()
    assert fired == ["survivor"]
    assert sim.dispatched == 2
    assert sim.skipped == 1
    q = sim.queue
    assert q.live + q.dead == q.size == 0


def test_queued_events_counts_tie_siblings():
    # The progress watchdog's idle check runs inside callbacks; an
    # undispatched same-timestamp sibling must still count as queued.
    sim = Simulator()
    seen = []
    a = sim.timeout(0.0, name="a")
    a.callbacks.append(lambda e: seen.append(sim.queued_events))
    b = sim.timeout(0.0, name="b")
    b.callbacks.append(lambda e: seen.append(sim.queued_events))
    sim.run()
    assert seen == [1, 0]


def test_step_dispatches_one_event_of_a_tie():
    sim = Simulator()
    log = []
    for name in ("x", "y"):
        ev = sim.timeout(0.0, name=name)
        ev.callbacks.append(lambda e: log.append(e.name))
    sim.step()
    assert log == ["x"]
    assert sim.queued_events == 1
    sim.step()
    assert log == ["x", "y"]
    with pytest.raises(IndexError):
        sim.step()


# ----------------------------------------------------------------------
# Timeout pooling
# ----------------------------------------------------------------------

def test_pool_recycles_unreferenced_timeouts():
    sim = Simulator()
    done = []

    def chain(n):
        def cb(_ev):
            if n:
                sim.timeout(1e-9).callbacks.append(chain(n - 1))
            else:
                done.append(True)
        return cb

    sim.timeout(1e-9).callbacks.append(chain(50))
    sim.run()
    assert done == [True]
    assert sim.pool_hits > 0


def test_pooled_timeout_rejects_negative_delay():
    sim = Simulator()
    sim.timeout(1e-9)
    sim.run()  # leaves a pooled Timeout behind
    with pytest.raises(ValueError):
        sim.timeout(-1e-9)


# ----------------------------------------------------------------------
# sync primitives vs cancelled waiters
# ----------------------------------------------------------------------

def test_semaphore_release_skips_cancelled_waiter():
    sim = Simulator()
    sem = SimSemaphore(sim, value=1, name="s")
    assert sem.acquire().triggered
    dead = sem.acquire()
    live = sem.acquire()
    dead.cancel()
    sem.release()
    assert live.triggered  # permit skipped the cancelled waiter
    sem.release()
    assert sem.value == 1  # no waiters left: permit returns to the pool


def test_mailbox_put_skips_cancelled_getter():
    sim = Simulator()
    box = Mailbox(sim, name="m")
    dead = box.get()
    live = box.get()
    dead.cancel()
    box.put("payload")
    assert live.triggered and live.value == "payload"
    box.put("queued")
    assert len(box) == 1  # no live getters: the item is stored, not lost

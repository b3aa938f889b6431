"""Unit tests for the discrete-event simulation core."""

import math

import pytest

from repro.obs import Recording
from repro.sim import Event, Interrupt, SimulationError, Simulator, Timeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(1e-6)
        seen.append(sim.now)
        yield sim.timeout(2e-6)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [pytest.approx(1e-6), pytest.approx(3e-6)]


def test_timeout_value_delivery():
    sim = Simulator()
    out = {}

    def proc():
        out["v"] = yield sim.timeout(1e-9, value="payload")

    sim.process(proc())
    sim.run()
    assert out["v"] == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


@pytest.mark.parametrize("pooled", [False, True])
def test_nan_delay_rejected(pooled):
    # A NaN key compares false both ways and breaks (time, seq) order
    # (a NaN timer would run before a 1 ns one), on either the pooled
    # or the allocating path.
    sim = Simulator()
    if pooled:
        sim.timeout(1e-9)
        sim.run()  # leaves a pooled Timeout behind
    with pytest.raises(ValueError, match="NaN"):
        sim.timeout(float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        sim.call_after(float("nan"), print)
    assert sim.queued_events == 0


def test_run_until_time():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, fired.append, "a")
    sim.call_after(3.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    sim.run(until=4.0)
    assert fired == ["a", "b"]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_nan_raises():
    sim = Simulator()
    sim.call_after(1.0, print)
    with pytest.raises(ValueError, match="NaN"):
        sim.run(until=float("nan"))
    assert sim.now == 0.0
    assert sim.queued_events == 1


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1e-3)
        return 42

    p = sim.process(proc())
    assert sim.run(until=p) == 42
    assert sim.now == pytest.approx(1e-3)


def test_process_waits_on_process():
    sim = Simulator()
    order = []

    def child():
        yield sim.timeout(5e-6)
        order.append("child")
        return "res"

    def parent():
        res = yield sim.process(child())
        order.append("parent")
        assert res == "res"

    sim.process(parent())
    sim.run()
    assert order == ["child", "parent"]


def test_event_succeed_resumes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield sim.timeout(1.0)
        ev.succeed("x")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert got == ["x"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_fail_throws_into_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    def firer():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("dead")

    sim.process(bad())
    with pytest.raises(SimulationError, match="dead"):
        sim.run()


def test_deadlock_detected_when_waiting_on_event():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never fires

    p = sim.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=p)


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42  # simlint: disable=yield-discipline (the point of this test)

    sim.process(bad())
    with pytest.raises(SimulationError, match="only Event"):
        sim.run()


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_after(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_any_of_fires_on_first():
    sim = Simulator()
    out = {}

    def proc():
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(2.0, value="slow")
        out["res"] = yield sim.any_of([t1, t2])
        out["t"] = sim.now

    sim.process(proc())
    sim.run()
    assert list(out["res"].values()) == ["fast"]
    assert out["t"] == pytest.approx(1.0)


def test_all_of_waits_for_every_event():
    sim = Simulator()
    out = {}

    def proc():
        evs = [sim.timeout(float(i), value=i) for i in (1, 3, 2)]
        res = yield sim.all_of(evs)
        out["vals"] = sorted(res.values())
        out["t"] = sim.now

    sim.process(proc())
    sim.run()
    assert out["vals"] == [1, 2, 3]
    assert out["t"] == pytest.approx(3.0)


def test_empty_conditions_fire_immediately():
    sim = Simulator()
    out = []

    def proc():
        yield sim.all_of([])
        yield sim.any_of([])
        out.append(sim.now)

    sim.process(proc())
    sim.run()
    assert out == [0.0]


def test_interrupt_delivers_cause():
    sim = Simulator()
    caught = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Exception as e:
            caught.append(e.cause)
            yield sim.timeout(1.0)

    v = sim.process(victim())

    def killer():
        yield sim.timeout(1.0)
        v.interrupt("reason")

    sim.process(killer())
    sim.run()
    assert caught == ["reason"]


def test_interrupt_terminated_process_raises():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_process_return_value_via_event():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return {"k": 1}

    p = sim.process(worker())
    sim.run()
    assert p.value == {"k": 1}
    assert p.ok


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_rng_streams_deterministic():
    a = Simulator(seed=7).rng.stream("x").random(5)
    b = Simulator(seed=7).rng.stream("x").random(5)
    c = Simulator(seed=8).rng.stream("x").random(5)
    assert (a == b).all()
    assert not (a == c).all()


def test_rng_streams_independent_by_name():
    sim = Simulator(seed=7)
    a = sim.rng.stream("x").random(5)
    b = sim.rng.stream("y").random(5)
    assert not (a == b).all()


def test_call_after_returns_cancellable_handle():
    sim = Simulator()
    fired = []
    handle = sim.call_after(1.0, fired.append, "x")
    assert handle.cancel()
    sim.run()
    assert fired == []


# ----------------------------------------------------------------------
# Bare delays: a process may yield a computed non-negative float.
# ----------------------------------------------------------------------
S = 1.0  # one simulated second
NS = 1e-9
def _sleeper_run(spell):
    """One named process sleeping 1 s, 0 s and 2 s, spelled either as
    Timeouts or as bare delays; returns what an observer can see."""
    sim = Simulator()
    rec = Recording(categories=("sim",))
    rec.bus.bind_sim(sim)
    seen = []

    def wait(d):
        return sim.timeout(d) if spell == "timeout" else d

    def sleeper():
        for d in (1.0, 0.0, 2.0):
            seen.append((yield wait(d)))
            seen.append(sim.now)
        return "done"

    p = sim.process(sleeper(), name="sleeper")
    assert sim.run(until=p) == "done"
    sim.run()
    events = [(e.name, e.ts, sorted((e.args or {}).items()))
              for e in rec.events]
    return seen, events, sim.dispatched, sim.queue.size


def test_bare_delay_is_observably_a_timeout():
    # Same resumes, same values, same dispatch count, and the same
    # single sim/wake instant per wake with no extra dispatch instant.
    assert _sleeper_run("bare") == _sleeper_run("timeout")
    seen, events, _, _ = _sleeper_run("bare")
    assert seen == [None, 1.0, None, 1.0, None, 3.0]
    # init, four resumes (three wakes and the start), completion.
    assert [name for name, _, _ in events] == (
        ["dispatch"] + ["wake"] * 4 + ["dispatch"]
    )


def test_bare_delay_allocates_no_timeout(monkeypatch):
    made = []
    init = Timeout.__init__
    monkeypatch.setattr(
        Timeout, "__init__", lambda self, *a, **k: made.append(init(self, *a, **k))
    )
    sim = Simulator()

    def sleeper():
        for _ in range(3):
            yield NS

    sim.process(sleeper())
    sim.run()
    assert made == [] and sim.pool_hits == 0
    assert sim.dispatched == 5  # init, three wakes, completion


def test_bare_delay_dispatches_through_step():
    sim = Simulator()
    seen = []

    def sleeper():
        yield 2 * S
        seen.append(sim.now)

    sim.process(sleeper())
    sim.step()  # init: the process starts and sleeps
    assert seen == [] and sim.queued_events == 1
    sim.step()  # the wake
    assert seen == [2.0] and sim.queued_events == 1  # its completion
    sim.step()
    with pytest.raises(IndexError):
        sim.step()


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, -math.inf])
def test_negative_or_nan_delay_raises_at_the_yield(bad):
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield bad
        except ValueError as e:
            caught.append((sim.now, str(e)))
        yield S

    sim.process(proc())
    sim.run()
    assert len(caught) == 1
    assert caught[0][0] == 0.0 and "negative or NaN" in caught[0][1]
    assert sim.now == 1.0 and sim.queue.size == 0


@pytest.mark.parametrize("bad", [1, 0, True, "1e-9"])
def test_non_float_delay_raises_type_error(bad):
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield bad
        except TypeError as e:
            caught.append(str(e))

    sim.process(proc())
    sim.run()
    assert len(caught) == 1 and "only Event" in caught[0]
    assert sim.now == 0.0


def test_interrupt_during_bare_delay_is_delivered_once():
    """The interrupted sleep's queue entry goes stale: it never resumes
    the process, not even once the process sleeps again."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield 10 * S
            log.append(("woke", sim.now))
        except Interrupt as e:
            log.append(("interrupt", sim.now, e.cause))
        yield 20 * S  # still asleep when the stale t=10 entry comes up
        log.append(("woke", sim.now))
        yield 5 * S
        log.append(("woke", sim.now))

    v = sim.process(victim())
    sim.call_after(1.0, v.interrupt, "why")
    sim.run()
    assert log == [("interrupt", 1.0, "why"), ("woke", 21.0), ("woke", 26.0)]
    q = sim.queue
    assert q.live + q.dead == q.size == 0


@pytest.mark.parametrize("spell", ["timeout", "bare"])
def test_cancel_on_a_sleeping_process_keeps_the_books(spell):
    """A process cannot be cancelled: ``cancel()`` raises, names
    ``interrupt()``, and changes nothing.  The sleeper still wakes,
    whichever way it spelled its sleep, then triggers and runs its
    waiter, and no queue entry is counted dead."""
    sim = Simulator()
    log = []

    def sleeper():
        yield sim.timeout(5.0) if spell == "timeout" else 5.0
        log.append(sim.now)

    p = sim.process(sleeper())
    waiter_ran = []
    p.callbacks.append(waiter_ran.append)
    sim.run(until=1.0)
    with pytest.raises(TypeError, match=r"interrupt\(\)"):
        p.cancel()
    assert not p.cancelled and sim.dead_events == 0
    sim.run()
    assert log == [5.0] and waiter_ran == [p]
    assert not p.is_alive
    q = sim.queue
    assert q.dead == 0 and q.live + q.dead == q.size == 0
    assert sim.skipped == 0 and sim.dispatched == 3

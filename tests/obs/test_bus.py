"""Unit tests for the Instrument bus and the EventLog recorder."""

import pytest

from repro.obs import (
    CATEGORIES,
    EventKind,
    EventLog,
    Instrument,
    ObsEvent,
    Recording,
)


def test_disabled_bus_emits_nothing():
    bus = Instrument()
    assert not bus.enabled
    assert not bus.wants("lock")
    bus.span_begin("lock", "x")  # no subscriber: must be a no-op
    assert bus.stats()["total"] == 0


def test_category_filtering():
    seen = []
    bus = Instrument()
    bus.subscribe(seen.append, categories=("lock",))
    assert bus.wants("lock") and not bus.wants("net")
    bus.instant("lock", "grant")
    bus.instant("net", "ignored")
    assert [e.name for e in seen] == ["grant"]


def test_unsubscribe_disables():
    seen = []
    bus = Instrument()
    bus.subscribe(seen.append)
    bus.instant("sim", "a")
    bus.unsubscribe(seen.append)
    bus.instant("sim", "b")
    assert [e.name for e in seen] == ["a"]
    assert not bus.enabled


def test_span_context_manager_pairs_begin_end():
    log = EventLog()
    bus = Instrument()
    bus.subscribe(log.append)
    with bus.span("mpi", "cs.main", rank=0, tid=3):
        bus.counter("mpi", "depth", 1, rank=0)
    kinds = [ev.kind for ev in log]
    assert kinds == [EventKind.SPAN_BEGIN, EventKind.COUNTER, EventKind.SPAN_END]
    spans = log.spans(strict=True)
    assert len(spans) == 1
    assert spans[0].name == "cs.main" and spans[0].tid == 3


def test_span_nesting_lifo_per_lane():
    """Nested spans on one lane pair LIFO; lanes don't interfere."""
    log = EventLog()
    bus = Instrument()
    bus.subscribe(log.append)
    bus.span_begin("lock", "hold", rank=0, tid=1)
    bus.span_begin("mpi", "cs.main", rank=0, tid=1)
    bus.span_begin("lock", "wait", rank=0, tid=2)  # other lane
    bus.span_end("mpi", "cs.main", rank=0, tid=1)
    bus.span_end("lock", "hold", rank=0, tid=1)
    bus.span_end("lock", "wait", rank=0, tid=2)
    spans = log.spans(strict=True)
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"hold", "cs.main", "wait"}
    inner, outer = by_name["cs.main"], by_name["hold"]
    assert outer.t0 <= inner.t0 and inner.t1 <= outer.t1


def test_unbalanced_span_strict_raises():
    log = EventLog()
    bus = Instrument()
    bus.subscribe(log.append)
    bus.span_begin("lock", "hold", rank=0, tid=1)
    with pytest.raises(ValueError):
        log.spans(strict=True)
    assert log.spans(strict=False) == []


def test_event_log_max_events_counts_drops():
    log = EventLog(max_events=2)
    for i in range(5):
        log.append(ObsEvent(kind=EventKind.INSTANT, category="sim",
                            name=f"e{i}", ts=float(i)))
    assert len(log) == 2
    assert log.dropped == 3


def test_bus_clock_follows_bound_sim():
    from repro.sim import Simulator

    sim = Simulator()
    bus = Instrument()
    bus.bind_sim(sim)
    assert sim.obs is bus
    seen = []
    bus.subscribe(seen.append)
    sim.call_after(2.5, lambda: bus.instant("meta", "tick"))
    sim.run()
    assert seen[-1].ts == 2.5


def test_counter_monotonicity_packets_handled():
    """mpi/packets_handled is a cumulative counter: never decreases."""
    from repro.workloads import ThroughputConfig, run_throughput, throughput_cluster

    rec = Recording(categories=("mpi",))
    cl = throughput_cluster(lock="ticket", threads_per_rank=2, seed=3,
                            obs=rec.bus)
    run_throughput(cl, ThroughputConfig(msg_size=8, n_windows=2))
    series = rec.log.counters()
    key = next(k for k in series if k[1] == "packets_handled")
    values = [v for _ts, v in series[key]]
    assert values, "no packets_handled samples recorded"
    assert all(b >= a for a, b in zip(values, values[1:]))
    ts = [t for t, _v in series[key]]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_emitted_stats_by_category():
    rec = Recording()
    from repro.workloads import ThroughputConfig, run_throughput, throughput_cluster

    cl = throughput_cluster(lock="mutex", threads_per_rank=2, seed=3,
                            obs=rec.bus)
    run_throughput(cl, ThroughputConfig(msg_size=8, n_windows=2))
    stats = rec.bus.stats()
    assert stats["total"] > 0
    for cat in ("lock", "mpi", "net"):
        assert stats["events_emitted"].get(cat, 0) > 0, cat
        assert cat in CATEGORIES


# ----------------------------------------------------------------------
# Routing: the per-category subscriber cache
# ----------------------------------------------------------------------

def _tagged(seen, tag):
    return lambda ev: seen.append((tag, ev.name))


def test_route_cache_follows_subscribe_and_unsubscribe():
    """A subscriber added or removed between two emissions of the same
    (already routed) category is seen by the next one."""
    seen = []
    bus = Instrument()
    a = bus.subscribe(_tagged(seen, "a"), categories=("lock",))
    bus.instant("lock", "1")
    b = bus.subscribe(_tagged(seen, "b"))
    bus.instant("lock", "2")
    bus.unsubscribe(a)
    bus.instant("lock", "3")
    bus.unsubscribe(b)
    bus.instant("lock", "4")
    assert seen == [("a", "1"), ("a", "2"), ("b", "2"), ("b", "3")]
    assert bus.stats()["events_emitted"] == {"lock": 3}


def test_filtered_and_unfiltered_subscribers_in_subscription_order():
    seen = []
    bus = Instrument()
    bus.subscribe(_tagged(seen, "all1"))
    bus.subscribe(_tagged(seen, "lock"), categories=("lock",))
    bus.subscribe(_tagged(seen, "all2"))
    bus.subscribe(_tagged(seen, "net+lock"), categories=("net", "lock"))
    for cat in ("lock", "net", "mpi"):
        bus.instant(cat, cat)
    assert seen == [
        ("all1", "lock"), ("lock", "lock"), ("all2", "lock"),
        ("net+lock", "lock"),
        ("all1", "net"), ("all2", "net"), ("net+lock", "net"),
        ("all1", "mpi"), ("all2", "mpi"),
    ]


def test_wants_tracks_the_subscriber_set():
    bus = Instrument()
    assert not bus.wants("lock") and not bus.wants("net")
    lock_only = bus.subscribe(lambda ev: None, categories=("lock",))
    assert bus.wants("lock") and not bus.wants("net")
    everything = bus.subscribe(lambda ev: None)
    assert bus.wants("net") and bus.wants("mpi")
    bus.unsubscribe(everything)
    assert bus.wants("lock") and not bus.wants("net")
    bus.unsubscribe(lock_only)
    assert not bus.wants("lock") and not bus.enabled


def test_capped_log_on_a_bus_counts_drops():
    rec = Recording(max_events=3)
    for i in range(5):
        rec.bus.instant("lock", f"e{i}")
    assert [ev.name for ev in rec.events] == ["e0", "e1", "e2"]
    assert rec.log.dropped == 2
    assert rec.bus.stats()["total"] == 5


def test_uncapped_log_detaches():
    rec = Recording()
    rec.bus.instant("lock", "kept")
    rec.log.detach()
    rec.bus.instant("lock", "unseen")
    assert [ev.name for ev in rec.events] == ["kept"]
    assert not rec.bus.enabled


def test_public_emit_counts_and_delivers():
    bus = Instrument()
    ev = ObsEvent(EventKind.INSTANT, "lock", "x", 1.0)
    bus.emit(ev)  # nobody listening: counted, delivered to no one
    seen = []
    bus.subscribe(seen.append, categories=("lock",))
    bus.emit(ev)
    bus.emit(ev._replace(category="net"))
    assert seen == [ev]
    assert bus.stats() == {"events_emitted": {"lock": 2, "net": 1},
                           "total": 3}


# ----------------------------------------------------------------------
# The record type
# ----------------------------------------------------------------------

def test_obs_event_is_an_immutable_value():
    ev = ObsEvent(kind=EventKind.COUNTER, category="mpi", name="depth",
                  ts=2.0, rank=1, value=3.0)
    with pytest.raises(AttributeError):
        ev.ts = 0.0
    assert ev == ObsEvent(EventKind.COUNTER, "mpi", "depth", 2.0, 1, -1, 3.0)
    assert ev != ev._replace(value=4.0)
    assert hash(ev) == hash(ObsEvent(EventKind.COUNTER, "mpi", "depth", 2.0,
                                     rank=1, value=3.0))
    assert ev.key == ("mpi", "depth", 1, -1)
    assert ObsEvent._fields == ("kind", "category", "name", "ts", "rank",
                                "tid", "value", "span_id", "args")
    bare = ObsEvent(EventKind.INSTANT, "sim", "wake", 0.5)
    assert (bare.rank, bare.tid, bare.value, bare.span_id, bare.args) == (
        -1, -1, None, None, None)
    assert repr(bare) == "<ObsEvent i sim/wake t=0.500000000 r-1t-1>"
    assert repr(ev) == "<ObsEvent C mpi/depth t=2.000000000 r1t-1 value=3.0>"

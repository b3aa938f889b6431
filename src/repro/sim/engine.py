"""The discrete-event simulator core.

:class:`Simulator` owns the simulated clock and an
:class:`~repro.sim.equeue.EventQueue` holding the pending events.  All
behaviour in the reproduction -- threads contending on locks, the MPI
progress engine, network packet delivery -- is expressed as processes and
events scheduled here.  Time is a ``float`` in **seconds**; the calibrated
cost model works at nanosecond scale (1e-9).

Events dispatch in ``(time, seq)`` order: same-timestamp events run in
creation order.  The run loop pops one event at a time, and dispatched
:class:`Timeout` objects are recycled through a small free pool when
provably unreferenced.  A process that yields a bare ``float`` delay
queues its own wake handle instead of a Timeout (:meth:`Simulator._sleep`);
the run loop resumes the process directly when that entry comes up.

Cancelled events (:meth:`~repro.sim.events.Event.cancel`) are deleted
*lazily*: the queue entry stays where it is, is skipped at pop time
without being dispatched, and a compaction sweep rebuilds the queue in
place once more than half of it is dead.  Skipping is schedule-neutral
-- live events dispatch at exactly the times and in exactly the order
they would have without any cancellations.
"""

from __future__ import annotations

from itertools import count
from sys import getrefcount as _getrefcount
from typing import Any, Callable, Generator, Optional

from .equeue import _COMPACT_MIN_DEAD as _COMPACT_MIN_DEAD  # re-export, tests
from .equeue import EventQueue
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process, _Wake
from .rng import RngStreams

__all__ = ["Simulator", "SimulationError", "EventQueue"]

#: Free-pool cap: enough to absorb the working set of in-flight timers
#: in the macro workloads without pinning unbounded garbage.
_POOL_MAX = 512

#: A dispatched Timeout reachable only from the queue entry, the loop
#: local and the getrefcount argument itself is provably dropped by all
#: user code and safe to recycle.
_POOL_REFS = 3


class SimulationError(RuntimeError):
    """Raised when a process dies with an unhandled exception."""


class Simulator:
    """Event queue + clock + factory for events and processes.

    Construction is keyword-only.

    Parameters
    ----------
    seed:
        Master seed for the named RNG streams (see :class:`RngStreams`).
        Two simulators constructed with the same seed and driven by the
        same (deterministic) model produce bit-identical traces.
    """

    def __init__(self, *, seed: int = 0):
        self.now: float = 0.0
        self.queue = EventQueue()
        #: Bound ``queue.push``, cached: scheduling happens several times
        #: per dispatched event, and the queue never changes after
        #: construction.
        self._push = self.queue.push
        self._seq = count()
        self._crashed: list = []
        self.rng = RngStreams(seed)
        #: Observability bus (:class:`repro.obs.Instrument`) or None.
        #: Every component holding a ``sim`` reference emits through
        #: this single attach point; ``None`` means instrumentation is
        #: disabled and costs one attribute check.
        self.obs = None
        #: Live events dispatched (popped and their callbacks run).
        self.dispatched = 0
        #: Timeout objects served from the free pool instead of being
        #: allocated (see the pooling notes in DESIGN.md section 9).
        self.pool_hits = 0
        self._pool: list = []

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires after ``delay`` seconds.

        Served from the free pool when possible: a recycled Timeout is
        indistinguishable from a fresh one (same ``(time, seq)`` key
        allocation, reset state), so pooling is schedule-neutral.
        A negative or NaN ``delay`` raises ``ValueError``.
        """
        pool = self._pool
        if pool and delay >= 0.0:
            ev = pool.pop()
            ev.name = name
            ev.delay = delay
            ev._value = value
            ev._triggered = False
            self._push(self.now + delay, next(self._seq), ev)
            self.pool_hits += 1
            return ev
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a new process driving ``gen``."""
        return Process(self, gen, name=name)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def call_after(self, delay: float, fn: Callable, *args) -> Timeout:
        """Run ``fn(*args)`` after ``delay`` seconds from now (plain
        callback).  The argument is a *relative* delay, not an absolute
        time -- schedule at an absolute ``t`` with
        ``call_after(t - sim.now, ...)``.

        Returns the underlying :class:`Timeout` as a cancellable handle:
        ``handle.cancel()`` guarantees ``fn`` never runs (a no-op if the
        timer already fired)."""
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: fn(*args))
        return ev

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        self._push(self.now + delay, next(self._seq), event)

    def _sleep(self, process: Process, delay: float) -> None:
        """Queue ``process`` to resume ``delay`` seconds from now.

        The seq is drawn here, at the yield, which is exactly where a
        ``yield sim.timeout(delay)`` would have drawn it, so a bare delay
        keeps the ``(time, seq)`` order of the Timeout it replaces."""
        process._wake_seq = seq = next(self._seq)
        self._push(self.now + delay, seq, process._wake)

    def _note_cancelled(self) -> None:
        self.queue.note_cancelled()

    def _crash(self, process: Process, exc: BaseException) -> None:
        self._crashed.append((process, exc))

    def _raise_crash(self) -> None:
        process, exc = self._crashed.pop()
        raise SimulationError(
            f"process {process.name!r} died at t={self.now:.9f}s: {exc!r}"
        ) from exc

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Dispatch the next live event, skipping cancelled entries.
        Raises IndexError if no live event remains in the queue."""
        entry = self.queue.pop()
        if entry is None:
            raise IndexError("step on an empty event queue")
        when, seq, event = entry
        self.now = when
        self.dispatched += 1
        if event.__class__ is _Wake:
            process = event.process
            if process._wake_seq == seq:
                process._resume(event)
        else:
            obs = self.obs
            if obs is not None and event.name and obs.wants("sim"):
                obs.instant("sim", "dispatch", args={"event": event.name})
            event._process()
        if self._crashed:
            self._raise_crash()

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``   -- run until no live event remains in the queue.
            ``float``  -- run until the clock reaches this time.
            ``Event``  -- run until this event has been processed and
            return its value (raising if it failed).

        All forms share one inlined loop popping one event at a time --
        this is the simulator's hot path.
        """
        stop: Optional[Event] = None
        horizon: Optional[float] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is not None:
                    # Register interest so a failing process delivers
                    # its exception here rather than crashing the loop.
                    stop.add_callback(_consume)
            else:
                horizon = float(until)
                if not horizon >= self.now:
                    # Also rejects NaN, which would leave now == nan.
                    raise ValueError(
                        f"cannot run until {horizon}: before now "
                        f"({self.now}) or NaN"
                    )

        pop = self.queue.pop
        pool = self._pool
        pool_append = pool.append
        getrc = _getrefcount
        wake = _Wake

        while stop is None or stop.callbacks is not None:
            entry = pop(horizon)
            if entry is None:
                if stop is not None:
                    raise SimulationError(
                        f"simulation ran out of events before {stop!r} "
                        f"fired (deadlock?)"
                    )
                if horizon is not None:
                    self.now = horizon
                return None
            self.now = entry[0]
            event = entry[2]
            self.dispatched += 1
            if event.__class__ is wake:
                # A bare-delay sleep ending: resume the process unless a
                # later sleep (after an interrupt) superseded this one.
                process = event.process
                if process._wake_seq == entry[1]:
                    process._resume(event)
                    if self._crashed:
                        self._raise_crash()
                continue
            obs = self.obs
            if obs is not None and event.name and obs.wants("sim"):
                obs.instant("sim", "dispatch", args={"event": event.name})
            event._triggered = True
            callbacks = event.callbacks
            event.callbacks = None
            for cb in callbacks:
                cb(event)
            if self._crashed:
                self._raise_crash()
            if (
                type(event) is Timeout
                and getrc(event) == _POOL_REFS
                and len(pool) < _POOL_MAX
            ):
                callbacks.clear()
                event.callbacks = callbacks
                pool_append(event)

        if not stop.ok:
            stop._defused = True
            raise stop.value
        return stop.value

    # ------------------------------------------------------------------
    # Queue accounting, delegated to the queue's books.
    # ------------------------------------------------------------------
    @property
    def queued_events(self) -> int:
        """Number of *live* (non-cancelled) events still pending."""
        return self.queue.live

    @property
    def dead_events(self) -> int:
        """Cancelled queue entries awaiting lazy removal."""
        return self.queue.dead

    @property
    def heap_size(self) -> int:
        """Raw queue length, live plus dead."""
        return self.queue.size

    @property
    def skipped(self) -> int:
        """Cancelled entries removed without dispatch."""
        return self.queue.skipped

    @property
    def compactions(self) -> int:
        """In-place queue rebuilds triggered by the >50%-dead threshold."""
        return self.queue.compactions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self.now:.9f}s queued={self.queued_events} "
            f"dead={self.queue.dead}>"
        )


def _consume(_event) -> None:
    """Stop-event sentinel callback (see Simulator.run(until=Event))."""

"""Generator-based simulated processes.

A :class:`Process` drives a Python generator.  Every object the generator
yields must be an :class:`~repro.sim.events.Event` (a :class:`Process` is
one), or a computed non-negative ``float`` delay:

* On an event, the process suspends until the event fires and is resumed
  with the event's value (or the event's exception is thrown into it).
* On a delay ``d``, the process sleeps: the engine queues the process's
  wake handle at ``(now + d, seq)``, drawing ``seq`` where
  ``sim.timeout(d)`` would have drawn it, and resumes it with ``None``.
  No event object is created, so ``yield d`` is the cheap spelling of
  ``yield sim.timeout(d)`` whenever the timeout is not kept.

A process is itself an event that fires with the generator's return
value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Generator

from .events import Event

__all__ = ["Process", "Interrupt"]


class _Wake:
    """A sleeping process's entry in the event queue.

    One per process, made once.  The queue and the dispatch loop read it
    like a succeeded, unnamed event (``_cancelled``, ``name``, ``_ok``,
    ``_value``), and ``Process._resume`` takes it as the event woken on.
    It is not the process itself: the process's own completion entry
    must stay an ordinary event.
    """

    __slots__ = ("process",)

    _cancelled = False
    name = ""
    _ok = True
    _value = None

    def __init__(self, process: "Process"):
        self.process = process


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self):
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator and schedules it on the simulator.

    The process starts at the simulation time current when it is created
    (it is scheduled with zero delay, so creation never runs user code
    synchronously).
    """

    __slots__ = ("_gen", "_waiting_on", "_wake", "_wake_seq")

    def __init__(self, sim, gen: Generator, name: str = ""):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(f"Process expects a generator, got {type(gen).__name__}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Event | _Wake | None = None
        self._wake = _Wake(self)
        #: Queue seq of the current sleep.  A wake entry carrying any
        #: other seq is stale (its sleep was interrupted) and is dropped.
        self._wake_seq = -1
        # Kick off via an initialization event so user code always runs
        # from the event loop.
        init = Event(sim, name=f"init:{self.name}")
        init.add_callback(self._resume)
        init.succeed()

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def cancel(self) -> bool:
        """Not supported: a process is stopped with :meth:`interrupt`.

        Cancelling it as an event would drop its waiters but not its
        generator, and leave it never triggering: alive forever."""
        raise TypeError(
            f"cannot cancel process {self.name!r}: use interrupt() to stop it"
        )

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        ev = Event(self.sim, name=f"interrupt:{self.name}")
        # Detach from whatever we were waiting on; the stale callback
        # becomes a no-op because _resume checks identity (a stale wake
        # entry is also dropped by the dispatch loop's seq check).
        ev.add_callback(self._resume_interrupt)
        ev._value = Interrupt(cause)
        ev._ok = False
        ev._defused = True
        self.sim._schedule(ev, 0.0)
        ev._scheduled = True

    # ------------------------------------------------------------------
    def _resume(self, event: "Event | _Wake") -> None:
        # The per-event wake path: every dispatched event with a waiting
        # process, and every wake from a bare delay, funnels through
        # here, so attribute loads are hoisted and the common send/park
        # tail stays branch-lean.
        if self._triggered:
            return
        if event is not self._waiting_on and self._waiting_on is not None:
            # Stale wakeup from an event we stopped waiting on (interrupt).
            return
        self._waiting_on = None
        sim = self.sim
        obs = sim.obs
        if obs is not None and obs.wants("sim"):
            obs.instant("sim", "wake", args={"process": self.name})
        if event._ok:
            to_throw: BaseException | None = None
        else:
            to_throw = event._value
            event._defused = True
        send = self._gen.send
        while True:
            try:
                if to_throw is None:
                    target = send(event._value)
                else:
                    target = self._gen.throw(to_throw)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                if not self.callbacks:
                    # Nobody is waiting on this process: surface in run().
                    sim._crash(self, exc)
                    self._value = exc
                    self._ok = False
                    self._triggered = True
                    sim._schedule(self, 0.0)
                    return
                self.fail(exc)
                return

            if target.__class__ is not float:
                if isinstance(target, Event):
                    if target.sim is sim:
                        break
                    to_throw = ValueError(
                        f"process {self.name!r} yielded an event from a "
                        f"different simulator"
                    )
                    continue
                if not isinstance(target, float):
                    # Deliver the misuse as an exception at the
                    # offending yield.
                    to_throw = TypeError(
                        f"process {self.name!r} yielded {target!r}; only "
                        f"Event instances or float delays may be yielded"
                    )
                    continue
            if target >= 0.0:
                # A bare delay: sleep without creating an event.
                self._waiting_on = self._wake
                sim._sleep(self, target)
                return
            # Also rejects NaN, which would break the (time, seq) order.
            to_throw = ValueError(
                f"process {self.name!r} yielded a negative or NaN delay "
                f"{target!r}"
            )
        self._waiting_on = target
        # Inlined add_callback: on this path the target is known live
        # far more often than processed, and never needs the cancelled
        # no-op (parking on a cancelled event is still a park).
        cbs = target.callbacks
        if cbs is None:
            self._resume(target)
        elif not target._cancelled:
            cbs.append(self._resume)

    def _resume_interrupt(self, event: Event) -> None:
        # Interrupt delivery: bypass the identity check on _waiting_on.
        if self.triggered:
            return
        self._waiting_on = event
        self._resume(event)

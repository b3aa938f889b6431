"""Host-speed normalisation: a fixed reference workload sampled while the
simulator runs.

The benchmark's host is shared: the same execution of the same code can
take twice as long a minute later, or for a few hundred milliseconds,
because a neighbour is busy.  :class:`Sampler` measures how fast the
host is during an execution.  Every ``INTERVAL_S`` of wall time a
``SIGALRM`` handler runs a tick of a small reference workload and times
it.  The reference workload is a discrete-event loop written in this
file -- generator processes, a ``heapq`` event queue, slotted event
objects, a FIFO lock and dict lookups, the kinds of work the simulator
does -- so a host slowdown slows it about as much as it slows the
simulator.  It never imports ``repro``: a change to the simulator cannot
change what a tick costs.

The normalised time of an execution is its host time without the ticks,
divided by the mean tick and multiplied by ``REFERENCE_TICK_S``: the
host seconds the same work takes on a host that runs a tick in
``REFERENCE_TICK_S``.  See README.md, "Host-speed normalisation".

Everything runs in the one host thread: Python runs the handler in the
main thread between two bytecodes, so it never runs concurrently with
the simulator and touches none of its state.
"""

from __future__ import annotations

import heapq
import signal
import time

__all__ = ["INTERVAL_S", "REFERENCE_TICK_S", "Sampler"]

#: Wall seconds between two ticks.
INTERVAL_S = 0.010
#: Seconds one tick took on the reference host (2-vCPU KVM guest, Intel
#: Xeon at 2.0 GHz, CPython 3, in a quiet phase).  Fixed once, so every
#: later change to the simulator is measured against the same yardstick.
REFERENCE_TICK_S = 0.0012

#: Simulated processes and steps per process in one tick (about 1.2 ms,
#: so the ticks take about 12% of the wall time; sparser ticks sampled
#: the host's speed less well).
_PROCS = 8
_STEPS = 20


class _Event:
    __slots__ = ("t", "seq", "proc", "value")

    def __init__(self, t, seq, proc, value):
        self.t = t
        self.seq = seq
        self.proc = proc
        self.value = value

    def __lt__(self, other):
        return (self.t, self.seq) < (other.t, other.seq)


class _Lock:
    __slots__ = ("owner", "waiters", "grants")

    def __init__(self):
        self.owner = None
        self.waiters = []
        self.grants = 0


def _proc(pid, lock, table):
    """A simulated thread: compute, take the lock, touch shared state,
    release it."""
    for step in range(_STEPS):
        yield ("delay", 1 + (pid * 7 + step * 13) % 29)
        yield ("acquire", lock)
        key = (pid * 31 + step) % 97
        table[key] = table.get(key, 0) + step
        yield ("release", lock)


def _tick() -> int:
    """One run of the reference workload; the number of lock grants."""
    lock = _Lock()
    table: dict = {}
    queue: list = []
    seq = 0
    for pid in range(_PROCS):
        heapq.heappush(queue, _Event(0, seq, _proc(pid, lock, table), None))
        seq += 1
    while queue:
        ev = heapq.heappop(queue)
        try:
            op, arg = ev.proc.send(ev.value)
        except StopIteration:
            continue
        seq += 1
        if op == "delay":
            heapq.heappush(queue, _Event(ev.t + arg, seq, ev.proc, None))
        elif op == "acquire":
            if arg.owner is None:
                arg.owner = ev.proc
                arg.grants += 1
                heapq.heappush(queue, _Event(ev.t, seq, ev.proc, None))
            else:
                arg.waiters.append(ev.proc)
        else:
            nxt = arg.waiters.pop(0) if arg.waiters else None
            arg.owner = nxt
            if nxt is not None:
                arg.grants += 1
                heapq.heappush(queue, _Event(ev.t + 1, seq, nxt, None))
            heapq.heappush(queue, _Event(ev.t, seq, ev.proc, None))
    return lock.grants


class Sampler:
    """Context manager that times its block and samples host speed
    during it.

    After the block, ``host_s`` is the block's wall time without the
    ticks, ``ticks`` the number of ticks and ``norm_s`` the normalised
    time.  A block shorter than one interval gets one tick after it, so
    ``norm_s`` is always defined.
    """

    def __init__(self):
        self.ticks = 0
        self.tick_s = 0.0
        self.host_s = 0.0
        self.norm_s = 0.0
        self._t0 = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        grants = _tick()
        self.tick_s += time.perf_counter() - t0
        self.ticks += 1
        if grants != _PROCS * _STEPS:
            raise RuntimeError(f"calibration tick granted {grants} locks, "
                               f"expected {_PROCS * _STEPS}")

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.host_s = elapsed - self.tick_s
        if not self.ticks:
            self._on_alarm(signal.SIGALRM, None)
        self.norm_s = self.host_s / (self.tick_s / self.ticks) * REFERENCE_TICK_S

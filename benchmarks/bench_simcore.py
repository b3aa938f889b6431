"""Sim-core benchmark: what first-class cancellation buys the hot path.

Four scenarios, each reporting wall-clock and the engine's own dispatch
accounting (``Simulator.dispatched`` / ``.skipped`` / ``.compactions``):

* ``retransmit-1pct`` -- engine-level model of the reliability layer's
  timer pattern at 1% drop: every packet arms a retransmit timer; the
  delivery (99% of sends) cancels it, a drop lets it fire and retransmit.
  ``savings`` is the fraction of would-be dispatches eliminated --
  every *skipped* entry is a dead timer the old fire-and-filter
  generation-token scheme popped, dispatched, and discarded by hand.
  The acceptance gate lives here: savings must be >= 20%.
* ``hot-loop`` -- chained timeouts across a few processes: raw dispatch
  throughput (events/sec) of the inlined run loop, no cancellation.
* ``hot-loop-delay`` -- the same chain, each process yielding bare float
  delays instead of Timeouts: the sleep path with no event object.
* ``chaos-macro`` -- the fig_chaos configuration end to end (2 ranks x
  4 threads, 1% internode drop, ACK/retransmit on): the same accounting
  on a real cluster run, where dead retransmit timers ride alongside all
  the lock/progress/fabric events.

The results are committed at ``results/BENCH_simcore.json`` so the perf
trajectory is tracked; CI runs ``--quick`` under a wall-clock budget::

    PYTHONPATH=src python benchmarks/bench_simcore.py [--quick] [--budget S]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.faults import FaultPlan
from repro.mpi import Cluster, ClusterConfig
from repro.sim import Simulator
from repro.workloads import ThroughputConfig, run_throughput

RESULTS = pathlib.Path(__file__).parent / "results" / "BENCH_simcore.json"

#: Acceptance gate: dead-timer dispatches eliminated on the retransmit
#: scenario, as a fraction of what the fire-and-filter scheme dispatched.
MIN_SAVINGS = 0.20


def _account(sim: Simulator) -> dict:
    would_have = sim.dispatched + sim.skipped
    return {
        "dispatched": sim.dispatched,
        "skipped": sim.skipped,
        "compactions": sim.compactions,
        "savings": round(sim.skipped / would_have, 4) if would_have else 0.0,
    }


def bench_retransmit(n_msgs: int, drop: float = 0.01, seed: int = 1) -> dict:
    """The 1%-drop retransmit pattern, modeled at the engine level.

    Per send attempt: one retransmit timer (RTO) plus, unless the copy is
    dropped, one delivery event that cancels the timer.  Mirrors
    ``ReliabilityLayer.track``/``on_ack`` without the MPI machinery, so
    the numbers isolate the event queue."""
    sim = Simulator(seed=seed)
    rng = sim.rng.stream("faults")
    rto = 15_000e-9
    wire = 4_000e-9
    gap = 100e-9
    delivered = [0]
    retransmits = [0]

    def send(i: int, attempt: int) -> None:
        if attempt:
            retransmits[0] += 1
        timer = sim.call_after(rto, send, i, attempt + 1)
        if rng.random() >= drop:
            def deliver(t=timer):
                delivered[0] += 1
                t.cancel()
            sim.call_after(wire, deliver)

    for i in range(n_msgs):
        sim.call_after(i * gap, send, i, 0)
    t0 = time.perf_counter()  # simlint: disable=wall-clock
    sim.run()
    wall = time.perf_counter() - t0  # simlint: disable=wall-clock
    return {
        "mode": "retransmit-1pct",
        "n_msgs": n_msgs,
        "drop": drop,
        "delivered": delivered[0],
        "retransmits": retransmits[0],
        "wall_s": round(wall, 4),
        "events_per_sec": round(sim.dispatched / wall),
        **_account(sim),
    }


def bench_hotloop(n_events: int, bare: bool = False, seed: int = 0) -> dict:
    """Raw dispatch throughput: chained sleeps, zero cancellations.  Each
    sleep is a Timeout, or a bare delay when ``bare``."""
    sim = Simulator(seed=seed)
    n_procs = 4
    per_proc = n_events // n_procs

    def looper():
        dt = 10e-9
        for _ in range(per_proc):
            yield dt if bare else sim.timeout(dt)

    for _ in range(n_procs):
        sim.process(looper())
    t0 = time.perf_counter()  # simlint: disable=wall-clock
    sim.run()
    wall = time.perf_counter() - t0  # simlint: disable=wall-clock
    return {
        "mode": "hot-loop-delay" if bare else "hot-loop",
        "n_procs": n_procs,
        "wall_s": round(wall, 4),
        "events_per_sec": round(sim.dispatched / wall),
        **_account(sim),
    }


def bench_chaos(quick: bool, seed: int = 1) -> dict:
    """The fig_chaos configuration end to end, with engine accounting."""
    cl = Cluster(ClusterConfig(
        n_nodes=2, threads_per_rank=4, lock="ticket", seed=seed,
        faults=FaultPlan(drop=0.01), reliability=True,
    ))
    cfg = ThroughputConfig(msg_size=1024, window=32,
                           n_windows=4 if quick else 16)
    t0 = time.perf_counter()  # simlint: disable=wall-clock
    res = run_throughput(cl, cfg)
    wall = time.perf_counter() - t0  # simlint: disable=wall-clock
    retx = sum(rt.rel_stats.retransmits for rt in cl.runtimes)
    return {
        "mode": "chaos-macro",
        "threads_per_rank": 4,
        "msg_rate_k": round(res.msg_rate_k, 1),
        "retransmits": retx,
        "wall_s": round(wall, 4),
        "events_per_sec": round(cl.sim.dispatched / wall),
        **_account(cl.sim),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized runs (same scenarios, smaller N)")
    ap.add_argument("--budget", type=float, default=120.0,
                    help="wall-clock budget in seconds for the whole run")
    args = ap.parse_args(argv)

    n_retransmit = 20_000 if args.quick else 150_000
    n_hotloop = 40_000 if args.quick else 400_000

    t0 = time.perf_counter()  # simlint: disable=wall-clock
    rows = [
        bench_retransmit(n_retransmit),
        bench_hotloop(n_hotloop),
        bench_hotloop(n_hotloop, bare=True),
        bench_chaos(args.quick),
    ]
    total_wall = time.perf_counter() - t0  # simlint: disable=wall-clock

    payload = {
        "bench": "sim-core dispatch: cancellation + hot-path accounting",
        "quick": args.quick,
        "budget_s": args.budget,
        "total_wall_s": round(total_wall, 4),
        "min_savings": MIN_SAVINGS,
        "rows": rows,
    }
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"{'mode':>18} {'dispatched':>11} {'skipped':>9} "
          f"{'savings':>8} {'compact':>8} {'ev/s':>10} {'wall_s':>8}")
    for r in rows:
        print(f"{r['mode']:>18} {r['dispatched']:>11} "
              f"{r['skipped']:>9} {r['savings']:>8.1%} {r['compactions']:>8} "
              f"{r['events_per_sec']:>10} {r['wall_s']:>8.3f}")
    print(f"written to {RESULTS}")

    ok = True
    savings = rows[0]["savings"]
    if savings < MIN_SAVINGS:
        print(f"FAIL: retransmit-1pct savings {savings:.1%} < {MIN_SAVINGS:.0%}")
        ok = False
    else:
        print(f"ok: retransmit-1pct eliminates {savings:.1%} of dispatches "
              f"(gate: >= {MIN_SAVINGS:.0%})")
    if total_wall > args.budget:
        print(f"FAIL: wall {total_wall:.1f}s over budget {args.budget:.0f}s")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

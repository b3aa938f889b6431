"""Ablation benches for the design choices called out in DESIGN.md 5.

These vary one cost-model knob at a time and verify the mechanism behind
each reproduced effect responds in the expected direction.
"""

from __future__ import annotations

import pathlib

from repro.analysis import compute_bias_factors, format_table
from repro.machine import CostModel
from repro.mpi import Cluster, ClusterConfig
from repro.workloads import (
    LatencyConfig,
    N2NConfig,
    ThroughputConfig,
    run_latency,
    run_n2n,
    run_throughput,
    throughput_cluster,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _emit(name: str, table: str) -> None:
    print("\n" + table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")


def test_ablation_numa_free_machine_removes_socket_bias(benchmark):
    """On a hypothetical uniform-memory machine (all proximity classes
    cost the same) the mutex's socket-level bias collapses towards 1 --
    the Fig. 3a bias really is a NUMA effect, not a lock artifact."""

    def run():
        out = []
        for label, cm in (
            ("NUMA (default)", CostModel()),
            ("uniform", CostModel(
                atomic_ns=(45.0, 45.0, 45.0),
                handoff_ns=(40.0, 40.0, 40.0),
                contention_remote_factor=1.0,
            )),
        ):
            # Average over a few seeds: bias estimates are noisy.
            biases = []
            for seed in (1, 2, 3):
                cl = throughput_cluster(lock="mutex", threads_per_rank=8,
                                        seed=seed, costs=cm, trace_locks=True)
                run_throughput(cl, ThroughputConfig(msg_size=512, n_windows=4))
                biases.append(compute_bias_factors(cl.lock_traces[1]).socket_bias)
            out.append((label, sum(biases) / len(biases)))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit("ablation_numa_free", format_table(
        ["machine", "socket bias (avg of 3 seeds)"],
        [[label, f"{b:.2f}"] for label, b in rows],
        title="[ablation] socket-level bias: NUMA vs uniform machine",
    ))
    biases = dict(rows)
    assert biases["NUMA (default)"] > biases["uniform"]


def test_ablation_futex_wake_latency_drives_monopolization(benchmark):
    """A slower futex wake strengthens the barging window and worsens
    mutex throughput (the 2.2 mechanism)."""

    def run():
        out = []
        for wake_ns in (400.0, 3200.0, 12000.0):
            cm = CostModel(futex_wake_ns=wake_ns)
            cl = throughput_cluster(lock="mutex", threads_per_rank=8,
                                    seed=1, costs=cm)
            res = run_throughput(cl, ThroughputConfig(msg_size=8, n_windows=4))
            out.append((wake_ns, res.msg_rate_k, res.dangling.mean))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit("ablation_futex_wake", format_table(
        ["futex wake (ns)", "rate (k/s)", "dangling"],
        [[w, f"{r:.0f}", f"{d:.1f}"] for w, r, d in rows],
        title="[ablation] futex wake latency vs mutex throughput",
    ))
    assert rows[0][1] > rows[-1][1], "slower wake should reduce throughput"


def test_ablation_eager_threshold_moves_latency_crossover(benchmark):
    """Fig. 8b's crossover (multithreaded beating single-threaded) sits
    near the rendezvous threshold: shrinking the eager window moves the
    benefit to smaller messages."""

    size = 32768

    def run():
        out = []
        for eager in (1024, 16384, 262144):
            mt = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=8,
                                       lock="ticket", seed=1,
                                       eager_threshold=eager))
            st = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1,
                                       lock="null", seed=1,
                                       eager_threshold=eager))
            l_mt = run_latency(mt, LatencyConfig(msg_size=size, n_iters=20))
            l_st = run_latency(st, LatencyConfig(msg_size=size, n_iters=20))
            out.append((eager, l_mt.latency_us, l_st.latency_us))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit("ablation_eager_threshold", format_table(
        ["eager threshold", "MT latency (us)", "single latency (us)"],
        [[e, f"{a:.2f}", f"{b:.2f}"] for e, a, b in rows],
        title=f"[ablation] eager threshold at {size}-byte messages",
    ))
    # With the message under the eager threshold the MT advantage shrinks
    # or reverses relative to the rendezvous case.
    mt_gain_rndv = rows[0][2] / rows[0][1]     # size > eager: rendezvous
    mt_gain_eager = rows[-1][2] / rows[-1][1]  # size < eager: eager
    assert mt_gain_rndv > mt_gain_eager


def test_ablation_unexpected_copy_cost(benchmark):
    """The unexpected-queue penalty scales the mutex's N2N losses."""

    def run():
        out = []
        for factor in (1.0, 4.0):
            cm = CostModel(progress_batch=1, unexpected_copy_factor=factor)
            rates = {}
            for lock in ("mutex", "ticket"):
                cl = Cluster(ClusterConfig(n_nodes=4, threads_per_rank=4,
                                           lock=lock, seed=1, costs=cm))
                res = run_n2n(cl, N2NConfig(msg_size=4096, window=8,
                                            n_windows=2, style="rounds"))
                rates[lock] = res.msg_rate_k
            out.append((factor, rates["mutex"], rates["ticket"]))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit("ablation_unexpected_copy", format_table(
        ["unexpected copy factor", "mutex (k/s)", "ticket (k/s)"],
        [[f, f"{m:.0f}", f"{t:.0f}"] for f, m, t in rows],
        title="[ablation] unexpected-copy cost vs N2N rates",
    ))
    # The mutex (which drives messages unexpected) suffers more from a
    # costlier unexpected path.
    mutex_drop = rows[0][1] / rows[1][1]
    ticket_drop = rows[0][2] / rows[1][2]
    assert mutex_drop > ticket_drop


def test_ablation_progress_batch(benchmark):
    """Coarser progress batches amortize poll overhead but lengthen CS
    holds; throughput responds."""

    def run():
        out = []
        for batch in (1, 4, 16):
            cm = CostModel(progress_batch=batch)
            cl = throughput_cluster(lock="ticket", threads_per_rank=8,
                                    seed=1, costs=cm)
            res = run_throughput(cl, ThroughputConfig(msg_size=256, n_windows=4))
            out.append((batch, res.msg_rate_k))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit("ablation_progress_batch", format_table(
        ["progress batch", "rate (k/s)"],
        [[b, f"{r:.0f}"] for b, r in rows],
        title="[ablation] progress-poll batch size (ticket, 8 threads)",
    ))
    assert all(r > 0 for _, r in rows)


def test_ablation_event_driven_wakeup(benchmark):
    """Paper 9 future work: selective wake-up on message arrival.

    Parking blocked waiters on arrival/completion events eliminates the
    wasted lock acquisitions of the polling progress loop (empty polls
    drop to ~zero under the mutex) at equal throughput; the price is a
    wake-up latency on sparse paths (visible in the RMA rate).
    """

    def run():
        out = {}
        cm = CostModel(progress_batch=1)
        for ed in (False, True):
            cl = Cluster(ClusterConfig(n_nodes=4, threads_per_rank=8,
                                       lock="mutex", seed=2, costs=cm,
                                       completion="event" if ed else "poll"))
            res = run_n2n(cl, N2NConfig(msg_size=1024, window=8,
                                        n_windows=2, style="rounds"))
            s = cl.runtimes[0].stats
            out[ed] = (res.msg_rate_k, s.cs_entries_progress, s.empty_polls)
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit("ablation_event_driven", format_table(
        ["wait mode", "rate (k/s)", "progress CS entries", "empty polls"],
        [["polling", f"{rows[False][0]:.0f}", rows[False][1], rows[False][2]],
         ["event-driven", f"{rows[True][0]:.0f}", rows[True][1], rows[True][2]]],
        title="[ablation] event-driven wake-up (mutex, poll-heavy N2N)",
    ))
    # Wasted work collapses...
    assert rows[True][2] < 0.2 * max(1, rows[False][2])
    # ... without losing throughput.
    assert rows[True][0] > 0.9 * rows[False][0]


def test_ablation_granularity_arbitration_synergy(benchmark):
    """Paper 7: granularity and arbitration are orthogonal and combine.

    "Brief" critical sections (payload copies outside the lock) help
    every arbitration method, and fair arbitration still helps on top --
    the synergistic effect the paper predicts for combining the two.
    """

    def run():
        out = {}
        for lock in ("mutex", "ticket"):
            for gran in ("global", "brief"):
                cl = Cluster(ClusterConfig(
                    n_nodes=2, threads_per_rank=8, lock=lock, seed=1,
                    cs_granularity=gran))
                res = run_throughput(cl, ThroughputConfig(
                    msg_size=4096, n_windows=4))
                out[(lock, gran)] = res.msg_rate_k
        return out

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit("ablation_granularity", format_table(
        ["lock", "global CS", "brief CS", "brief/global"],
        [[lk, f"{rates[(lk, 'global')]:.0f}", f"{rates[(lk, 'brief')]:.0f}",
          f"{rates[(lk, 'brief')] / rates[(lk, 'global')]:.2f}x"]
         for lk in ("mutex", "ticket")],
        title="[ablation] CS granularity x arbitration (4 KiB msgs, 8 threads)",
    ))
    # Granularity helps both methods...
    assert rates[("mutex", "brief")] > 1.5 * rates[("mutex", "global")]
    assert rates[("ticket", "brief")] > 1.5 * rates[("ticket", "global")]
    # ... and fair arbitration still helps on top of brief sections.
    assert rates[("ticket", "brief")] > rates[("mutex", "brief")]


def test_ablation_socket_aware_lock_starves(benchmark):
    """The 7-discussion socket-aware variant: lower hand-off cost, but
    one socket can capture the lock -- measured as acquisition imbalance
    vs the plain ticket lock on the same workload."""

    from repro.locks import LockTrace, make_lock
    from repro.machine import NS, ThreadCtx, nehalem_node, scatter_binding
    from repro.sim import Simulator

    def run():
        out = []
        for kind in ("ticket", "socket"):
            s = Simulator(seed=3)
            machine = nehalem_node()
            trace = LockTrace()
            lock = make_lock(kind, s, CostModel())
            lock.on_grant.append(trace.record_grant)
            cores = scatter_binding(machine, 4)

            def worker(ctx):
                while s.now < 150e-6:
                    yield from lock.acquire(ctx)
                    yield s.timeout(200 * NS)
                    extra = lock.release(ctx)
                    yield s.timeout(10 * NS + extra)

            for i, c in enumerate(cores):
                s.process(worker(ThreadCtx(c, name=f"t{i}")))
            s.run()
            per_socket = {0: 0, 1: 0}
            arrays = trace.as_arrays()
            for sock, n in zip(arrays["sockets"], [1] * len(trace)):
                per_socket[int(sock)] += n
            lo, hi = sorted(per_socket.values())
            out.append((kind, hi / max(1, lo)))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit("ablation_socket_aware", format_table(
        ["lock", "socket acquisition imbalance"],
        [[k, f"{r:.1f}x"] for k, r in rows],
        title="[ablation] socket-aware lock captures one socket",
    ))
    ratios = dict(rows)
    assert ratios["socket"] > 3 * ratios["ticket"]

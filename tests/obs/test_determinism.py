"""Tracing must not perturb the simulation.

The bus only *reads* the simulated clock -- it never schedules events,
yields, or consumes random numbers -- so a run with a bus attached must
be bit-identical (simulated clock and results) to the same run without
one.  These tests pin that invariant, plus the output of the two lock-grant
observers on a real run.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.bias import BiasFactors, compute_bias_factors
from repro.analysis.dangling import DanglingProfiler
from repro.experiments import run_experiment
from repro.obs import Recording
from repro.workloads import ThroughputConfig, run_throughput, throughput_cluster


def _run(tpn, obs=None, **overrides):
    """One fig2a-size cell: mutex throughput at `tpn` threads/rank."""
    cl = throughput_cluster(lock="mutex", threads_per_rank=tpn, seed=7,
                            obs=obs, **overrides)
    res = run_throughput(cl, ThroughputConfig(msg_size=64, n_windows=3))
    return cl, res


@pytest.mark.parametrize("tpn", [2, 4])
def test_bus_does_not_perturb_simulated_time(tpn):
    cl_plain, res_plain = _run(tpn)
    rec = Recording()  # full default trace: lock, mpi, net, meta
    cl_traced, res_traced = _run(tpn, obs=rec.bus)

    assert len(rec.events) > 0, "bus attached but nothing recorded"
    # Bit-identical, not approximately equal.
    assert cl_traced.sim.now == cl_plain.sim.now
    assert res_traced.elapsed_s == res_plain.elapsed_s
    assert res_traced.msg_rate_k == res_plain.msg_rate_k
    assert res_traced.total_messages == res_plain.total_messages
    assert res_traced.dangling == res_plain.dangling


def test_experiment_rows_identical_with_and_without_bus():
    plain = run_experiment("fig2b", quick=True, seed=5)
    rec = Recording()
    traced = run_experiment("fig2b", quick=True, seed=5, obs=rec.bus)
    assert traced.rows == plain.rows
    assert traced.checks == plain.checks
    assert traced.data["obs"]["total"] == len(rec.events) + rec.log.dropped


def _digest(columns):
    h = hashlib.blake2b(digest_size=16)
    for col in columns:
        h.update(np.ascontiguousarray(col, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_observer_outputs_pinned():
    """The two grant observers -- the acquisition trace behind the 4.3
    bias factors and the dangling-request sampler of 4.4 -- pinned by
    value on one mutex cell (2 ranks x 4 threads, 64 B, 3 windows)."""
    cl = throughput_cluster(lock="mutex", threads_per_rank=4, seed=7,
                            trace_locks=True)
    prof = DanglingProfiler(cl.runtimes[1])
    run_throughput(cl, ThroughputConfig(msg_size=64, n_windows=3))

    # Thread ids come from a process-wide counter; pin them relative to
    # the cluster's first thread so earlier tests cannot shift them.
    base = cl.threads[0][0].ctx.tid
    cols = ("sockets", "n_contenders", "n_contenders_prev_socket")
    traces = {}
    for rank, trace in sorted(cl.lock_traces.items()):
        a = trace.as_arrays()
        traces[rank] = (
            len(trace), _digest([a["tids"] - base] + [a[c] for c in cols])
        )
    assert traces == {
        0: (781, "dfc60d3982ab5238df84e601de676a63"),
        1: (962, "50a66dcfb28b30ef40e02ac15434dcdb"),
    }
    assert compute_bias_factors(cl.lock_traces[1]) == BiasFactors(
        pc_observed=0.6070287539936102, ps_observed=1.0,
        pc_fair=0.32294994675186367, ps_fair=1.0, n_samples=939,
    )
    assert len(prof.samples) == 962
    assert _digest([prof.samples]) == "d2011a9738d6f7fd5411be07bed154fc"

"""The benchmark's four workloads and the output check run on each.

Every workload is a fixed-size simulation driven from this one host
process; simulated threads are generators on the simulator.  The
workloads reach the simulator only through its public API:
``throughput_cluster`` / ``service_cluster`` build a ``Cluster``,
``run_throughput`` / ``run_service`` run it, and the counters are read
from ``Simulator``, ``MpiRuntime.stats``, ``RankNic`` and the fault and
reliability stats objects afterwards.

A run is split the way a user meets it:

* :func:`prepare` -- everything before the first simulated event: the
  ``Cluster`` and the generated inputs (the service's arrival schedule),
  plus a fingerprint of those inputs;
* :meth:`Prepared.execute` -- the workload's entry call (and, on
  ``eager-cont-traced``, the in-memory Chrome export), returning an
  :class:`Outcome`;
* :func:`check` -- the output check, counted as operations attempted and
  failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from repro.mpi.request import ReqState
from repro.obs import Recording
from repro.robust import RobustConfig
from repro.sim import RngStreams
from repro.workloads import (
    ServiceConfig,
    ThroughputConfig,
    arrival_times,
    run_service,
    run_throughput,
    service_cluster,
    throughput_cluster,
)

__all__ = [
    "SCENARIOS",
    "SIZES",
    "Outcome",
    "Prepared",
    "Scenario",
    "check",
    "percentile",
    "prepare",
]

#: Server compute per request and the service's latency objective.
SERVICE_NS = 20_000.0
SLO_NS = 250_000.0
#: Offered load of the service workload, as a multiple of capacity.
SERVICE_LOAD = 1.5


@dataclass(frozen=True)
class Scenario:
    name: str
    #: "throughput" (closed loop, ``run_throughput``) or "service"
    #: (open loop, ``run_service``).
    kind: str
    #: Keyword arguments for the cluster builder.
    cluster: Dict[str, object]
    #: Attach a ``Recording`` and export a Chrome trace in memory.
    traced: bool = False


#: The workloads; README.md gives the reason for each.
SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "rndv-poll-mutex", "throughput",
            dict(lock="mutex", threads_per_rank=8, cs="global",
                 completion="poll"),
        ),
        Scenario(
            "eager-cont-vci", "throughput",
            dict(lock="priority", threads_per_rank=8, cs="per-vci:4",
                 completion="continuation"),
        ),
        Scenario(
            "service-overload-lossy", "service",
            dict(lock="priority", threads_per_rank=2, faults="drop=0.01",
                 reliability=True),
        ),
        Scenario(
            "eager-cont-traced", "throughput",
            dict(lock="priority", threads_per_rank=8, cs="per-vci:4",
                 completion="continuation"),
            traced=True,
        ),
    )
}

#: Workload sizes.  "full" is what the benchmark measures; "tiny" is the
#: self-test's.  Throughput sizes are windows of 64 messages per thread;
#: the service size is its open-loop horizon in simulated seconds.
SIZES: Dict[str, Dict[str, object]] = {
    "full": {
        "rndv-poll-mutex": ThroughputConfig(msg_size=64 * 1024, n_windows=1),
        "eager-cont-vci": ThroughputConfig(msg_size=8, n_windows=4),
        "eager-cont-traced": ThroughputConfig(msg_size=8, n_windows=4),
        "service-overload-lossy": 0.016,
    },
    "tiny": {
        "rndv-poll-mutex": ThroughputConfig(msg_size=64 * 1024, window=4,
                                            n_windows=1),
        "eager-cont-vci": ThroughputConfig(msg_size=8, window=8, n_windows=1),
        "eager-cont-traced": ThroughputConfig(msg_size=8, window=8,
                                              n_windows=1),
        "service-overload-lossy": 0.001,
    },
}


def percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile, the rule ``run_service`` uses for its
    own p99, so both workload kinds report latency the same way."""
    if not sorted_vals:
        return 0.0
    i = min(len(sorted_vals) - 1, max(0, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[i]


def _digest(*parts: object) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(json.dumps(p, sort_keys=True, default=repr).encode())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one execution produced: the simulated answers, the public
    counters and the raw material the output check inspects."""

    msg_rate_k: float
    goodput_rps: float
    #: p99 of simulated request latency: MPI requests (issue to
    #: completion) on the throughput workloads, ok replies (arrival to
    #: reply) on the service.  Its sample count is
    #: ``counts["workloads.latency_samples"]``.
    p99_us: float
    #: Exact per-layer counters from the public stats objects.
    counts: Dict[str, float]
    fingerprint: str
    #: Throughput: every MPI request the workload issued.
    requests: list = field(default_factory=list)
    expected_requests: int = 0
    #: Service: the ``ServiceResult``.
    service: Optional[object] = None
    #: Rank-level ``RuntimeStats`` snapshots.
    rank_stats: List[dict] = field(default_factory=list)


class _RecordingThread:
    """Pass-through view of an ``MpiThread`` that keeps every request
    handed to ``waitall``, so the check and the latency percentiles can
    read each request's state and timestamps after the run.  It adds no
    generator frame: ``waitall`` returns the wrapped thread's generator.
    """

    def __init__(self, th, sink: list):
        self._th = th
        self._sink = sink

    def __getattr__(self, name):
        return getattr(self._th, name)

    def waitall(self, reqs):
        self._sink.extend(reqs)
        return self._th.waitall(reqs)


def _common_counts(cluster) -> Dict[str, float]:
    sim = cluster.sim
    stats = [rt.stats.as_dict() for rt in cluster.runtimes]

    def total(key: str) -> int:
        return sum(s[key] for s in stats)

    polls = total("progress_polls")
    useful = polls - total("empty_polls")
    rel = [rt.rel_stats for rt in cluster.runtimes if rt.rel_stats is not None]
    inj = cluster.fault_injector
    return {
        "sim.dispatched": sim.dispatched,
        "sim.skipped": sim.skipped,
        "sim.pool_hits": sim.pool_hits,
        "mpi.cs_entries_main": total("cs_entries_main"),
        "mpi.cs_entries_progress": total("cs_entries_progress"),
        "mpi.progress_polls": polls,
        "mpi.empty_polls": total("empty_polls"),
        "mpi.useful_poll_ratio": useful / polls if polls else 0.0,
        "mpi.unexpected_hits": total("unexpected_hits"),
        "mpi.packets_handled": total("packets_handled"),
        "mpi.continuations_fired": total("continuations_fired"),
        "mpi.wasted_acquisitions_avoided": total("wasted_acquisitions_avoided"),
        "mpi.cancelled": total("cancelled"),
        "network.packets": sum(rt.nic.sent_packets for rt in cluster.runtimes),
        "network.bytes": sum(rt.nic.sent_bytes for rt in cluster.runtimes),
        "faults.drops": inj.stats.total_drops if inj is not None else 0,
        "faults.retransmits": sum(r.retransmits for r in rel),
        # Overwritten by the workloads that use these layers.
        "robust.shed": 0,
        "robust.retries": 0,
        "robust.retries_denied": 0,
        "robust.dedup_hits": 0,
        "obs.events": 0,
        "obs.export_s": 0.0,
    }


@dataclass
class Prepared:
    """A built cluster and its generated inputs, ready to execute once."""

    inputs_fingerprint: str
    execute: Callable[[], Outcome]


def prepare(name: str, seed: int, size: str = "full") -> Prepared:
    """Build the cluster and generate the inputs for one execution."""
    sc = SCENARIOS[name]
    work = SIZES[size][name]
    rec = Recording() if sc.traced else None
    kw = dict(sc.cluster, seed=seed, obs=rec.bus if rec is not None else None)
    if sc.kind == "service":
        return _prepare_service(sc, seed, work, kw)
    return _prepare_throughput(sc, seed, work, kw, rec)


def _prepare_throughput(sc, seed, cfg: ThroughputConfig, kw, rec) -> Prepared:
    cluster = throughput_cluster(**kw)
    sink: list = []
    for ths in cluster.threads:
        ths[:] = [_RecordingThread(th, sink) for th in ths]
    n_threads = cluster.config.threads_per_rank
    spec = {"scenario": sc.cluster, "workload": asdict(cfg), "seed": seed}

    def execute() -> Outcome:
        res = run_throughput(cluster, cfg)
        export_s = 0.0
        if rec is not None:
            t0 = time.perf_counter()
            json.dumps(rec.chrome_trace())
            export_s = time.perf_counter() - t0
        sim = cluster.sim
        lat = sorted(r.t_completed - r.t_issued for r in sink
                     if r.t_completed is not None)
        counts = _common_counts(cluster)
        counts["workloads.latency_samples"] = len(lat)
        if rec is not None:
            counts["obs.events"] = len(rec.events)
            counts["obs.export_s"] = export_s
        rank_stats = [rt.stats.as_dict() for rt in cluster.runtimes]
        fp = _digest(
            asdict(res.dangling), res.total_messages, res.elapsed_s.hex(),
            rank_stats, sim.now.hex(), sim.dispatched,
            [x.hex() for x in lat],
        )
        return Outcome(
            msg_rate_k=res.msg_rate_k,
            # Closed loop, no latency objective: every message received
            # is a good reply.
            goodput_rps=res.total_messages / res.elapsed_s,
            p99_us=percentile(lat, 0.99) * 1e6,
            counts=counts,
            fingerprint=fp,
            requests=sink,
            expected_requests=2 * n_threads * cfg.window * cfg.n_windows,
            rank_stats=rank_stats,
        )

    return Prepared(_digest(spec), execute)


def _prepare_service(sc, seed, duration_s: float, kw) -> Prepared:
    threads = sc.cluster["threads_per_rank"]
    capacity = threads / (SERVICE_NS * 1e-9)
    cfg = ServiceConfig(
        rate_hz=SERVICE_LOAD * capacity, duration_s=duration_s,
        service_ns=SERVICE_NS, slo_ns=SLO_NS,
    )
    robust = RobustConfig.protected(deadline_ns=SLO_NS)
    cluster = service_cluster(**kw)
    # The arrival schedule run_service will draw from the same named
    # stream: generated here so its fingerprint is recorded with the
    # result.
    pairs = cluster.n_ranks // 2
    streams = RngStreams(seed)
    arrivals = [
        arrival_times(
            streams.stream(f"service:{c}"), cfg.shape, cfg.rate_hz,
            cfg.duration_s, burst_factor=cfg.burst_factor,
            burst_dwell_s=cfg.burst_dwell_s, diurnal_depth=cfg.diurnal_depth,
        )
        for c in range(pairs)
    ]
    spec = {"scenario": sc.cluster, "workload": asdict(cfg),
            "robust": repr(robust), "seed": seed,
            "arrivals": [[t.hex() for t in a] for a in arrivals]}

    def execute() -> Outcome:
        res = run_service(cluster, cfg, robust)
        sim = cluster.sim
        counts = _common_counts(cluster)
        counts.update({
            "robust.shed": res.shed,
            "robust.retries": res.retries,
            "robust.retries_denied": res.retries_denied,
            "robust.dedup_hits": res.dedup_hits,
            "workloads.latency_samples": res.ok,
        })
        rank_stats = [rt.stats.as_dict() for rt in cluster.runtimes]
        sends = sum(s["sends_issued"] for s in rank_stats)
        return Outcome(
            msg_rate_k=sends / res.elapsed_s / 1e3,
            goodput_rps=res.goodput_rps,
            p99_us=res.p99_us,
            counts=counts,
            fingerprint=_digest(res.fingerprint, rank_stats, sim.now.hex(),
                                sim.dispatched),
            service=res,
            rank_stats=rank_stats,
        )

    return Prepared(_digest(spec), execute)


def check(out: Outcome, reference: Optional[str] = None) -> tuple:
    """Output check of one execution: ``(attempted, failed, problems)``.

    Operations are the MPI requests the workload issued and, on the
    service, the requests it was offered.  An MPI request fails unless
    it completed without error and was freed.  A service request fails
    if its outcome is ``failed`` or if the outcomes do not add up to the
    offered count; shed and expired requests are SLO misses, not
    failures.  One more operation per execution compares the outcome
    fingerprint with ``reference`` (the first execution of the run).
    """
    problems: List[str] = []
    attempted = failed = 0
    for rank, s in enumerate(out.rank_stats):
        issued = s["sends_issued"] + s["recvs_issued"]
        attempted += issued
        unfreed = issued - min(s["completed"], s["freed"], issued)
        if unfreed:
            failed += unfreed
            problems.append(f"rank {rank}: {unfreed} requests not completed "
                            f"and freed")
    if out.service is None:
        bad = sum(
            1 for r in out.requests
            if r.state is not ReqState.FREED or r.t_completed is None or r.error
        )
        missing = out.expected_requests - len(out.requests)
        if bad or missing:
            failed += bad + abs(missing)
            problems.append(f"{bad} requests unfinished or in error, "
                            f"{missing} missing")
    else:
        res = out.service
        attempted += res.offered
        unaccounted = abs(res.offered - (res.ok + res.shed + res.expired
                                         + res.failed))
        if res.failed or unaccounted:
            failed += res.failed + unaccounted
            problems.append(f"{res.failed} failed, {unaccounted} unaccounted "
                            f"of {res.offered} offered")
    if reference is not None:
        attempted += 1
        if out.fingerprint != reference:
            failed += 1
            problems.append("outcome differs from the first execution")
    return attempted, failed, problems

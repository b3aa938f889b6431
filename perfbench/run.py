"""The simulator's benchmark: host time and simulated outputs per workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload rndv-poll-mutex --seed 1 \\
        --seconds 20 --trace 0

A run simulates the workload on ``SUBSEEDS`` sub-seeds drawn from
``--seed``, so one seed's luck does not decide its host time.
``--trace 0`` measures the end-to-end metrics: it times cold set-up in
fresh interpreters, then cycles through the sub-seeds for ``--seconds``
seconds with tracing off.  During every execution a fixed reference
workload is timed every 10 ms (``calibrate.py``), and the execution's
host time is reported relative to it, which cancels most of the shared
host's drift.  ``--trace 1`` measures the per-layer metrics: exact counters
from untraced executions, then one execution per sub-seed under
cProfile rolled up by ``repro`` package.  Every execution's output is
checked.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable report and a JSON record of the seed, the input and
outcome fingerprints, every raw sample and the benchmark's own spans.

Metric names and units come from ``BENCHMARK.json`` at the repository
root; README.md in this directory defines each one.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Simulations per run: sub-seeds ``seed * SUBSEEDS + j``.  The host
#: time of one simulation depends on its seed by up to 15%; the run
#: reports the mean over its sub-seeds, which halves that spread.
SUBSEEDS = 4
#: Cold set-ups timed per run (after one untimed warm-up that fills the
#: bytecode cache); ``setup_s`` is their median.
SETUP_PROBES = 9
#: Timed executions of every sub-seed a ``--trace 0`` run makes at
#: least, however short ``--seconds`` is.
MIN_REPS = 2


class Spans:
    """The benchmark's own spans around each call into the simulator,
    kept in memory and printed with the record when the run ends."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.items: list = []

    def span(self, name: str, rep: int, start: float, end: float) -> None:
        self.items.append({"name": name, "rep": rep,
                           "start_s": round(start - self.t0, 6),
                           "dur_s": round(end - start, 6)})


class Tally:
    """Output-check totals over every execution of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="workload size; 'tiny' is for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _sub_seeds(seed: int) -> list:
    return [seed * SUBSEEDS + j for j in range(SUBSEEDS)]


def _inputs_fingerprint(scenarios, args) -> str:
    """One fingerprint over the generated inputs of every sub-seed."""
    h = hashlib.blake2b(digest_size=16)
    for s in _sub_seeds(args.seed):
        h.update(scenarios.prepare(args.workload, s,
                                   args.size).inputs_fingerprint.encode())
    return h.hexdigest()


def _import_simulator():
    """Put ``src`` first on the path and import the simulator from it.
    Fails, rather than measuring some other copy, when the checkout has
    no ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _setup_probe(args) -> int:
    """Child mode: time one cold set-up (imports, the first sub-seed's
    cluster and inputs), then fingerprint every sub-seed's inputs."""
    with calibrate.Sampler() as sampler:
        _import_simulator()
        import scenarios

        scenarios.prepare(args.workload, _sub_seeds(args.seed)[0], args.size)
    print(json.dumps({"host_s": sampler.host_s, "norm_s": sampler.norm_s,
                      "inputs": _inputs_fingerprint(scenarios, args)}))
    return 0


def _cold_setups(args, inputs: str, tally: Tally, spans: Spans):
    """Host and normalised seconds of each timed cold set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    host, norm = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        spans.span("setup.cold", i, t0, time.perf_counter())
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.add(1, int(probe["inputs"] != inputs),
                  [] if probe["inputs"] == inputs
                  else ["inputs generated in a fresh process differ"])
        if i:
            host.append(probe["host_s"])
            norm.append(probe["norm_s"])
    return host, norm


def _execute(scenarios, args, seed: int, rep: int, spans: Spans,
             tally: Tally, reference, profile=None, sample=False):
    """Prepare and execute one simulation of ``seed``; returns
    ``(outcome, host_s, norm_s)`` or ``(None, None, None)`` when the
    simulation raised.  With ``sample`` the host speed is sampled
    during the execution and ``norm_s`` is its normalised time."""
    from repro.faults import ProgressStallError
    from repro.sim import SimulationError

    gc.collect()
    t0 = time.perf_counter()
    prepared = scenarios.prepare(args.workload, seed, args.size)
    t1 = time.perf_counter()
    spans.span("prepare", rep, t0, t1)
    sampler = calibrate.Sampler() if sample else contextlib.nullcontext()
    try:
        if profile is not None:
            profile.enable()
        try:
            with sampler:
                outcome = prepared.execute()
        finally:
            if profile is not None:
                profile.disable()
    except (SimulationError, ProgressStallError) as exc:
        spans.span("execute", rep, t1, time.perf_counter())
        tally.add(1, 1, [f"execution {rep} (seed {seed}) raised {exc!r}"])
        return None, None, None
    t2 = time.perf_counter()
    spans.span("execute", rep, t1, t2)
    tally.add(*scenarios.check(outcome, reference))
    spans.span("check", rep, t2, time.perf_counter())
    if sample:
        return outcome, sampler.host_s, sampler.norm_s
    return outcome, t2 - t1, None


class Cycle:
    """Executions that cycle through the run's sub-seeds.  The first
    execution of a sub-seed is its reference: its outcome gives the
    simulated metrics and its fingerprint must repeat on every later
    execution of that sub-seed."""

    def __init__(self, scenarios, args, spans: Spans, tally: Tally):
        self.scenarios, self.args = scenarios, args
        self.spans, self.tally = spans, tally
        self.seeds = _sub_seeds(args.seed)
        self.first: dict = {}
        self.walls = {s: [] for s in self.seeds}
        self.norms = {s: [] for s in self.seeds}
        self.reps = 0

    def run(self, seed: int, timed: bool = True, profile=None,
            sample: bool = False):
        """One execution of ``seed``; its wall time, or None when it
        raised.  Only ``timed`` executions join the samples."""
        ref = self.first.get(seed)
        out, wall, norm = _execute(
            self.scenarios, self.args, seed, self.reps, self.spans,
            self.tally, ref.fingerprint if ref is not None else None,
            profile, sample)
        self.reps += 1
        if out is None:
            return None
        self.first.setdefault(seed, out)
        if timed:
            self.walls[seed].append(wall)
            if sample:
                self.norms[seed].append(norm)
        return wall

    def repeat(self, seconds: float, min_reps: int, sample: bool) -> bool:
        """Timed executions of the sub-seeds in turn until ``seconds``
        have passed and every sub-seed ran ``min_reps`` times; False
        when one raised."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_reps * len(self.seeds) or time.perf_counter() < deadline:
            if self.run(self.seeds[i % len(self.seeds)], sample=sample) is None:
                return False
            i += 1
        return True

    def outcomes(self) -> list:
        return [self.first[s] for s in self.seeds]


def _end_to_end(scenarios, args, spans, tally, record) -> dict:
    host_setups, setups = _cold_setups(args, record["inputs"], tally, spans)
    cycle = Cycle(scenarios, args, spans, tally)
    # Warm-up execution: checked, not timed.
    if cycle.run(cycle.seeds[0], timed=False) is None:
        return {}
    if not cycle.repeat(args.seconds, MIN_REPS, sample=True):
        return {}
    outs = cycle.outcomes()
    record["outcome"] = [o.fingerprint for o in outs]
    record["wall_s"] = cycle.walls
    record["wall_norm_s"] = cycle.norms
    record["setup_host_s"] = host_setups
    record["setup_s"] = setups
    record["latency_samples"] = [o.counts["workloads.latency_samples"]
                                 for o in outs]
    return {
        "wall_norm_s": statistics.fmean(statistics.median(v)
                                        for v in cycle.norms.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_msg_rate_k": statistics.fmean(o.msg_rate_k for o in outs),
        "sim_goodput_rps": statistics.fmean(o.goodput_rps for o in outs),
        "sim_p99_us": statistics.fmean(o.p99_us for o in outs),
    }


def _summed_counts(outs) -> dict:
    """Exact counts summed over the sub-seeds; the ratio among them is
    recomputed from the sums."""
    metrics = {k: sum(o.counts[k] for o in outs) for k in outs[0].counts}
    polls = metrics["mpi.progress_polls"]
    metrics["mpi.useful_poll_ratio"] = (
        (polls - metrics["mpi.empty_polls"]) / polls if polls else 0.0)
    return metrics


def _per_layer(scenarios, args, spans, tally, record) -> dict:
    import rollup

    cycle = Cycle(scenarios, args, spans, tally)
    # Reference executions, one per sub-seed, then untraced executions
    # for the host-time base of the ratios below.
    for s in cycle.seeds:
        if cycle.run(s, timed=False) is None:
            return {}
    if not cycle.repeat(args.seconds / 2, 1, sample=False):
        return {}
    wall = sum(statistics.median(v) for v in cycle.walls.values())
    profile = cProfile.Profile()
    traced_wall = 0.0
    for s in cycle.seeds:
        w = cycle.run(s, timed=False, profile=profile)
        if w is None:
            return {}
        traced_wall += w
    outs = cycle.outcomes()
    metrics = _summed_counts(outs)
    metrics.update(rollup.rollup(profile))
    record["outcome"] = [o.fingerprint for o in outs]
    record["wall_s"] = cycle.walls
    record["traced_wall_s"] = traced_wall

    def per(share: str, work: str) -> float:
        n = metrics[work]
        return metrics[share] * wall * 1e9 / n if n else 0.0

    metrics["sim.host_ns_per_event"] = wall * 1e9 / metrics["sim.dispatched"]
    metrics["locks.host_ns_per_acquire"] = per("locks.self_frac",
                                               "locks.acquires")
    metrics["obs.host_ns_per_obs_event"] = per("obs.self_frac", "obs.events")
    metrics["trace.overhead_ratio"] = traced_wall / wall
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args)
    _import_simulator()
    import scenarios

    if args.workload not in scenarios.SCENARIOS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(scenarios.SCENARIOS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    spans, tally = Spans(), Tally()
    record = {"workload": args.workload, "seed": args.seed,
              "sub_seeds": _sub_seeds(args.seed),
              "trace": args.trace, "size": args.size,
              "inputs": _inputs_fingerprint(scenarios, args)}
    measure = _per_layer if args.trace else _end_to_end
    values = measure(scenarios, args, spans, tally, record)
    record["problems"] = tally.problems
    record["spans"] = spans.items
    print("record: " + json.dumps(record))
    if not values:
        print("perfbench: the simulation raised; no metrics", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for p in tally.problems:
        print(f"  FAILED: {p}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

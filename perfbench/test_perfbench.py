"""Self-test of the benchmark, on every workload at the tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that the exact counts repeat on the same seed, and that a
corrupted output is counted as a failed operation.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import rollup  # noqa: E402
import scenarios  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(scenarios.SCENARIOS)
#: Host-time values: they differ between executions by design.
HOST_TIMES = {"obs.export_s"}


def _bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _execute(workload: str, seed: int = 3, profile=None):
    prepared = scenarios.prepare(workload, seed, "tiny")
    if profile is not None:
        profile.enable()
    try:
        return prepared, prepared.execute()
    finally:
        if profile is not None:
            profile.disable()


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        fracs = [v for k, v in values.items() if k.endswith(".self_frac")]
        assert sum(fracs) == pytest.approx(1.0)
    else:
        assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_on_the_same_seed(workload):
    prof_a, prof_b = cProfile.Profile(), cProfile.Profile()
    prep_a, a = _execute(workload, profile=prof_a)
    prep_b, b = _execute(workload, profile=prof_b)
    assert prep_a.inputs_fingerprint == prep_b.inputs_fingerprint
    assert a.fingerprint == b.fingerprint
    exact = set(a.counts) - HOST_TIMES
    assert {k: a.counts[k] for k in exact} == {k: b.counts[k] for k in exact}
    assert (a.msg_rate_k, a.goodput_rps, a.p99_us) == (
        b.msg_rate_k, b.goodput_rps, b.p99_us)
    calls_a, calls_b = rollup.rollup(prof_a), rollup.rollup(prof_b)
    counts = [k for k in calls_a if not k.endswith(".self_frac")]
    assert {k: calls_a[k] for k in counts} == {k: calls_b[k] for k in counts}
    other_seed, _ = _execute(workload, seed=4)
    assert other_seed.inputs_fingerprint != prep_a.inputs_fingerprint


def test_tracing_leaves_the_outcome_unchanged():
    _, plain = _execute("eager-cont-vci")
    _, traced = _execute("eager-cont-traced")
    assert traced.fingerprint == plain.fingerprint
    assert plain.counts["obs.events"] == 0
    assert traced.counts["obs.events"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    _, out = _execute(workload)
    attempted, failed, problems = scenarios.check(out, out.fingerprint)
    assert failed == 0 and not problems and attempted > 1

    assert scenarios.check(out, "0" * 32)[1] == 1

    unfreed = dataclasses.replace(out, rank_stats=[dict(s) for s in out.rank_stats])
    unfreed.rank_stats[0]["freed"] -= 1
    assert scenarios.check(unfreed)[1] == 1

    if out.service is not None:
        lost = dataclasses.replace(
            out, service=dataclasses.replace(out.service, ok=out.service.ok - 1))
        assert scenarios.check(lost)[1] == 1
    else:
        req = out.requests[0]
        t_completed, req.t_completed = req.t_completed, None
        try:
            assert scenarios.check(out)[1] == 1
        finally:
            req.t_completed = t_completed
        short = dataclasses.replace(out, requests=out.requests[1:])
        assert scenarios.check(short)[1] == 1


def test_sampler_normalises_and_restores_the_alarm_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as short:
        pass
    assert short.ticks == 1 and short.norm_s >= 0
    with calibrate.Sampler() as long:
        deadline = time.perf_counter() + 8 * calibrate.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert long.ticks >= 4
    assert 0 < long.host_s < 8 * calibrate.INTERVAL_S + long.tick_s
    assert long.norm_s == pytest.approx(
        long.host_s / (long.tick_s / long.ticks) * calibrate.REFERENCE_TICK_S)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("eager-cont-vci", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

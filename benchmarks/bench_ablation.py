"""Micro-benchmark: multiprocess ablation sweep vs serial.

The DES is single-threaded, so an ablation matrix is embarrassingly
parallel: the pool's speedup is the wall-time argument for running
paper-scale sweeps (and CI) through ``repro ablate --jobs N``.

Runs the fig2b x (lock, sharding) leave-one-out matrix (3 cells) twice
-- serial, then through a 2-worker spawn pool -- and records wall time
and per-cell metrics in ``results/BENCH_ablation.json``.

**Identity gate** (deterministic, enforced here): the pooled sweep must
produce record-for-record the same journal as the serial sweep --
worker processes add parallelism, never divergence.  The speedup itself
is recorded but not gated: on a 2-core CI box the spawn/import overhead
of a 3-cell quick matrix can eat most of it.

::

    PYTHONPATH=src python benchmarks/bench_ablation.py
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.analysis.ablation import build_matrix, run_matrix
from repro.analysis.report import format_table

RESULTS = pathlib.Path(__file__).parent / "results" / "BENCH_ablation.json"

EXPERIMENTS = ["fig2b"]
COMPONENTS = ["lock", "sharding"]
JOBS = 2


def sweep(jobs: int) -> tuple:
    cells = build_matrix(EXPERIMENTS, components=COMPONENTS, seed=0,
                         quick=True)
    t0 = time.perf_counter()  # simlint: disable=wall-clock
    records = run_matrix(cells, jobs=jobs)
    wall = time.perf_counter() - t0  # simlint: disable=wall-clock
    return records, wall


def main() -> int:
    serial, serial_wall = sweep(jobs=1)
    pooled, pooled_wall = sweep(jobs=JOBS)

    key = lambda r: r["run_id"]  # noqa: E731
    identical = sorted(serial, key=key) == sorted(pooled, key=key)
    speedup = serial_wall / pooled_wall if pooled_wall else 0.0

    rows = [
        ["serial", f"{serial_wall:.2f}", "1.00x"],
        [f"pool ({JOBS} workers)", f"{pooled_wall:.2f}", f"{speedup:.2f}x"],
    ]
    print(format_table(
        ["executor", "wall (s)", "speedup"], rows,
        title=f"ablation sweep: {len(serial)} cells "
              f"({'+'.join(EXPERIMENTS)} x {len(COMPONENTS)} components)",
    ))
    print(f"pool/serial records identical: {identical}")

    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps({
        "experiments": EXPERIMENTS,
        "components": COMPONENTS,
        "cells": len(serial),
        "serial_wall_s": round(serial_wall, 3),
        "pool_wall_s": round(pooled_wall, 3),
        "pool_workers": JOBS,
        "speedup": round(speedup, 3),
        "records_identical": identical,
        "cell_metrics": {
            r["label"]: r.get("metrics") for r in serial
        },
    }, indent=2) + "\n")
    print(f"results written to {RESULTS}")

    if not identical:
        print("FAIL: pooled sweep diverged from serial")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

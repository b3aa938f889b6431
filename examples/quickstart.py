#!/usr/bin/env python
"""Quickstart: how critical-section arbitration changes MPI throughput.

Runs the paper's multithreaded point-to-point throughput benchmark on a
simulated two-node cluster for each locking method and prints the
comparison -- the core result of the paper in ~20 lines of API use.

    python examples/quickstart.py [--threads 8] [--size 8]
"""

import argparse

from repro.analysis import format_table
from repro.workloads import ThroughputConfig, run_throughput, throughput_cluster


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threads", type=int, default=8,
                    help="threads per rank (paper: up to 8)")
    ap.add_argument("--size", type=int, default=8, help="message size in bytes")
    ap.add_argument("--windows", type=int, default=6,
                    help="64-request windows per thread")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rows = []
    baseline = None
    for method in ("null", "mutex", "ticket", "priority"):
        threads = 1 if method == "null" else args.threads
        cluster = throughput_cluster(
            lock=method, threads_per_rank=threads, seed=args.seed
        )
        res = run_throughput(
            cluster,
            ThroughputConfig(msg_size=args.size, n_windows=args.windows),
        )
        if method == "mutex":
            baseline = res.msg_rate_k
        label = "single-threaded" if method == "null" else method
        rows.append([
            label, threads, f"{res.msg_rate_k:.0f}",
            f"{res.dangling.mean:.1f}",
            f"{res.msg_rate_k / baseline:.2f}x" if baseline else "-",
        ])

    print(format_table(
        ["method", "threads", "rate (10^3 msg/s)", "avg dangling", "vs mutex"],
        rows,
        title=f"pt2pt throughput, {args.size}-byte messages "
              f"(simulated dual-socket Nehalem + QDR fabric)",
    ))
    print("\nThe mutex's unfair arbitration (lock monopolization) starves "
          "threads;\nFCFS arbitration (ticket) and the paper's priority "
          "lock recover the loss.")


if __name__ == "__main__":
    main()

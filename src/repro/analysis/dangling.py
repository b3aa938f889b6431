"""The dangling-request profiler (paper 4.4).

Samples a runtime's count of *completed-but-not-freed* requests at every
lock acquisition (the paper's sampling interval) and reports the average.
A healthy runtime keeps this near the per-thread window size; a starving
runtime accumulates completed requests whose owners cannot reach the
critical section to free them and issue new work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..mpi.runtime import MpiRuntime

__all__ = ["DanglingProfiler", "DanglingStats"]


@dataclass(frozen=True)
class DanglingStats:
    mean: float
    maximum: int
    n_samples: int


class DanglingProfiler:
    """Attach to a runtime's critical section; sample its dangling count
    on every lock grant (``on_grant`` hook)."""

    def __init__(self, runtime: MpiRuntime):
        self.runtime = runtime
        self.samples: List[int] = []
        self._hook = lambda lock, ctx: self.samples.append(runtime.dangling_count)
        # Hook every arbitration domain's lock: any CS grant on this
        # rank is a sampling instant (with the global policy this is
        # exactly the single-lock behaviour).
        for dom in runtime.domains:
            dom.lock.on_grant.append(self._hook)

    def detach(self) -> None:
        for dom in self.runtime.domains:
            dom.lock.on_grant.remove(self._hook)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> DanglingStats:
        if not self.samples:
            return DanglingStats(0.0, 0, 0)
        arr = np.asarray(self.samples)
        return DanglingStats(float(arr.mean()), int(arr.max()), len(arr))

    def series(self) -> np.ndarray:
        return np.asarray(self.samples, dtype=np.int64)

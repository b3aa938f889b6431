"""Roll a cProfile of one execution up into per-layer metrics.

Self time of every profiled function is charged to the ``repro``
package its source file lives in (``repro/sim/...`` -> ``sim``).
Everything else -- the standard library, numpy, C builtins such as
``heapq.heappush``, the benchmark's own code and ``repro`` modules
outside the listed layers -- is ``other``.  The ``*.self_frac`` values
are shares of the profile's total self time, so they sum to 1.

Call counts are read for a few entry points, identified by their code
objects.  cProfile counts a generator function once when it is called
and once more on every resume, so for the generator entry points
(``SimLock.acquire``, ``MpiRuntime.isend`` / ``irecv``) the count is
frames entered, not calls.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Iterable

import repro
from repro.locks import SimLock
from repro.mpi.runtime import MpiRuntime
from repro.network import Fabric
from repro.sim import Process, Simulator, Timeout

__all__ = ["LAYERS", "rollup"]

#: Layers in the split, named after their ``repro`` packages.
LAYERS = ("sim", "locks", "mpi", "network", "machine", "faults", "robust",
          "obs", "workloads", "analysis")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _lock_classes(cls=SimLock):
    yield cls
    for sub in cls.__subclasses__():
        yield from _lock_classes(sub)


#: Per-layer call counts: metric name -> the functions whose counts add up.
_CALLS: Dict[str, Iterable] = {
    "calls.SimLock.acquire": {
        _key(cls.acquire) for cls in _lock_classes()
    },
    "calls.Fabric.send": {_key(Fabric.send)},
    "calls.MpiRuntime.isend": {_key(MpiRuntime.isend)},
    "calls.MpiRuntime.irecv": {_key(MpiRuntime.irecv)},
    "calls.Simulator.timeout": {_key(Simulator.timeout)},
    "locks.acquires": {_key(SimLock._grant)},
    "sim.resumes": {_key(Process._resume)},
    "sim.timeout_allocs": {_key(Timeout.__init__)},
}


def _layer(filename: str) -> str:
    if not filename.startswith(_REPRO_DIR):
        return "other"
    pkg = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
    return pkg if pkg in LAYERS else "other"


def rollup(profile) -> Dict[str, float]:
    """``{"<layer>.self_frac": share, ..., "<count>": n}`` for one
    ``cProfile.Profile`` that has been disabled."""
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys((*LAYERS, "other"), 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, _callers) in stats.items():
        self_s[_layer(filename)] += tt
    total = sum(self_s.values()) or 1.0
    out = {f"{layer}.self_frac": t / total for layer, t in self_s.items()}
    for metric, keys in _CALLS.items():
        out[metric] = sum(stats[k][1] for k in keys if k in stats)
    return out

"""Lock acquisition traces.

The paper instruments MPICH to trace lock acquisitions and derives the
core/socket bias factors from the trace (4.3).  :class:`LockTrace` records
exactly the quantities those estimators need, per acquisition ``l``:

* the winner's thread id and socket,
* ``T_l``          -- total threads contending (winner included),
* ``T_{j,l}``      -- contenders on the *previous* owner's socket.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..machine.threads import ThreadCtx

__all__ = ["LockTrace"]


class LockTrace:
    """Append-only acquisition trace with numpy export.

    A lock feeds it through its grant hooks:
    ``lock.on_grant.append(trace.record_grant)``.  One trace may
    subscribe to several locks (a rank's arbitration domains); the
    previous-owner socket then spans all of them.
    """

    def __init__(self):
        self.tids: list[int] = []
        self.sockets: list[int] = []
        self.n_contenders: list[int] = []
        self.n_contenders_prev_socket: list[int] = []
        self._prev_socket: Optional[int] = None

    def __len__(self) -> int:
        return len(self.tids)

    def record_grant(self, lock, winner: ThreadCtx) -> None:
        """Record acquisition ``l`` of ``lock``: an ``on_grant`` hook, run
        while the winner is still among the lock's contenders."""
        contenders = lock._contenders
        self.tids.append(winner.tid)
        self.sockets.append(winner.socket)
        self.n_contenders.append(len(contenders))
        prev = self._prev_socket
        if prev is None:
            self.n_contenders_prev_socket.append(0)
        else:
            self.n_contenders_prev_socket.append(
                sum(1 for c in contenders.values() if c.socket == prev)
            )
        self._prev_socket = winner.socket

    # ------------------------------------------------------------------
    def as_arrays(self) -> dict:
        """Trace columns as numpy arrays (copies)."""
        return {
            "tids": np.asarray(self.tids, dtype=np.int64),
            "sockets": np.asarray(self.sockets, dtype=np.int64),
            "n_contenders": np.asarray(self.n_contenders, dtype=np.int64),
            "n_contenders_prev_socket": np.asarray(
                self.n_contenders_prev_socket, dtype=np.int64
            ),
        }

    def acquisitions_by_tid(self) -> Dict[int, int]:
        """Histogram of acquisitions per thread (starvation check)."""
        out: Dict[int, int] = {}
        for tid in self.tids:
            out[tid] = out.get(tid, 0) + 1
        return out

    def consecutive_reacquire_fraction(self) -> float:
        """Fraction of acquisitions going to the immediately previous owner."""
        if len(self.tids) < 2:
            return 0.0
        t = np.asarray(self.tids)
        return float(np.mean(t[1:] == t[:-1]))

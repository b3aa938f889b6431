"""Named integer counters: the one base for every stats container."""

from __future__ import annotations

__all__ = ["Counters"]


class Counters:
    """Zero-initialised counters named by ``__slots__``.

    A subclass lists its counters in ``__slots__``; instances start at
    zero and :meth:`as_dict` snapshots them in declaration order.
    """

    __slots__ = ()

    def __init__(self) -> None:
        for f in self.__slots__:
            setattr(self, f, 0)

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}

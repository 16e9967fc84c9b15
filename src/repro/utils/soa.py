"""Struct-of-arrays primitives shared by the columnar hot paths.

Traffic accounting (:class:`~repro.mqtt.network.TrafficLog`) and the event
scheduler's FIFO-clamp table keep id-indexed numpy columns.  This module
holds the two leaf building blocks they share:

* :class:`StringTable` — bidirectional string interning (``str -> int`` plus
  the reverse list), so sender/receiver/topic identities index those columns
  as small integers;
* :func:`grow` — the shared doubling policy for numpy columns, so every
  column in a table grows in lockstep and amortizes to O(1) per append.

It deliberately imports nothing above :mod:`numpy`: both
:mod:`repro.mqtt.network` (traffic accounting) and
:mod:`repro.runtime.scheduler` (the event heap) sit on top of it, and those
two must not import each other.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["StringTable", "grow"]


def grow(column: np.ndarray, capacity: int, fill: object = None) -> np.ndarray:
    """Return ``column`` grown to at least ``capacity`` (doubling policy).

    The returned array is a new allocation whose leading ``len(column)``
    entries are copied from ``column``; the tail is left uninitialized unless
    ``fill`` is given.  Callers overwrite slots before reading them, so the
    uninitialized tail is never observable.
    """
    new_capacity = max(int(capacity), len(column) * 2, 16)
    grown = np.empty(new_capacity, dtype=column.dtype)
    grown[: len(column)] = column
    if fill is not None:
        grown[len(column):] = fill
    return grown


class StringTable:
    """Bidirectional string interning: ``intern`` on ingest, ``value`` on egress.

    Indices are dense, start at 0 and are never reused, so any array indexed
    by them (per-id byte counters, FIFO tails, …) only ever grows.  ``None``
    is a valid internable value — anonymous senders keep their identity.
    """

    __slots__ = ("_index", "_values")

    def __init__(self) -> None:
        self._index: Dict[Optional[str], int] = {}
        self._values: List[Optional[str]] = []

    def intern(self, value: Optional[str]) -> int:
        """Return the stable integer id for ``value``, allocating on first use."""
        index = self._index.get(value)
        if index is None:
            index = len(self._values)
            self._index[value] = index
            self._values.append(value)
        return index

    def lookup(self, value: Optional[str]) -> Optional[int]:
        """The id for ``value`` if it was ever interned, else ``None``."""
        return self._index.get(value)

    def value(self, index: int) -> Optional[str]:
        """The string behind an id (inverse of :meth:`intern`)."""
        return self._values[index]

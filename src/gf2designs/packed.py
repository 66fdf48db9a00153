"""Compact integer storage for the front end's tables and results.

Orbit ids, orbit lengths, incidence tables and matrix entries live in
``array.array`` buffers of the narrowest unsigned item type that holds
their largest value.  Ragged rows are stored flat: row ``i`` spans
``starts[i]:starts[i + 1]`` of the value arrays.  The row containers
read like the tuples they replace: indexing (negative indices too),
slicing, ``len`` and iteration all work.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

# unsigned item types, narrowest first, with the bound each one holds
_CODES = tuple((code, 1 << 8 * array(code).itemsize) for code in "BHIQ")


def packed(values, top: int) -> array:
    """``values`` as an array whose item type holds every integer in 0..top."""
    for code, bound in _CODES:
        if top < bound:
            return array(code, values)
    raise OverflowError(f"{top} does not fit an unsigned 64-bit item")


class _Rows(Sequence):
    """Rows stored flat; subclasses say what one row reads as."""

    __slots__ = ("starts",)
    __hash__ = None

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return tuple(map(self._row, range(*i.indices(n))))
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("row index out of range")
        return self._row(i)

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._arrays() == other._arrays()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class IntRows(_Rows):
    """Rows of integers; row ``i`` is an array slice of ``values``."""

    __slots__ = ("values",)

    def __init__(self, starts: array, values: array):
        self.starts = starts
        self.values = values

    def _arrays(self):
        return self.starts, self.values

    def _row(self, i: int) -> array:
        return self.values[self.starts[i] : self.starts[i + 1]]

    def lengths(self) -> array:
        s = self.starts
        lengths = [s[i + 1] - s[i] for i in range(len(self))]
        return packed(lengths, max(lengths, default=0))


class PairRows(_Rows):
    """Rows of (column, value) pairs; row ``i`` reads as a tuple of pairs."""

    __slots__ = ("cols", "vals")

    def __init__(self, starts: array, cols: array, vals: array):
        self.starts = starts
        self.cols = cols
        self.vals = vals

    def _arrays(self):
        return self.starts, self.cols, self.vals

    def _row(self, i: int) -> tuple[tuple[int, int], ...]:
        a, b = self.starts[i], self.starts[i + 1]
        return tuple(zip(self.cols[a:b], self.vals[a:b]))

"""Compact integer storage for the front end's tables and results.

Orbit ids, orbit lengths, incidence tables and matrix entries live in
``array.array`` buffers of the narrowest unsigned item type that holds
their largest value.  Ragged rows are stored flat: row ``i`` spans
``starts[i]:starts[i + 1]`` of the value arrays.  The row containers
read like the tuples they replace: indexing (negative indices too),
slicing, ``len`` and iteration all work.  A search's solutions are
stored the same way by ``Solutions``.
"""

from __future__ import annotations

import sys
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


def narrowed(buf: array, code: str) -> memoryview:
    """The low-order ``code`` item of each item of ``buf``, as a strided
    view: each item's value wherever it fits the narrower type."""
    items = memoryview(buf).cast("B").cast(code)
    step = buf.itemsize // items.itemsize
    return items[0 if sys.byteorder == "little" else step - 1 :: step]


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


class Solutions(_Rows):
    """Solutions of an exact-cover search; row ``i`` reads as a tuple.

    The row ids of all solutions lie back to back in ``rows``, and
    ``starts`` holds 0 and then each solution's end offset.  Both search
    kernels start from ``over``, which picks narrow item types, and append
    to these arrays as they go; ``of`` uses C ints and int64 offsets.  The
    container equals, and hashes like, the tuple of tuples it stands for.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: array | None = None, starts: array | None = None):
        self.rows = array("i") if rows is None else rows
        self.starts = array("q", [0]) if starts is None else starts

    @classmethod
    def over(cls, n_rows: int) -> Solutions:
        """No solutions yet, stored narrow: row ids 0 .. n_rows - 1 in the
        narrowest unsigned item type that holds them, end offsets in
        unsigned 32-bit items until one outgrows them."""
        return cls(packed([], max(n_rows - 1, 0)), array("I", [0]))

    def starts_for(self, end: int) -> array:
        """``starts``, first widened to 64-bit items if ``end`` does not fit."""
        if end >> 8 * self.starts.itemsize:
            self.starts = array("Q", self.starts)
        return self.starts

    @classmethod
    def of(cls, solutions) -> Solutions:
        """Store an iterable of row-id sequences."""
        out = cls()
        for sol in solutions:
            out.rows.extend(sol)
            out.starts.append(len(out.rows))
        return out

    def _arrays(self):
        return self.starts, self.rows

    def _row(self, i: int) -> tuple[int, ...]:
        return tuple(self.rows[self.starts[i] : self.starts[i + 1]])

    def __eq__(self, other):
        if isinstance(other, Solutions):
            return self._arrays() == other._arrays()
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            isinstance(b, Sequence) and a == tuple(b) for a, b in zip(self, other)
        )

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def _width(self) -> int | None:
        """The length every solution has, or None if they differ or there
        are none."""
        n, s = len(self), self.starts
        if not n or len(self.rows) != s[1] * n:
            return None
        m = s[1]
        if m:
            # compare the offsets with 0, m, 2m, ... a chunk at a time, so
            # the check makes no temporary as large as the offsets
            step = 1 << 16
            for i in range(0, n + 1, step):
                j = min(i + step, n + 1)
                if s[i:j] != array(s.typecode, range(i * m, j * m, m)):
                    return None
        return m

    @property
    def __array_interface__(self) -> dict:
        """numpy's view of equal-length solutions as an (n, m) int array.

        Absent, as for a tuple of tuples, when the lengths differ or there
        is no solution; numpy then reads the rows one by one.
        """
        m = self._width()
        if m is None:
            raise AttributeError("__array_interface__")
        return {
            "shape": (len(self), m),
            "typestr": f"{'<' if sys.byteorder == 'little' else '>'}"
            f"{'i' if self.rows.typecode.islower() else 'u'}{self.rows.itemsize}",
            "data": memoryview(self.rows).toreadonly(),
            "version": 3,
        }

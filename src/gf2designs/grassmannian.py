"""Subspaces of F_2^v: canonical forms, enumeration, and indexing.

A subspace is stored as its reduced row echelon basis, which is unique,
so equality and hashing are structural.  Coordinates follow the vector
convention of :mod:`gf2designs.gf2`: bit ``j`` of a row word is
coordinate ``j + 1``, and the pivot of a row is its lowest set bit.
Pivots strictly increase down the basis.

The text form of a subspace is one line per basis row, ``v`` characters
of '0'/'1' each, first coordinate first.

The orbit and incidence computations work on subspace indices alone:
a matrix becomes a permutation of a layer's indices, and which
k-subspaces lie above each t-subspace is one integer table per
``(v, t, k)``, shared by every group.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

from .gf2 import GF2Matrix, _check_dim, vec_mat
from .packed import packed


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    """Number of k-dim subspaces of an n-dim space over GF(q), exactly."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def _pivot(word: int) -> int:
    return (word & -word).bit_length() - 1


def rref_basis(vectors, v: int) -> tuple[int, ...]:
    """Reduced row echelon basis of the span of ``vectors``, pivots ascending."""
    rows: list[int] = []  # kept fully reduced against one another
    for vec in vectors:
        if vec < 0 or vec >> v:
            raise ValueError(f"vector out of range for dimension {v}")
        for b in rows:
            if vec & (b & -b):
                vec ^= b
        if vec:
            rows = [b ^ vec if b & (vec & -vec) else b for b in rows]
            rows.append(vec)
    rows.sort(key=_pivot)
    return tuple(rows)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^v held as its unique reduced echelon basis."""

    rows: tuple[int, ...]
    v: int

    def __post_init__(self) -> None:
        _check_dim(self.v)
        if len(self.rows) > self.v:
            raise ValueError("more basis rows than the ambient dimension")
        pivots = []
        for r in self.rows:
            if r <= 0 or r >> self.v:
                raise ValueError(f"basis row out of range for dimension {self.v}")
            pivots.append(_pivot(r))
        if any(a >= b for a, b in zip(pivots, pivots[1:])):
            raise ValueError("basis pivots must strictly increase")
        for i, r in enumerate(self.rows):
            for j, p in enumerate(pivots):
                if i != j and (r >> p) & 1:
                    raise ValueError("basis is not fully reduced")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[int]:
        """All 2^dim member words, the zero vector included."""
        return [vec_mat(mask, self.rows) for mask in range(1 << self.dim)]

    def contains_vector(self, x: int) -> bool:
        for b in self.rows:
            if x & (b & -b):
                x ^= b
        return x == 0

    def contains(self, other: "Subspace") -> bool:
        """Whether ``other`` is a subspace of this one."""
        if self.v != other.v:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(r) for r in other.rows)

    def image(self, m: GF2Matrix) -> "Subspace":
        """Image subspace under the right action of an invertible matrix."""
        if self.v != m.dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(rref_basis((vec_mat(r, m.rows) for r in self.rows), self.v), self.v)

    def to_text(self) -> str:
        return "\n".join(
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.v))
            for r in self.rows
        )


def span(vectors, v: int) -> Subspace:
    """Canonical subspace spanned by arbitrary (possibly dependent) vectors."""
    return Subspace(rref_basis(vectors, v), v)


def parse_subspace(text: str, v: int) -> Subspace:
    """Parse the text form; the lines must be an independent set."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    vecs = []
    for ln in lines:
        if len(ln) != v or set(ln) - {"0", "1"}:
            raise ValueError(f"bad subspace row {ln!r}: want {v} chars of 0/1")
        vecs.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
    sub = span(vecs, v)
    if sub.dim != len(lines):
        raise ValueError("subspace rows are linearly dependent")
    return sub


@lru_cache(maxsize=None)
def enumerate_subspaces(v: int, k: int) -> tuple[Subspace, ...]:
    """All k-dim subspaces of F_2^v, sorted ascending by basis row words.

    Every reduced echelon basis arises from one choice of pivot columns
    plus one assignment of its free positions, so each subspace is built
    exactly once.
    """
    _check_dim(v)
    if k < 0 or k > v:
        return ()
    if k == 0:
        return (Subspace((), v),)
    out = []
    for pivots in combinations(range(v), k):
        pivot_set = set(pivots)
        free = [
            [q for q in range(p + 1, v) if q not in pivot_set] for p in pivots
        ]
        counts = [len(f) for f in free]
        total = sum(counts)
        for assign in range(1 << total):
            rows = []
            pos = 0
            for i, p in enumerate(pivots):
                word = 1 << p
                for q in free[i]:
                    if (assign >> pos) & 1:
                        word |= 1 << q
                    pos += 1
                rows.append(word)
            out.append(tuple(rows))
    out.sort()
    return tuple(_echelon(rows, v) for rows in out)


def _echelon(rows: tuple[int, ...], v: int) -> Subspace:
    """A subspace from a basis already in reduced echelon form, unchecked."""
    sub = object.__new__(Subspace)
    object.__setattr__(sub, "rows", rows)
    object.__setattr__(sub, "v", v)
    return sub


@lru_cache(maxsize=None)
def _point_sets(v: int, r: int):
    """Points of every r-subspace and the lookup from point set to index.

    A point is a nonzero vector ``x``; a point set is the integer with
    bit ``x - 1`` set for each point.  Row ``i`` of the first result
    lists subspace ``i``'s points in coefficient order: point ``c - 1``
    is the combination of basis rows selected by the bits of ``c``.
    Built on first use and shared by every group.
    """
    points = []
    rank = {}
    for i, sub in enumerate(enumerate_subspaces(v, r)):
        pts = [0]
        for b in sub.rows:
            pts += [p ^ b for p in pts]
        pts = tuple(pts[1:])
        points.append(pts)
        rank[sum(1 << (x - 1) for x in pts)] = i
    return tuple(points), rank


def layer_permutation(m: GF2Matrix, v: int, r: int) -> list[int]:
    """Index of the image of every r-subspace of F_2^v under ``m``.

    Each point is mapped through the matrix once; a subspace's image is
    then looked up by the point set of the images of its points.
    """
    if m.dim != v:
        raise ValueError("ambient dimension mismatch")
    points, rank = _point_sets(v, r)
    image_bit = [0] + [1 << (vec_mat(x, m.rows) - 1) for x in range(1, 1 << v)]
    # the image points are distinct, so the sum of their bits is their union
    return [rank[sum(map(image_bit.__getitem__, pts))] for pts in points]


@lru_cache(maxsize=None)
def incidence(v: int, t: int, k: int) -> array:
    """The k-subspaces containing each t-subspace of F_2^v, as one flat table.

    Row ``i`` is ``table[i * d:(i + 1) * d]`` with ``d = [v-t, k-t]_2``:
    the indices of the k-subspaces above t-subspace ``i``, ascending.
    The table does not depend on any group; it is built on first use by
    listing the t-subspaces inside each k-subspace.
    """
    if not 0 <= t <= k <= v:
        raise ValueError("need 0 <= t <= k <= v")
    _, t_rank = _point_sets(v, t)
    k_points, _ = _point_sets(v, k)
    # the t-subspaces of F_2^k, as positions into a k-subspace's points
    patterns = (
        [tuple(c - 1 for c in pts) for pts in _point_sets(k, t)[0]] if k else [()]
    )
    above: list[list[int]] = [[] for _ in range(len(t_rank))]
    for j, pts in enumerate(k_points):
        bits = [1 << (x - 1) for x in pts]
        for pattern in patterns:
            above[t_rank[sum(map(bits.__getitem__, pattern))]].append(j)
    return packed(chain.from_iterable(above), len(k_points))


class GrassmannianIndex:
    """Dense 0-based indexing of the k-dim subspaces of F_2^v."""

    def __init__(self, v: int, k: int):
        self.v = v
        self.k = k
        self.subspaces = enumerate_subspaces(v, k)
        self._rank = {s: i for i, s in enumerate(self.subspaces)}

    def __len__(self) -> int:
        return len(self.subspaces)

    def rank(self, sub: Subspace) -> int:
        try:
            return self._rank[sub]
        except KeyError:
            raise ValueError(f"not a {self.k}-subspace of F_2^{self.v}") from None

    def unrank(self, i: int) -> Subspace:
        if not 0 <= i < len(self.subspaces):
            raise IndexError(i)
        return self.subspaces[i]


@lru_cache(maxsize=None)
def grassmannian_index(v: int, k: int) -> GrassmannianIndex:
    """Shared index instances; the rank dict is worth caching."""
    return GrassmannianIndex(v, k)

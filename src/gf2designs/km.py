"""The orbit incidence system and its cheap infeasibility screens.

For a group G acting on F_2^v, the incidence matrix has one row per
G-orbit of t-subspaces and one column per G-orbit of k-subspaces; the
entry at (T-orbit, K-orbit) counts the members of the K-orbit containing
a fixed representative T, a count independent of that choice.  A
G-invariant t-(v,k,lambda) design exists exactly when some 0/1 column
selection hits every row sum lambda, so after discarding columns with an
entry above lambda the instance becomes exact cover for lambda = 1.

Two screens decide many instances without search: a row left all-zero
cannot be covered at all, and the chosen column orbits must have lengths
summing to the design's block count, a bounded subset-sum question.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from math import gcd

from .cover import CoverProblem
from .designs import DesignParams, lambda_s
from .grassmannian import gaussian_binomial, incidence
from .orbits import MatrixGroup, OrbitPartition, format_signature, orbits
from .packed import PairRows, packed


class UnsupportedLambdaError(ValueError):
    """Cover conversion requested for an index the solver does not handle."""


@dataclass(frozen=True)
class KMMatrix:
    """Sparse orbit incidence matrix with both orbit partitions attached.

    ``entries[i]`` lists (column orbit id, value) pairs ascending by
    column; absent pairs are zero.  The pairs are held in flat integer
    arrays (:class:`gf2designs.packed.PairRows`).
    """

    group_name: str
    t: int
    k: int
    v: int
    row_orbits: OrbitPartition
    col_orbits: OrbitPartition
    entries: PairRows

    @property
    def n_rows(self) -> int:
        return self.row_orbits.n_orbits

    @property
    def n_cols(self) -> int:
        return self.col_orbits.n_orbits

    def row_sum(self, i: int) -> int:
        return sum(val for _, val in self.entries[i])


def build_km_matrix(
    group: MatrixGroup,
    t: int,
    k: int,
    v: int,
    row_part: OrbitPartition | None = None,
    col_part: OrbitPartition | None = None,
) -> KMMatrix:
    """Construct the incidence matrix from the shared t->k incidence table.

    For each row representative, the column orbit ids of the
    [v-t, k-t]_2 k-subspaces above it are tallied, so the cost scales
    with rows, not rows times columns.  Precomputed orbit partitions may
    be passed in to skip recomputation.
    """
    if not 0 <= t <= k <= v:
        raise ValueError("need 0 <= t <= k <= v")
    if row_part is None:
        row_part = orbits(group, v, t)
    if col_part is None:
        col_part = orbits(group, v, k)
    if (row_part.v, row_part.r) != (v, t) or (col_part.v, col_part.r) != (v, k):
        raise ValueError("orbit partitions do not match the requested layers")
    above = incidence(v, t, k)
    d = gaussian_binomial(v - t, k - t)
    col_of = col_part.orbit_of
    starts, cols, vals = [0], [], []
    for oid in range(row_part.n_orbits):
        rep = row_part.representative_index(oid)
        tally = Counter(map(col_of.__getitem__, above[rep * d : (rep + 1) * d]))
        row = sorted(tally)
        cols += row
        vals += map(tally.__getitem__, row)
        starts.append(len(cols))
    entries = PairRows(
        packed(starts, len(cols)), packed(cols, col_part.n_orbits), packed(vals, d)
    )
    return KMMatrix(
        group_name=group.name,
        t=t,
        k=k,
        v=v,
        row_orbits=row_part,
        col_orbits=col_part,
        entries=entries,
    )


@dataclass(frozen=True)
class ReducedKM:
    """The matrix after discarding columns with an entry above lambda.

    ``kept_columns`` is an integer array of column orbit ids, ascending.
    """

    base: KMMatrix
    lam: int
    kept_columns: array
    zero_rows: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.base.n_rows, len(self.kept_columns))

    @property
    def kept_lengths(self) -> tuple[int, ...]:
        lengths = self.base.col_orbits.lengths
        return tuple(lengths[c] for c in self.kept_columns)

    def kept_signature(self) -> str:
        return format_signature(self.kept_lengths)


def reduce_km(m: KMMatrix, lam: int) -> ReducedKM:
    """Drop every column orbit whose incidence exceeds lambda anywhere."""
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    e = m.entries
    dropped = set(compress(e.cols, map(lam.__lt__, e.vals)))
    kept = packed((c for c in range(m.n_cols) if c not in dropped), m.n_cols)
    zero_rows = tuple(
        i
        for i in range(m.n_rows)
        if all(c in dropped for c in e.cols[e.starts[i] : e.starts[i + 1]])
    )
    return ReducedKM(base=m, lam=lam, kept_columns=kept, zero_rows=zero_rows)


class VerdictKind(Enum):
    ZERO_ROW = "zero-row"
    ORBIT_SUM = "orbit-sum"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FeasibilityVerdict:
    kind: VerdictKind
    witness: str


def _subset_sum_reachable(lengths, target: int) -> bool:
    """Bounded-multiplicity subset-sum via a reachability bitmask."""
    reach = 1  # bit s set <=> sum s attainable
    mask = (1 << (target + 1)) - 1
    for length, count in sorted(Counter(lengths).items()):
        count = min(count, target // length if length else 0)
        for _ in range(count):
            new = reach | (reach << length) & mask
            if new == reach:
                break
            reach = new
        if (reach >> target) & 1:
            return True
    return (reach >> target) & 1 == 1


def feasibility_screen(r: ReducedKM, lam: int) -> FeasibilityVerdict:
    """Decide trivial insolvability: no way to write the block count as a
    sum of kept column orbit lengths, or an uncoverable row.

    The length argument is tried first.  When every kept orbit shares a
    common length that misses the block count, reduction typically also
    empties a row, so both screens can apply; the sum argument is the
    one reported because it is independent of which rows went empty.
    """
    m = r.base
    params = DesignParams(m.t, m.v, m.k, lam)
    blocks = lambda_s(params, 0)
    if blocks.denominator != 1:
        return FeasibilityVerdict(
            VerdictKind.ORBIT_SUM,
            f"block count {blocks} is not an integer",
        )
    target = int(blocks)
    if not _subset_sum_reachable(r.kept_lengths, target):
        return FeasibilityVerdict(
            VerdictKind.ORBIT_SUM,
            f"no sub-multiset of kept orbit lengths sums to {target}",
        )
    if r.zero_rows:
        return FeasibilityVerdict(
            VerdictKind.ZERO_ROW,
            f"row orbit {r.zero_rows[0]} has no incidence left",
        )
    return FeasibilityVerdict(VerdictKind.UNKNOWN, "screens passed")


def forced_by_length_residue(r: ReducedKM, lam: int = 1) -> tuple[int, ...]:
    """Kept positions provably in every solution by a residue argument.

    If all kept lengths above 1 share a divisor d, the number of chosen
    length-1 orbits is fixed modulo d by the block count; when the only
    feasible number equals the number available, all of them are forced.
    """
    lengths = r.kept_lengths
    singles = tuple(i for i, n in enumerate(lengths) if n == 1)
    others = [n for n in lengths if n > 1]
    if not singles or not others:
        return ()
    d = 0
    for n in others:
        d = gcd(d, n)
    if d <= 1:
        return ()
    params = DesignParams(r.base.t, r.base.v, r.base.k, lam)
    blocks = lambda_s(params, 0)
    if blocks.denominator != 1:
        return ()
    feasible = [c for c in range(len(singles) + 1) if c % d == int(blocks) % d]
    if feasible == [len(singles)]:
        return singles
    return ()


def to_cover_problem(
    r: ReducedKM,
    lam: int = 1,
    forced=(),
    forbidden=(),
    count_constraints=(),
) -> CoverProblem:
    """Transpose the reduced system into exact cover.

    Cover columns are the t-orbits (all of them, zero rows included, so
    an uncoverable row honestly shows up as unsatisfiable); cover rows
    are the kept column orbits.  ``forced``, ``forbidden``, and
    ``count_constraints`` use positions into ``kept_columns``, the same
    numbering the returned problem's rows use.  Row weights carry the
    column orbit lengths.
    """
    if lam != 1:
        raise UnsupportedLambdaError("the cover solver handles lambda = 1 only")
    if r.lam != 1:
        raise UnsupportedLambdaError("reduction was taken at a different lambda")
    m = r.base
    e = m.entries
    incid: list[list[int]] = [[] for _ in r.kept_columns]
    # the cover row of each column orbit, None for a dropped one
    row_of: list[list[int] | None] = [None] * m.n_cols
    for c, cover_row in zip(r.kept_columns, incid):
        row_of[c] = cover_row
    for i in range(m.n_rows):
        for c in e.cols[e.starts[i] : e.starts[i + 1]]:
            cover_row = row_of[c]
            if cover_row is not None:
                cover_row.append(i)
    return CoverProblem(
        n_cols=m.n_rows,
        rows=tuple(tuple(cols) for cols in incid),
        forced=frozenset(forced),
        forbidden=frozenset(forbidden),
        count_constraints=tuple(
            (frozenset(members), t) for members, t in count_constraints
        ),
        weights=r.kept_lengths,
    )


def dump_km(m: KMMatrix, lam: int = 1) -> str:
    """Serialize the full matrix: a header, then nonzero entries row-major."""
    lines = [
        f"{m.t} {m.k} {m.v} {m.group_name or 'anonymous'} "
        f"{m.n_rows} {m.n_cols} {lam}"
    ]
    for i, row in enumerate(m.entries):
        for c, val in row:
            lines.append(f"{i} {c} {val}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class KMDump:
    """Parsed form of a matrix dump, enough to compare and rebuild covers."""

    t: int
    k: int
    v: int
    group_name: str
    n_rows: int
    n_cols: int
    lam: int
    entries: tuple[tuple[int, int, int], ...]


def parse_km_dump(text: str) -> KMDump:
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 7:
        raise ValueError("line 1: expected 't k v group rows cols lambda'")
    try:
        t, k, v = (int(x) for x in header[:3])
        n_rows, n_cols, lam = (int(x) for x in header[4:])
    except ValueError:
        raise ValueError("line 1: malformed header") from None
    entries = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'row col value'")
        try:
            i, c, val = (int(x) for x in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer entry") from None
        if not (0 <= i < n_rows and 0 <= c < n_cols and val > 0):
            raise ValueError(f"line {lineno}: entry out of range")
        entries.append((i, c, val))
    return KMDump(t, k, v, header[3], n_rows, n_cols, lam, tuple(entries))


def km_row_sum_expected(t: int, k: int, v: int) -> int:
    """Every row of the full matrix sums to the superspace count."""
    return gaussian_binomial(v - t, k - t, 2)

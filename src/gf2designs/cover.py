"""Exact-cover instances and the dancing-links front end.

The compiled kernel (``_dlx``, built with the system C compiler on
first import) is preferred; if it cannot be built, a warning names the
cause and the pure-Python twin runs instead.  Setting the environment
variable ``GF2DESIGNS_PURE_PY`` (to any non-empty value) forces the
twin.  Both kernels run the same algorithm, so swapping backends changes
speed only, never node counts.

A problem may carry forced rows (preselected, their columns dropped),
forbidden rows (never selectable), and exact-count side constraints
("exactly n of these rows in any solution").  Solutions are always
reported in the original row numbering, forced rows included.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass
from enum import Enum

if os.environ.get("GF2DESIGNS_PURE_PY"):
    from . import _dlx_py as _kernel
else:
    try:
        from . import _dlx as _kernel
    except ImportError as exc:
        warnings.warn(
            f"compiled search kernel unavailable, using pure Python: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        from . import _dlx_py as _kernel

BACKEND = _kernel.BACKEND

_UNLIMITED = 1 << 62


class ForcedConflictError(ValueError):
    """Forced rows clash with each other or with a count constraint."""


class ProblemFormatError(ValueError):
    """A problem file failed to parse; the message carries the line number."""


class Status(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class CoverProblem:
    """An exact-cover instance over columns 0..n_cols-1.

    ``rows[i]`` is the sorted tuple of columns row i covers.  ``weights``
    is optional per-row reporting data (orbit lengths in the design
    search) and does not influence solving.
    """

    n_cols: int
    rows: tuple[tuple[int, ...], ...]
    forced: frozenset[int] = frozenset()
    forbidden: frozenset[int] = frozenset()
    count_constraints: tuple[tuple[frozenset[int], int], ...] = ()
    weights: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # normalize the collections so equality and hashing behave
        object.__setattr__(
            self, "rows", tuple(tuple(sorted(set(r))) for r in self.rows)
        )
        object.__setattr__(self, "forced", frozenset(self.forced))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        object.__setattr__(
            self,
            "count_constraints",
            tuple((frozenset(m), int(t)) for m, t in self.count_constraints),
        )
        if self.n_cols < 0:
            raise ValueError("n_cols must be >= 0")
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if not row:
                raise ValueError(f"row {i} covers no columns")
            if row[0] < 0 or row[-1] >= self.n_cols:
                raise ValueError(f"row {i} has a column index out of range")
        for name, ids in (("forced", self.forced), ("forbidden", self.forbidden)):
            for r in ids:
                if not 0 <= r < n:
                    raise ValueError(f"{name} row {r} out of range")
        if self.forced & self.forbidden:
            raise ValueError("a row is both forced and forbidden")
        for members, t in self.count_constraints:
            if t < 0:
                raise ValueError("count-constraint target must be >= 0")
            for r in members:
                if not 0 <= r < n:
                    raise ValueError(f"count-constraint row {r} out of range")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            if len(self.weights) != n:
                raise ValueError("need one weight per row")
            if any(w < 1 for w in self.weights):
                raise ValueError("weights must be positive")

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    ``status`` is SAT as soon as one solution was found, TIMEOUT if the
    deadline fell before the search space was exhausted and nothing was
    found, UNSAT only after exhaustion.  ``exhausted`` records whether
    the whole space was searched, so SAT + exhausted means ``solutions``
    is the complete solution list (up to the requested cap).
    """

    status: Status
    solutions: tuple[tuple[int, ...], ...]
    nodes: int
    elapsed: float
    exhausted: bool


def _check_forced_disjoint(p: CoverProblem) -> set[int]:
    """Columns covered by the forced rows; error if any two overlap."""
    covered: set[int] = set()
    for r in sorted(p.forced):
        cols = set(p.rows[r])
        clash = covered & cols
        if clash:
            raise ForcedConflictError(
                f"forced rows share column {min(clash)}"
            )
        covered |= cols
    return covered


def _reduce(p: CoverProblem):
    """Strip forced and forbidden rows out of the instance.

    Returns (column count, rows, constraints, kept row ids) where rows
    are renumbered to dense local ids and columns to dense new ids.
    Constraint targets are lowered by the forced members and may come
    out negative, which the kernel reports as unsatisfiable.
    """
    covered = _check_forced_disjoint(p)
    col_map = {}
    for c in range(p.n_cols):
        if c not in covered:
            col_map[c] = len(col_map)
    kept: list[int] = []
    for i, row in enumerate(p.rows):
        if i in p.forced or i in p.forbidden:
            continue
        if any(c in covered for c in row):
            continue
        kept.append(i)
    local = {orig: j for j, orig in enumerate(kept)}
    rows = [tuple(col_map[c] for c in p.rows[i]) for i in kept]
    cons = []
    for members, t in p.count_constraints:
        t -= len(members & p.forced)
        cons.append((tuple(sorted(local[r] for r in members if r in local)), t))
    return len(col_map), rows, cons, kept


def apply_forcing(p: CoverProblem) -> CoverProblem:
    """Select the forced rows and return the residual instance.

    Their columns disappear (renumbered densely), rows touching those
    columns disappear with them (renumbered too), and count-constraint
    targets drop by the number of forced members.  A target driven
    negative means the forced set already violates the constraint.
    """
    n_cols, rows, cons, kept = _reduce(p)
    if any(t < 0 for _, t in cons):
        raise ForcedConflictError("forced rows overshoot a count constraint")
    weights = None
    if p.weights is not None:
        weights = tuple(p.weights[i] for i in kept)
    return CoverProblem(
        n_cols=n_cols,
        rows=tuple(rows),
        count_constraints=tuple((frozenset(m), t) for m, t in cons),
        weights=weights,
    )


def check_solution(p: CoverProblem, rows) -> bool:
    """Independent validity check, no dancing links involved."""
    chosen = set(rows)
    if not chosen <= set(range(p.n_rows)):
        return False
    if not p.forced <= chosen or chosen & p.forbidden:
        return False
    seen: set[int] = set()
    for r in chosen:
        for c in p.rows[r]:
            if c in seen:
                return False
            seen.add(c)
    if len(seen) != p.n_cols:
        return False
    for members, t in p.count_constraints:
        if len(chosen & members) != t:
            return False
    return True


def dlx_solve(
    p: CoverProblem,
    max_solutions: int | None = 1,
    timeout: float | None = None,
) -> SolveResult:
    """Solve by exhaustive dancing-links search.

    ``max_solutions=None`` enumerates every solution.  ``timeout`` is
    wall seconds, finite and >= 0; ``None`` searches without a deadline.
    """
    cap = _UNLIMITED if max_solutions is None else int(max_solutions)
    if cap < 1:
        raise ValueError("max_solutions must be >= 1")
    if timeout is not None and not 0 <= timeout < math.inf:
        raise ValueError(f"timeout must be finite and >= 0, got {timeout!r}")
    start = time.monotonic()
    deadline = -1.0 if timeout is None else start + timeout
    n_cols, rows, cons, kept = _reduce(p)
    code, solutions, nodes = _kernel.solve(n_cols, rows, cons, cap, deadline)
    # remap in place: the kernel's row lists and the result tuples are
    # never both whole in memory
    forced = sorted(p.forced)
    for i, sol in enumerate(solutions):
        solutions[i] = tuple(sorted([kept[j] for j in sol] + forced))
    if solutions:
        status = Status.SAT
    elif code == _kernel.TIMED_OUT:
        status = Status.TIMEOUT
    else:
        status = Status.UNSAT
    return SolveResult(
        status=status,
        solutions=tuple(solutions),
        nodes=nodes,
        elapsed=time.monotonic() - start,
        exhausted=code == _kernel.EXHAUSTED,
    )


def emit_problem(p: CoverProblem) -> str:
    """Serialize: a ``p cover`` header, row lines, then f/c lines."""
    lines = [f"p cover {p.n_cols} {p.n_rows}"]
    for row in p.rows:
        lines.append(" ".join(str(c) for c in row))
    for r in sorted(p.forced):
        lines.append(f"f {r}")
    for members, t in p.count_constraints:
        lines.append("c " + " ".join(str(x) for x in [t, *sorted(members)]))
    return "\n".join(lines) + "\n"


def parse_problem(text: str) -> CoverProblem:
    """Parse the problem file format; errors carry 1-based line numbers.

    Column and row indices are 0-based.  Blank lines and ``#`` comments
    are skipped.  Forbidden rows have no file syntax; they are
    programmatic only.
    """
    n_cols = n_rows = -1
    rows: list[tuple[int, ...]] = []
    forced: set[int] = set()
    cons: list[tuple[frozenset[int], int]] = []

    def fail(lineno, msg):
        raise ProblemFormatError(f"line {lineno}: {msg}")

    def ints(lineno, tokens):
        out = []
        for tok in tokens:
            try:
                out.append(int(tok))
            except ValueError:
                fail(lineno, f"expected an integer, got {tok!r}")
        return out

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n_cols < 0:
            if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "cover":
                fail(lineno, "expected header 'p cover <n_cols> <n_rows>'")
            n_cols, n_rows = ints(lineno, tokens[2:])
            if n_cols < 0 or n_rows < 0:
                fail(lineno, "header counts must be >= 0")
        elif tokens[0] == "f":
            if len(tokens) != 2:
                fail(lineno, "force line is 'f <row>'")
            (r,) = ints(lineno, tokens[1:])
            if not 0 <= r < n_rows:
                fail(lineno, f"forced row {r} out of range")
            forced.add(r)
        elif tokens[0] == "c":
            if len(tokens) < 2:
                fail(lineno, "count line is 'c <count> <row...>'")
            vals = ints(lineno, tokens[1:])
            t, members = vals[0], vals[1:]
            if t < 0:
                fail(lineno, "count target must be >= 0")
            for r in members:
                if not 0 <= r < n_rows:
                    fail(lineno, f"count-constraint row {r} out of range")
            cons.append((frozenset(members), t))
        else:
            if len(rows) >= n_rows:
                fail(lineno, f"more than {n_rows} row lines")
            cols = ints(lineno, tokens)
            for c in cols:
                if not 0 <= c < n_cols:
                    fail(lineno, f"column {c} out of range")
            rows.append(tuple(cols))
    if n_cols < 0:
        raise ProblemFormatError("line 1: missing 'p cover' header")
    if len(rows) != n_rows:
        raise ProblemFormatError(
            f"line {len(text.splitlines())}: expected {n_rows} rows, got {len(rows)}"
        )
    return CoverProblem(
        n_cols=n_cols,
        rows=tuple(rows),
        forced=frozenset(forced),
        count_constraints=tuple(cons),
    )

"""Checks on the benchmark's outputs, computed apart from the program.

Every check takes plain data (orbit lengths, matrix entries, node counts,
solution arrays) and returns a list of problems; an empty list means the
output passed.  Nothing here imports ``gf2designs``: the counts, the
signatures and the expectation table are worked out or parsed again
here, so a fault in the program cannot also hide itself in its check.
"""

from collections import Counter
from pathlib import Path

# the screen a catalog verdict class implies; solver rows pass both screens
SCREEN_OF_VERDICT = {
    "zero-row": "zero-row",
    "orbit-sum": "orbit-sum",
    "solved-unsat": "unknown",
    "open": "unknown",
}


def gaussian_binomial(n, k):
    """Number of k-dimensional subspaces of F_2^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def gl_order(n, q=2):
    """|GL(n, q)|."""
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def desarguesian_spread_count(k):
    """Number of Desarguesian k-spreads of F_2^{2k}: |GL(2k,2)| / |ΓL(2,2^k)|.

    GL(2k,2) acts transitively on them with stabiliser ΓL(2,2^k), whose
    order is |GL(2,2^k)| times the k field automorphisms.  For k = 2 and
    k = 3 every spread is Desarguesian, so this counts all of them.
    """
    return gl_order(2 * k) // (gl_order(2, 2**k) * k)


def signature(lengths):
    """Orbit lengths as ``len^count`` words, lengths descending."""
    counts = Counter(lengths)
    return " ".join(f"{n}^{counts[n]}" for n in sorted(counts, reverse=True))


def read_table(path):
    """The expectation table as {group name: {column: text}}, in file order."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split("\t")
    rows = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells")
        rows[cells[0]] = dict(zip(header, cells))
    return rows


def check_against_table(rec, row):
    """Signatures, shape, order and screen verdict of one group against its row."""
    problems = []
    if rec["order"] != int(row["order"]):
        problems.append(f"group order {rec['order']}, table says {row['order']}")
    reduced_lengths = [rec["k_lengths"][c] for c in rec["kept_columns"]]
    for label, lengths, reported in (
        ("t", rec["t_lengths"], rec["t_signature"]),
        ("k", rec["k_lengths"], rec["k_signature"]),
        ("reduced", reduced_lengths, rec["reduced_signature"]),
    ):
        expected = row[f"{label}_signature"]
        if signature(lengths) != expected:
            problems.append(f"{label} orbit lengths give {signature(lengths)!r}, table says {expected!r}")
        if reported != expected:
            problems.append(f"{label} signature {reported!r}, table says {expected!r}")
    expected_shape = (int(row["rows"]), int(row["cols"]))
    if tuple(rec["shape"]) != expected_shape:
        problems.append(f"reduced shape {rec['shape']}, table says {expected_shape}")
    screen = SCREEN_OF_VERDICT[row["verdict"]]
    if rec["screen"] != screen:
        problems.append(f"screen verdict {rec['screen']!r}, table implies {screen!r}")
    return problems


def check_orbit_system(rec, v, t, k):
    """Properties every orbit incidence matrix of a group on F_2^v has.

    The orbits partition each layer and their lengths divide |G|; every
    row of the full matrix counts the [v-t, k-t] k-spaces above a
    t-space; counting (t-space, k-space) flags column by column gives
    sum_i KM[i][j] |T_i| = [k, t] |K_j|; the reduction keeps exactly the
    columns with no entry above 1; the cover problem has one column per
    row orbit and one row per kept column.
    """
    problems = []
    order = rec["order"]
    for label, lengths, r in (("t", rec["t_lengths"], t), ("k", rec["k_lengths"], k)):
        if sum(lengths) != gaussian_binomial(v, r):
            problems.append(f"{label} orbit lengths sum to {sum(lengths)}, not [{v},{r}]_2")
        bad = [n for n in lengths if n < 1 or order % n]
        if bad:
            problems.append(f"{label} orbit length {bad[0]} does not divide |G| = {order}")
    entries = rec["entries"]
    t_lengths, k_lengths = rec["t_lengths"], rec["k_lengths"]
    if len(entries) != len(t_lengths):
        problems.append(f"{len(entries)} matrix rows for {len(t_lengths)} t-orbits")
        return problems
    row_sum = gaussian_binomial(v - t, k - t)
    flags = [0] * len(k_lengths)
    most = [0] * len(k_lengths)
    for i, row in enumerate(entries):
        total = 0
        for c, val in row:
            total += val
            flags[c] += val * t_lengths[i]
            most[c] = max(most[c], val)
        if total != row_sum:
            problems.append(f"matrix row {i} sums to {total}, not {row_sum}")
            break
    per_block = gaussian_binomial(k, t)
    for j, n in enumerate(k_lengths):
        if flags[j] != per_block * n:
            problems.append(
                f"column {j}: sum_i KM[i][j]*|T_i| = {flags[j]}, not {per_block}*{n}"
            )
            break
    kept = tuple(j for j in range(len(k_lengths)) if most[j] <= 1)
    if tuple(rec["kept_columns"]) != kept:
        problems.append("kept columns differ from the columns with no entry above 1")
    if tuple(rec["shape"]) != (len(t_lengths), len(rec["kept_columns"])):
        problems.append(f"reduced shape {rec['shape']} disagrees with the orbit counts")
    if tuple(rec["cover_shape"]) != (len(t_lengths), len(rec["kept_columns"])):
        problems.append(f"cover problem shape {rec['cover_shape']} disagrees with the reduction")
    return problems


def check_unsat(rec, nodes):
    """An exhausted search with no solution, after exactly ``nodes`` nodes."""
    problems = []
    if rec["status"] != "unsat" or not rec["exhausted"] or rec["n_solutions"]:
        problems.append(
            f"status {rec['status']}, exhausted {rec['exhausted']},"
            f" {rec['n_solutions']} solution(s); want an exhausted unsat"
        )
    if rec["nodes"] != nodes:
        problems.append(f"{rec['nodes']} nodes, want {nodes}")
    return problems


def point_mask(basis):
    """Bit x-1 set for every nonzero vector x in the span of ``basis``."""
    points = {0}
    for b in basis:
        points |= {p ^ b for p in points}
    return sum(1 << (p - 1) for p in points if p)


def check_spreads(solutions, masks, n_points, count, chunk=1 << 18):
    """Distinct partitions of the points into blocks, ``count`` of them.

    ``solutions`` is an (N, m) integer array of row indices, ``masks[r]``
    the point set of row r as a bit mask below 2^64.  A solution is a
    disjoint cover exactly when its blocks together have ``n_points``
    points and their union is all of them.
    """
    import numpy as np

    problems = []
    solutions = np.asarray(solutions)
    if solutions.ndim != 2 or len(solutions) != count:
        return [f"{len(solutions)} solutions of shape {solutions.shape}, want {count}"]
    masks = np.asarray(masks, dtype=np.uint64)
    sizes = np.array([bin(int(m)).count("1") for m in masks], dtype=np.int64)
    full = np.uint64((1 << n_points) - 1)
    for lo in range(0, count, chunk):
        part = solutions[lo : lo + chunk]
        union = np.bitwise_or.reduce(masks[part], axis=1)
        total = sizes[part].sum(axis=1)
        bad = np.flatnonzero((union != full) | (total != n_points))
        if bad.size:
            i = lo + int(bad[0])
            problems.append(f"solution {i} {solutions[i].tolist()} is not a disjoint cover")
            break
    rows = np.ascontiguousarray(np.sort(solutions, axis=1))
    distinct = len(np.unique(rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))))
    if distinct != count:
        problems.append(f"only {distinct} of {count} solutions are distinct")
    return problems

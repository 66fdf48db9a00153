#!/usr/bin/env python3
"""Benchmark the compiled bitset kernel against the pure-Python twin.

Both kernels execute the same algorithm with the same column heuristic,
so node counts must agree exactly; only wall time may differ.  The
script doubles as a correctness check and exits nonzero on any node
mismatch.

Usage: python benchmarks/bench_dlx.py [--repeat N] [--skip-km]
"""

import argparse
import sys
import time

from gf2designs import _dlx_py

try:
    from gf2designs import _dlx
except ImportError:
    _dlx = None

UNLIMITED = 1 << 62


def langford(n):
    """Exact-cover form of the Langford pairing problem for digits 1..n.

    Columns: n digit slots then 2n positions; a row places both copies
    of digit k at positions i and i+k+1.
    """
    rows = []
    for k in range(1, n + 1):
        for i in range(2 * n - k - 1):
            rows.append((k - 1, n + i, n + i + k + 1))
    return 3 * n, tuple(rows)


def spread_instance():
    """All 2-subspaces of F_2^4 against its 15 nonzero-vector columns."""
    from gf2designs.gf2 import GF2Matrix
    from gf2designs.km import build_km_matrix, reduce_km, to_cover_problem
    from gf2designs.orbits import group_closure

    trivial = group_closure((GF2Matrix.identity(4),), name="trivial4")
    reduced = reduce_km(build_km_matrix(trivial, 1, 2, 4), 1)
    p = to_cover_problem(reduced, 1)
    return p.n_cols, p.rows


def km_instance(name):
    """Reduced orbit-incidence instance for one catalog group."""
    from gf2designs import catalog
    from gf2designs.km import build_km_matrix, reduce_km, to_cover_problem

    group = catalog.load_group(name).closure()
    reduced = reduce_km(build_km_matrix(group, 2, 3, 7), 1)
    p = to_cover_problem(reduced, 1)
    return p.n_cols, p.rows


def run_case(kernel, n_cols, rows, max_solutions, repeat):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        code, sols, nodes = kernel.solve(n_cols, rows, (), max_solutions, -1.0)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, len(sols), nodes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="timing repetitions per case (best is kept)")
    parser.add_argument("--skip-km", action="store_true",
                        help="only run the synthetic cases")
    args = parser.parse_args(argv)

    cases = [
        ("langford-7 (all)", *langford(7), UNLIMITED),
        ("langford-8 (all)", *langford(8), UNLIMITED),
        ("spread-(1,2,4) (all)", *spread_instance(), UNLIMITED),
    ]
    if not args.skip_km:
        cases.append(("km-G_{6,3} (decide)", *km_instance("G_{6,3}"), 1))
        cases.append(("km-G_{6,2} (decide)", *km_instance("G_{6,2}"), 1))

    kernels = [("python", _dlx_py)]
    if _dlx is not None:
        kernels.insert(0, ("c", _dlx))
    else:
        print("note: compiled kernel unavailable, timing pure Python only")

    header = f"{'case':22s} {'cols':>5s} {'rows':>6s} {'nodes':>10s} {'sols':>5s}"
    for label, _ in kernels:
        header += f" {label + ' (s)':>11s}"
    if len(kernels) == 2:
        header += f" {'speedup':>8s}"
    print(header)

    ok = True
    for case_name, n_cols, rows, cap in cases:
        times, counts = {}, {}
        for label, kernel in kernels:
            best, n_sols, nodes = run_case(kernel, n_cols, rows, cap, args.repeat)
            times[label] = best
            counts[label] = (n_sols, nodes)
        line = (
            f"{case_name:22s} {n_cols:5d} {len(rows):6d}"
            f" {counts[kernels[0][0]][1]:10d} {counts[kernels[0][0]][0]:5d}"
        )
        for label, _ in kernels:
            line += f" {times[label]:11.4f}"
        if len(kernels) == 2:
            line += f" {times['python'] / times['c']:7.1f}x"
            if counts["c"] != counts["python"]:
                ok = False
                line += "  NODE MISMATCH"
        print(line)

    if not ok:
        print("error: kernels disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

import ctypes
import hashlib
import itertools
import math
import os
import random
import shutil
import subprocess
import sys
import textwrap
import time
from array import array
from pathlib import Path

import pytest

import gf2designs
from gf2designs import _dlx_py, catalog
from gf2designs.cover import (
    CoverProblem,
    ForcedConflictError,
    ProblemFormatError,
    Status,
    apply_forcing,
    check_solution,
    dlx_solve,
    emit_problem,
    parse_problem,
)
from gf2designs.gf2 import GF2Matrix
from gf2designs.grassmannian import enumerate_subspaces
from gf2designs.km import build_km_matrix, reduce_km, to_cover_problem
from gf2designs.orbits import group_closure
from gf2designs.packed import Solutions

KNUTH_ROWS = ((2, 4, 5), (0, 3, 6), (1, 2, 5), (0, 3), (1, 6), (3, 4, 6))


def brute_force(p: CoverProblem):
    """All exact covers by subset enumeration, as a set of row tuples."""
    out = set()
    ids = range(p.n_rows)
    for size in range(p.n_rows + 1):
        for combo in itertools.combinations(ids, size):
            if check_solution(p, combo):
                out.add(tuple(combo))
    return out


def random_problem(rng, with_counts=False, max_rows=12):
    n_cols = rng.randrange(3, 9)
    n_rows = rng.randrange(3, max_rows + 1)
    rows = []
    for _ in range(n_rows):
        k = rng.randrange(1, min(n_cols, 4) + 1)
        rows.append(tuple(sorted(rng.sample(range(n_cols), k))))
    cons = ()
    if with_counts:
        m = rng.randrange(1, n_rows + 1)
        members = frozenset(rng.sample(range(n_rows), m))
        cons = ((members, rng.randrange(0, m + 1)),)
    return CoverProblem(n_cols=n_cols, rows=tuple(rows), count_constraints=cons)


def test_knuth_toy_unique_cover():
    p = CoverProblem(n_cols=7, rows=KNUTH_ROWS)
    res = dlx_solve(p, max_solutions=None)
    assert res.status is Status.SAT
    assert res.exhausted
    assert res.solutions == ((0, 3, 4),)
    assert res.nodes == 5
    assert brute_force(p) == {(0, 3, 4)}


def test_uncoverable_column_is_unsat():
    p = CoverProblem(n_cols=4, rows=((0, 1), (2,)))
    res = dlx_solve(p)
    assert res.status is Status.UNSAT
    assert res.exhausted


def test_empty_problem_has_the_empty_solution():
    p = CoverProblem(n_cols=0, rows=())
    res = dlx_solve(p)
    assert res.status is Status.SAT
    assert res.solutions == ((),)


def test_problem_validation():
    with pytest.raises(ValueError):
        CoverProblem(n_cols=3, rows=((),))
    with pytest.raises(ValueError):
        CoverProblem(n_cols=3, rows=((3,),))
    with pytest.raises(ValueError):
        CoverProblem(n_cols=3, rows=((0,),), forced={1})
    with pytest.raises(ValueError):
        CoverProblem(n_cols=3, rows=((0,), (1,)), forced={0}, forbidden={0})
    with pytest.raises(ValueError):
        CoverProblem(n_cols=3, rows=((0,),), count_constraints=(({0}, -1),))
    with pytest.raises(ValueError):
        CoverProblem(n_cols=3, rows=((0,), (1, 2)), weights=(1,))


def test_oracle_equivalence_random_instances():
    rng = random.Random(100)
    for trial in range(1000):
        p = random_problem(rng, max_rows=8 if trial % 2 else 12)
        res = dlx_solve(p, max_solutions=None)
        assert res.exhausted
        found = set(res.solutions)
        assert found == brute_force(p)
        assert (res.status is Status.SAT) == bool(found)


def test_oracle_equivalence_with_count_constraints():
    rng = random.Random(101)
    for _ in range(300):
        p = random_problem(rng, with_counts=True)
        res = dlx_solve(p, max_solutions=None)
        assert set(res.solutions) == brute_force(p)


def test_count_constraints_only_filter():
    # constrained solutions = unconstrained solutions passing the check
    rng = random.Random(102)
    for _ in range(200):
        p = random_problem(rng, with_counts=True)
        free = CoverProblem(n_cols=p.n_cols, rows=p.rows)
        res_free = dlx_solve(free, max_solutions=None)
        res = dlx_solve(p, max_solutions=None)
        expected = {s for s in res_free.solutions if check_solution(p, s)}
        assert set(res.solutions) == expected


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc'")


@needs_cc
def test_backends_agree_node_for_node(monkeypatch):
    from gf2designs import _dlx

    # the default solution buffer, then its floor of n_cols + 1 ints,
    # where solutions of differing lengths straddle many batches
    for buffer in (_dlx._BUFFER, 1):
        monkeypatch.setattr(_dlx, "_BUFFER", buffer)
        rng = random.Random(103)
        for _ in range(300):
            p = random_problem(rng, with_counts=bool(rng.getrandbits(1)))
            cons = [(tuple(sorted(m)), t) for m, t in p.count_constraints]
            # all solutions, then caps of two and one (LIMIT)
            for cap in (1 << 62, 2, 1):
                args = (p.n_cols, list(p.rows), cons, cap, -1.0)
                assert _dlx.solve(*args) == _dlx_py.solve(*args)


def wide_problem(rng, with_counts):
    """65 to 200 rows of 3 to 6 columns around one planted exact cover,
    so every bitset spans two to four 64-bit words."""
    n_cols = rng.randrange(24, 41)
    perm = rng.sample(range(n_cols), n_cols)
    rows = []
    while perm:
        k = rng.randrange(3, 7)
        rows.append(tuple(sorted(perm[:k])))
        perm = perm[k:]
    planted = len(rows)
    n_rows = rng.randrange(65, 201)
    while len(rows) < n_rows:
        rows.append(tuple(sorted(rng.sample(range(n_cols), rng.randrange(3, 7)))))
    order = rng.sample(range(n_rows), n_rows)
    rows = [rows[i] for i in order]
    cons = []
    if with_counts:
        # targets the planted cover meets, then maybe one drawn at random
        for _ in range(rng.randrange(1, 4)):
            members = rng.sample(range(n_rows), rng.randrange(1, n_rows + 1))
            cons.append((tuple(sorted(members)), sum(order[j] < planted for j in members)))
        if rng.getrandbits(1):
            members = rng.sample(range(n_rows), rng.randrange(1, n_rows + 1))
            cons.append((tuple(sorted(members)), rng.randrange(0, 4)))
    return n_cols, rows, cons


@needs_cc
def test_backends_agree_node_for_node_on_wide_instances():
    from gf2designs import _dlx

    rng = random.Random(104)
    for trial in range(100):
        n_cols, rows, cons = wide_problem(rng, with_counts=bool(trial % 2))
        for cap in (1 << 62, 2, 1):
            args = (n_cols, rows, cons, cap, -1.0)
            assert _dlx.solve(*args) == _dlx_py.solve(*args)
    # the reduced criterion-4 problems of G_{6,3} and G_{6,2}: 17 and 19 words
    for name, n_rows, nodes in (("G_{6,3}", 1080, 6121), ("G_{6,2}", 1171, 25904)):
        group = catalog.load_group(name).closure()
        p = to_cover_problem(reduce_km(build_km_matrix(group, 2, 3, 7), 1), 1)
        assert (p.n_rows, p.count_constraints) == (n_rows, ())
        args = (p.n_cols, list(p.rows), [], 1, -1.0)
        assert _dlx.solve(*args) == _dlx_py.solve(*args) == (_dlx.EXHAUSTED, [], nodes)


@needs_cc
def test_kernel_compiles_cleanly_with_warnings_as_errors():
    source = Path(gf2designs.__file__).with_name("dlx_kernel.c")
    proc = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(source)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@needs_cc
def test_compiled_kernel_stops_at_its_deadline():
    # triples cannot cover 22 columns, and exhausting the search would
    # take hours: the kernel must stop soon after its deadline
    from gf2designs import _dlx

    rows = list(itertools.combinations(range(22), 3))
    start = time.monotonic()
    status, solutions, nodes = _dlx.solve(22, rows, [], 1, start + 0.05)
    assert (status, solutions) == (_dlx.TIMED_OUT, [])
    assert nodes > 0
    assert time.monotonic() - start < 2.0


@needs_cc
def test_compiled_kernel_rejects_out_of_range_indices():
    from gf2designs import _dlx

    with pytest.raises(ValueError):
        _dlx.solve(2, [(0, 2)], [], 1, -1.0)
    with pytest.raises(ValueError):
        _dlx.solve(2, [(0, 1)], [((1,), 1)], 1, -1.0)


@needs_cc
def test_compiled_kernel_stops_on_keyboard_interrupt():
    # the 22-column instance above with no deadline: only the interrupt
    # can end it.  A child process runs it, so a kernel that misses the
    # interrupt fails this test instead of hanging the suite.
    code = textwrap.dedent(
        """
        import itertools, signal, time
        from gf2designs import _dlx

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGALRM, interrupt)
        rows = list(itertools.combinations(range(22), 3))
        start = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            _dlx.solve(22, rows, [], 1, -1.0)
        except KeyboardInterrupt:
            print(time.monotonic() - start)
        """
    )
    src = str(Path(gf2designs.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout, "the search ended without KeyboardInterrupt"
    assert float(proc.stdout) < 2.0
    assert "Exception ignored" not in proc.stderr


@pytest.fixture(params=[None, 1], ids=["default-buffer", "buffer-1"])
def compiled(request, monkeypatch):
    """The compiled kernel with its solution buffer at the default size,
    or at its floor of n_cols + 1 ints: a flush every solution or two."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler 'cc'")
    from gf2designs import _dlx

    if request.param is not None:
        monkeypatch.setattr(_dlx, "_BUFFER", request.param)
    return _dlx


def trivial_spreads(v, k):
    """The k-spreads of F_2^v: (v, t, k) = (v, 1, k) under the trivial group."""
    group = group_closure((GF2Matrix.identity(v),), name=f"trivial{v}")
    return to_cover_problem(reduce_km(build_km_matrix(group, 1, k, v), 1), 1)


# sha256 of repr(tuple(solutions)) for the 56 line spreads of F_2^4, taken
# when the kernels still returned lists of tuples
F2_4_SPREADS_SHA256 = "12c952fadebee836a1e254be3665b8e61fbd9fee0bf65d7cfafc2b1496ab2109"


def test_batches_hold_the_56_spreads_of_f2_4(compiled):
    p = trivial_spreads(4, 2)
    args = (p.n_cols, list(p.rows), [], 1 << 62, -1.0)
    status, solutions, nodes = compiled.solve(*args)
    assert (status, solutions, nodes) == _dlx_py.solve(*args)
    assert status == compiled.EXHAUSTED
    assert len(solutions) == 56
    digest = hashlib.sha256(repr(tuple(solutions)).encode()).hexdigest()
    assert digest == F2_4_SPREADS_SHA256
    assert dlx_solve(p, max_solutions=None).solutions == solutions
    for sol in solutions:
        assert type(sol) is tuple and list(sol) == sorted(set(sol))
        assert check_solution(p, sol)
    for k in (1, 2, 5, 55, 56):
        capped = (p.n_cols, list(p.rows), [], k, -1.0)
        assert compiled.solve(*capped)[:2] == (compiled.LIMIT, solutions[:k])
        assert compiled.solve(*capped) == _dlx_py.solve(*capped)


def test_batches_cut_by_a_deadline_hold_only_valid_solutions(compiled):
    p = trivial_spreads(6, 3)
    deadline = time.monotonic() + 0.05
    status, solutions, nodes = compiled.solve(
        p.n_cols, list(p.rows), [], 1 << 62, deadline
    )
    assert status == compiled.TIMED_OUT
    assert 0 < len(set(solutions)) == len(solutions) < 1_904_640
    assert all(check_solution(p, sol) for sol in solutions)


@needs_cc
def test_kernel_rejects_a_short_solution_buffer():
    from gf2designs import _dlx

    row_start, cols = _dlx._csr(KNUTH_ROWS)
    con_start, members = _dlx._csr([])
    flushed = []

    def call(n_rows, n_ends):
        rows = (ctypes.c_int * n_rows)()
        ends = (ctypes.c_longlong * n_ends)()

        @_dlx._FLUSH
        def flush(n):
            flushed.append((rows[: ends[n - 1] if n else 0], ends[:n]))
            return 0

        return _dlx._dlx_solve(
            7, len(KNUTH_ROWS), row_start, cols, 0, con_start, members,
            (ctypes.c_int * 0)(), 1 << 62, -1.0, rows, n_rows, ends, n_ends,
            flush, ctypes.byref(ctypes.c_longlong()),
        )

    # a solution of 7 columns may have 7 rows, and needs one end offset
    for n_rows, n_ends in ((0, 1), (6, 1), (7, 0), (6, 0)):
        with pytest.raises(ValueError, match="buffer"):
            call(n_rows, n_ends)
    assert flushed == []
    assert call(7, 1) == _dlx.EXHAUSTED
    assert flushed == [([0, 3, 4], [3])]


@needs_cc
def test_flush_widens_end_offsets_past_32_bits():
    from gf2designs import _dlx

    # as if 2**32 - 2 row ids were stored already: a batch of three rows
    # ending past 2**32 widens the offsets and keeps every row
    rows, ends = array("i", [5, 0, 9]), array("q", [(1 << 32) + 1])
    solutions, failed = Solutions.over(10), []
    solutions.starts[0] = (1 << 32) - 2
    receiver = _dlx._receive(rows, ends, solutions, failed)
    next(receiver)
    assert receiver.send(1) == 0 and not failed
    assert list(solutions.starts) == [(1 << 32) - 2, (1 << 32) + 1]
    assert list(solutions.rows) == [5, 0, 9]


def test_kernel_benchmark_script_runs():
    # the script exits nonzero when the two kernels disagree on a count;
    # it imports gf2designs the way this test process does
    script = Path(__file__).parents[1] / "benchmarks" / "bench_dlx.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--repeat", "1", "--skip-km"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_determinism():
    p = CoverProblem(n_cols=7, rows=KNUTH_ROWS)
    runs = [dlx_solve(p, max_solutions=None) for _ in range(3)]
    assert len({r.nodes for r in runs}) == 1
    assert len({r.solutions for r in runs}) == 1


def test_max_solutions_cap():
    p = CoverProblem(n_cols=2, rows=((0,), (1,), (0, 1)))
    res_all = dlx_solve(p, max_solutions=None)
    assert len(res_all.solutions) == 2
    res_one = dlx_solve(p, max_solutions=1)
    assert res_one.status is Status.SAT
    assert len(res_one.solutions) == 1
    assert not res_one.exhausted
    with pytest.raises(ValueError):
        dlx_solve(p, max_solutions=0)


def spread_problem():
    """Partition the 15 points of F_2^4 into 2-dim subspaces (lines)."""
    lines = enumerate_subspaces(4, 2)
    rows = tuple(
        tuple(sorted(x - 1 for x in ln.vectors() if x)) for ln in lines
    )
    return CoverProblem(n_cols=15, rows=rows)


def test_spread_instance_every_solution_has_five_rows():
    p = spread_problem()
    res = dlx_solve(p, max_solutions=None)
    assert res.status is Status.SAT
    assert res.exhausted
    assert all(len(s) == 5 for s in res.solutions)
    assert len(res.solutions) == 56  # the classical spread count for PG(3,2)
    assert all(check_solution(p, s) for s in res.solutions)


def test_check_solution_rejects_mutations():
    p = spread_problem()
    sol = dlx_solve(p).solutions[0]
    assert check_solution(p, sol)
    for drop in sol:
        assert not check_solution(p, tuple(r for r in sol if r != drop))
    for extra in range(p.n_rows):
        if extra not in sol:
            assert not check_solution(p, sol + (extra,))


def test_check_solution_count_violation():
    p = spread_problem()
    sol = dlx_solve(p).solutions[0]
    good = CoverProblem(
        n_cols=p.n_cols, rows=p.rows, count_constraints=((frozenset(sol), 5),)
    )
    bad = CoverProblem(
        n_cols=p.n_cols, rows=p.rows, count_constraints=((frozenset(sol), 4),)
    )
    assert check_solution(good, sol)
    assert not check_solution(bad, sol)


def test_forcing_identity_when_empty():
    p = CoverProblem(n_cols=7, rows=KNUTH_ROWS)
    assert apply_forcing(p) == p


def test_forcing_reduces_and_solution_includes_forced_rows():
    p = CoverProblem(n_cols=7, rows=KNUTH_ROWS, forced={3})
    reduced = apply_forcing(p)
    assert reduced.n_cols == 5  # columns 0 and 3 got covered
    assert reduced.n_rows < p.n_rows
    res = dlx_solve(p, max_solutions=None)
    assert res.solutions == ((0, 3, 4),)
    assert check_solution(p, res.solutions[0])


def test_forcing_conflict():
    p = CoverProblem(n_cols=7, rows=KNUTH_ROWS, forced={1, 3})  # share column 0
    with pytest.raises(ForcedConflictError):
        apply_forcing(p)
    with pytest.raises(ForcedConflictError):
        dlx_solve(p)


def test_forcing_overshoots_count_constraint():
    p = CoverProblem(
        n_cols=2,
        rows=((0,), (1,)),
        forced={0},
        count_constraints=((frozenset({0}), 0),),
    )
    with pytest.raises(ForcedConflictError):
        apply_forcing(p)
    # the solver treats it as plain unsatisfiability
    assert dlx_solve(p).status is Status.UNSAT


def test_forbidden_rows_are_excluded():
    p = CoverProblem(n_cols=2, rows=((0,), (1,), (0, 1)), forbidden={2})
    res = dlx_solve(p, max_solutions=None)
    assert res.solutions == ((0, 1),)
    assert not check_solution(p, (2,))


def test_forced_solutions_respect_oracle():
    rng = random.Random(105)
    checked = 0
    for _ in range(300):
        p = random_problem(rng)
        r = rng.randrange(p.n_rows)
        forced = CoverProblem(n_cols=p.n_cols, rows=p.rows, forced={r})
        res = dlx_solve(forced, max_solutions=None)
        expected = {s for s in brute_force(p) if r in s}
        assert set(res.solutions) == expected
        checked += len(expected)
    assert checked  # the trials actually exercised nonempty solution sets


def test_timeout_reports_timeout():
    # all 3-subsets of 21 columns: exhausting this takes far longer than 50ms
    rows = tuple(itertools.combinations(range(21), 3))
    p = CoverProblem(n_cols=21, rows=rows)
    res = dlx_solve(p, max_solutions=None, timeout=0.05)
    assert res.status in (Status.SAT, Status.TIMEOUT)
    assert not res.exhausted


@pytest.mark.parametrize("timeout", [math.nan, math.inf, -1.0])
def test_timeout_must_be_finite_and_nonnegative(timeout):
    # a NaN deadline would compare false and silently disable the limit
    p = CoverProblem(n_cols=7, rows=KNUTH_ROWS)
    with pytest.raises(ValueError, match="timeout"):
        dlx_solve(p, timeout=timeout)


def test_problem_file_roundtrip():
    p = CoverProblem(
        n_cols=7,
        rows=KNUTH_ROWS,
        forced={3},
        count_constraints=((frozenset({0, 2, 4}), 2),),
    )
    text = emit_problem(p)
    assert text.startswith("p cover 7 6\n")
    again = parse_problem(text)
    assert again == p


def test_problem_file_refuses_forbidden_rows():
    # the format cannot say "never row 0", so writing this problem would
    # hand back one with the extra solution (0,)
    p = CoverProblem(n_cols=2, rows=((0, 1), (0,), (1,)), forbidden={0})
    assert dlx_solve(p, max_solutions=None).solutions == ((1, 2),)
    with pytest.raises(ValueError, match=r"forbidden rows \[0\]"):
        emit_problem(p)


def test_problem_file_errors_carry_line_numbers():
    with pytest.raises(ProblemFormatError, match="line 1"):
        parse_problem("not a header\n")
    with pytest.raises(ProblemFormatError, match="line 2"):
        parse_problem("p cover 3 1\n0 9\n")
    with pytest.raises(ProblemFormatError, match="line 3"):
        parse_problem("p cover 3 1\n0 1\nf 7\n")
    with pytest.raises(ProblemFormatError, match="line 3"):
        parse_problem("p cover 3 1\n0\nc -1 0\n")
    with pytest.raises(ProblemFormatError, match="line 4"):
        parse_problem("p cover 3 2\n0\n1\n2\n")
    with pytest.raises(ProblemFormatError):
        parse_problem("p cover 3 2\n0 1\n")  # missing a row
    with pytest.raises(ProblemFormatError, match="line 2"):
        parse_problem("p cover 3 1\nzero one\n")


def test_problem_file_skips_comments_and_blanks():
    text = "# toy\n\np cover 2 2\n0\n1\n\n# done\n"
    p = parse_problem(text)
    assert p.n_cols == 2
    assert p.rows == ((0,), (1,))

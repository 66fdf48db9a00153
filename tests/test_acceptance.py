"""Acceptance gate: one test per criterion.

Criteria 1-4 drive the full catalog reproduction (orbit signatures,
reduction sizes, screens, solver eliminations with per-row budgets).
Criteria 5-6 pin the counting lemmas, 7 cross-checks the solver against
an independent enumerator, and 8 runs a solvable end-to-end pipeline.
A summary hook in conftest prints one ACCEPTANCE PASS/FAIL line per
criterion after the run.
"""

import random
import time

import pytest

from gf2designs import catalog, cover
from gf2designs.cover import CoverProblem, Status, dlx_solve
from gf2designs.designs import (
    DesignParams,
    admissible_involution_types,
    f7_residue_mod7,
    involution_census,
    steiner_triple_admissible,
    verify_design,
)
from gf2designs.gf2 import GF2Matrix, involution_normal_form
from gf2designs.km import (
    VerdictKind,
    build_km_matrix,
    feasibility_screen,
    forced_by_length_residue,
    reduce_km,
    to_cover_problem,
)
from gf2designs.orbits import group_closure, orbits

T, K, V = 2, 3, 7

# ten-fold the recorded per-row runtimes, in seconds
SOLVER_BUDGETS = {
    "G_{3,3}": 10.0,
    "G_{4,4}": 10.0,
    "G_{6,2}": 10.0,
    "G_{6,3}": 10.0,
    "G_{8,1}": 290.0,
    "G_{9,1}": 570.0,
    "G_{8,3}": 1100.0,
    "G_{8,2}": 4940.0,
    "G_{9,2}": 7100.0,
    "G_{6,1}": 12990.0,
}

# nodes to exhaust each row's search with max_solutions=1: the column rule
# and row order fix them, so a kernel change must leave them as they are
SOLVER_NODES = {
    "G_{3,3}": 1,
    "G_{4,4}": 4,
    "G_{6,2}": 25_904,
    "G_{6,3}": 6_121,
    "G_{8,1}": 8_830_102,
    "G_{9,1}": 9_347_931,
    "G_{8,3}": 68_735_771,
    "G_{8,2}": 117_839_014,
    "G_{9,2}": 154_228_394,
    "G_{6,1}": 99_937_326,
}

EXPECT_ZERO_ROW = {"G_{4,2}", "G_{4,3}", "G_{4,5}", "G_{4,6}", "G_{4,7}", "G_{7,1}"}
EXPECT_ORBIT_SUM = {"G_{7,2}", "G_{31}"}


@pytest.fixture(scope="module")
def pipelines():
    """Build + reduce for every catalog group, with per-group wall time."""
    out = {}
    for name in catalog.catalog_names():
        start = time.monotonic()
        group = catalog.load_group(name).closure()
        matrix = build_km_matrix(group, T, K, V)
        reduced = reduce_km(matrix, 1)
        elapsed = time.monotonic() - start
        out[name] = (catalog.table_row(name), matrix, reduced, elapsed)
    return out


def test_criterion_1_orbit_signatures(pipelines):
    for name, (row, matrix, _, elapsed) in pipelines.items():
        assert matrix.row_orbits.signature() == row.t_signature, name
        assert matrix.col_orbits.signature() == row.k_signature, name
        assert elapsed < 5.0, f"{name} pipeline took {elapsed:.1f}s"


def test_criterion_2_reduction_sizes(pipelines):
    for name, (row, _, reduced, _) in pipelines.items():
        assert reduced.kept_signature() == row.reduced_signature, name
        assert reduced.shape == (row.n_rows, row.n_cols), name


def test_criterion_3_immediate_screens(pipelines):
    zero_row, orbit_sum = set(), set()
    for name, (_, _, reduced, _) in pipelines.items():
        start = time.monotonic()
        verdict = feasibility_screen(reduced, 1)
        assert time.monotonic() - start < 1.0, name
        if verdict.kind is VerdictKind.ZERO_ROW:
            zero_row.add(name)
        elif verdict.kind is VerdictKind.ORBIT_SUM:
            orbit_sum.add(name)
    assert zero_row == EXPECT_ZERO_ROW
    assert orbit_sum == EXPECT_ORBIT_SUM


def test_criterion_4_solver_eliminations(pipelines):
    for name, budget in SOLVER_BUDGETS.items():
        _, _, reduced, _ = pipelines[name]
        forced = forced_by_length_residue(reduced, 1)
        problem = to_cover_problem(reduced, 1, forced=forced)
        result = dlx_solve(problem, max_solutions=1, timeout=budget)
        detail = (
            f"{name}: {result.status.value} on the {cover.BACKEND} kernel after"
            f" {result.nodes} nodes in {result.elapsed:.1f}s (budget {budget}s)"
        )
        assert result.status is Status.UNSAT, detail
        assert result.elapsed <= budget, detail
        assert result.nodes == SOLVER_NODES[name], detail


def test_criterion_5_counting_census():
    for v in range(3, 9):
        for s in range(1, v // 2 + 1):
            census = involution_census(v, s)
            group = group_closure((involution_normal_form(v, s),), name=f"A_{v}_{s}")
            lengths = orbits(group, v, 1).lengths
            assert lengths.count(1) == census.fixed_points, (v, s)
            assert lengths.count(2) == census.two_orbits, (v, s)
    pinned = involution_census(7, 3)
    assert pinned.f3 == 28
    assert pinned.f7 == 1
    assert pinned.fixed_blocks == 29


def test_criterion_6_type_equivalence():
    start = time.monotonic()
    for v in range(7, 32):
        if not steiner_triple_admissible(v):
            continue
        by_integrality = {
            s for s in range(1, v // 2 + 1) if involution_census(v, s).admissible
        }
        assert admissible_involution_types(v) == by_integrality, v
    # the six residue cells: dimension class x type residue
    assert f7_residue_mod7(7, 3) == 0
    assert f7_residue_mod7(7, 1) == 1
    assert f7_residue_mod7(7, 2) == 1
    assert f7_residue_mod7(9, 3) == 0
    assert f7_residue_mod7(9, 1) == 0
    assert f7_residue_mod7(9, 2) == -1
    # and the residue is what the numerator actually leaves mod 7
    for v in range(7, 32):
        if not steiner_triple_admissible(v):
            continue
        for s in range(1, v // 2 + 1):
            numerator = 21 * involution_census(v, s).f7
            assert numerator.denominator == 1
            assert (int(numerator) - f7_residue_mod7(v, s)) % 7 == 0, (v, s)
    assert time.monotonic() - start < 1.0


def exhaustive_covers(p):
    """Independent enumerator: recurse on the lowest uncovered column."""
    rows_by_col = [[] for _ in range(p.n_cols)]
    for rid, row in enumerate(p.rows):
        for c in row:
            rows_by_col[c].append(rid)
    solutions = set()

    def rec(covered, chosen):
        col = next((c for c in range(p.n_cols) if c not in covered), None)
        if col is None:
            solutions.add(tuple(sorted(chosen)))
            return
        for rid in rows_by_col[col]:
            cells = set(p.rows[rid])
            if cells & covered:
                continue
            rec(covered | cells, chosen + [rid])

    rec(set(), [])
    return solutions


def test_criterion_7_solver_oracle_equivalence():
    rng = random.Random(20260817)
    start = time.monotonic()
    for trial in range(1000):
        n_cols = rng.randrange(3, 13)
        n_rows = rng.randrange(3, 21)
        rows = []
        for _ in range(n_rows):
            width = rng.randrange(1, min(n_cols, 4) + 1)
            rows.append(tuple(sorted(rng.sample(range(n_cols), width))))
        problem = CoverProblem(n_cols=n_cols, rows=tuple(rows))
        result = dlx_solve(problem, max_solutions=None)
        assert result.exhausted, trial
        assert set(result.solutions) == exhaustive_covers(problem), trial
    assert time.monotonic() - start < 60.0


def test_criterion_8_spread_pipeline():
    start = time.monotonic()
    trivial = group_closure((GF2Matrix.identity(4),), name="trivial4")
    matrix = build_km_matrix(trivial, 1, 2, 4)
    reduced = reduce_km(matrix, 1)
    assert feasibility_screen(reduced, 1).kind is VerdictKind.UNKNOWN
    problem = to_cover_problem(reduced, 1)
    result = dlx_solve(problem, max_solutions=None)
    assert result.status is Status.SAT
    assert result.exhausted
    params = DesignParams(1, 4, 2, 1)
    for solution in result.solutions:
        blocks = [
            matrix.col_orbits.representative(reduced.kept_columns[pos])
            for pos in solution
        ]
        assert len(blocks) == 5
        assert verify_design(blocks, params)
    assert len(result.solutions) == 56
    assert time.monotonic() - start < 1.0

"""The benchmark's checks pass the program's outputs and reject damaged ones."""

import json

import pytest

import checks
import run
import workloads
from gf2designs.cover import dlx_solve
from gf2designs.gf2 import GF2Matrix
from gf2designs.orbits import group_closure


def test_benchmark_json_is_the_spec():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == run.SPEC


def test_counts_worked_out_apart_from_the_program():
    assert checks.gaussian_binomial(7, 2) == 2667
    assert checks.gaussian_binomial(7, 3) == 11811
    assert checks.gaussian_binomial(5, 1) == 31
    assert checks.gl_order(3) == 168
    assert checks.desarguesian_spread_count(2) == 56
    assert checks.desarguesian_spread_count(3) == 1_904_640
    assert checks.point_mask((0b001, 0b010)) == 0b111


@pytest.fixture(scope="module")
def g31():
    table = checks.read_table(workloads.TABLE)
    fe = workloads.catalog_front_end(workloads.NO_TRACE, "G_{31}")
    return table["G_{31}"], workloads.front_end_record(fe)


def front_end_problems(row, rec):
    return checks.check_against_table(rec, row) + checks.check_orbit_system(rec, 7, 2, 3)


def test_front_end_output_passes(g31):
    assert front_end_problems(*g31) == []


def _move_entry(entries):
    """Shift one unit of row 0 to another column: row sums stay, columns break."""
    (c, val), *rest = entries[0]
    other = next(j for j in range(1000) if j not in dict(entries[0]))
    row0 = tuple(sorted([*([(c, val - 1)] if val > 1 else []), *rest, (other, 1)]))
    return (row0, *entries[1:])


DAMAGE = {
    "t signature changed": lambda r: {"t_signature": "31^85 1^32"},
    "k signature changed": lambda r: {"k_signature": "31^380 1^31"},
    "reduced signature changed": lambda r: {"reduced_signature": "31^271"},
    "orbit length changed": lambda r: {"k_lengths": (30, *r["k_lengths"][1:])},
    "screen verdict flipped": lambda r: {"screen": "unknown"},
    "group order changed": lambda r: {"order": 62},
    "matrix entry changed": lambda r: {
        "entries": (((r["entries"][0][0][0], r["entries"][0][0][1] + 1),
                     *r["entries"][0][1:]), *r["entries"][1:])
    },
    "matrix entry moved": lambda r: {"entries": _move_entry(r["entries"])},
    "column dropped from the reduction": lambda r: {
        "kept_columns": r["kept_columns"][1:],
        "shape": (r["shape"][0], r["shape"][1] - 1),
        "cover_shape": (r["shape"][0], r["shape"][1] - 1),
    },
    "cover problem misshaped": lambda r: {"cover_shape": (r["shape"][0], 0)},
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_damaged_front_end_output_fails(g31, damage):
    row, rec = g31
    assert front_end_problems(row, {**rec, **DAMAGE[damage](rec)})


UNSAT = {"status": "unsat", "exhausted": True, "nodes": 25_904, "n_solutions": 0}


def test_unsat_output_passes():
    assert checks.check_unsat(UNSAT, 25_904) == []


@pytest.mark.parametrize("change", [
    {"status": "sat", "n_solutions": 1},
    {"status": "timeout", "exhausted": False},
    {"exhausted": False},
    {"nodes": 25_903},
])
def test_damaged_unsat_output_fails(change):
    assert checks.check_unsat({**UNSAT, **change}, 25_904)


@pytest.fixture(scope="module")
def line_spreads():
    """All 56 line spreads of F_2^4, as the enumeration workload finds plane spreads."""
    import numpy as np

    group = group_closure((GF2Matrix.identity(4),), name="trivial-4")
    fe = workloads.front_end(workloads.NO_TRACE, group, 4, 1, 2)
    result = dlx_solve(fe.problem, max_solutions=None)
    assert result.exhausted
    reps = fe.matrix.col_orbits
    masks = [checks.point_mask(reps.representative(c).rows) for c in fe.reduced.kept_columns]
    return np.array(result.solutions), masks


def spread_problems(solutions, masks):
    return checks.check_spreads(solutions, masks, 15, checks.desarguesian_spread_count(2))


def test_spreads_pass(line_spreads):
    assert spread_problems(*line_spreads) == []


def test_dropped_spread_fails(line_spreads):
    solutions, masks = line_spreads
    assert spread_problems(solutions[1:], masks)


def test_duplicated_spread_fails(line_spreads):
    solutions, masks = line_spreads
    twice = solutions.copy()
    twice[-1] = twice[0]
    assert spread_problems(twice, masks)


def test_overlapping_spread_fails(line_spreads):
    solutions, masks = line_spreads
    overlap = solutions.copy()
    overlap[0, 0] = next(j for j in range(len(masks)) if j not in overlap[0])
    assert spread_problems(overlap, masks)


def test_self_time_leaves_out_child_spans():
    tr = workloads.Tracer()
    tr.spans = [
        ["cover.solve", 0.0, 10.0, -1, "op"],
        ["dlx_kernel.solve", 2.0, 9.0, 0, "op"],
    ]
    assert tr.totals() == {"cover.solve": (10.0, 3.0), "dlx_kernel.solve": (7.0, 7.0)}

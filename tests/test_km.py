import random

import pytest

from conftest import G5_GEN, random_invertible
from gf2designs.cover import Status, check_solution, dlx_solve
from gf2designs.gf2 import GF2Matrix, involution_normal_form
from gf2designs.grassmannian import gaussian_binomial, enumerate_subspaces
from gf2designs.km import (
    UnsupportedLambdaError,
    VerdictKind,
    _subset_sum_reachable,
    build_km_matrix,
    dump_km,
    feasibility_screen,
    forced_by_length_residue,
    km_row_sum_expected,
    parse_km_dump,
    reduce_km,
    to_cover_problem,
)
from gf2designs.orbits import group_closure


def trivial_group(v):
    return group_closure([GF2Matrix.identity(v)], name="trivial")


def test_trivial_group_small_matrix_is_plain_incidence():
    m = build_km_matrix(trivial_group(4), 1, 2, 4)
    assert (m.n_rows, m.n_cols) == (15, 35)
    points = enumerate_subspaces(4, 1)
    lines = enumerate_subspaces(4, 2)
    for i, row in enumerate(m.entries):
        assert m.row_sum(i) == 7 == km_row_sum_expected(1, 2, 4)
        cols = {c for c, val in row}
        direct = {j for j, ln in enumerate(lines) if ln.contains(points[i])}
        assert cols == direct
        assert all(val == 1 for _, val in row)


def test_row_sums_are_31_for_2_3_7():
    for gens, name in (
        ([involution_normal_form(7, 3)], "invol"),
        ([G5_GEN], "order5"),
    ):
        m = build_km_matrix(group_closure(gens, name=name), 2, 3, 7)
        assert all(m.row_sum(i) == 31 for i in range(m.n_rows))
        assert km_row_sum_expected(2, 3, 7) == 31


def test_double_counting_identity():
    # entry * |T-orbit| = |K-orbit| * (t-subspaces of the K-rep in the T-orbit)
    for (t, k, v), gens in (
        ((1, 2, 4), [involution_normal_form(4, 2)]),
        ((2, 3, 5), [involution_normal_form(5, 1)]),
    ):
        g = group_closure(gens)
        m = build_km_matrix(g, t, k, v)
        tsubs = enumerate_subspaces(v, t)
        from gf2designs.grassmannian import grassmannian_index

        t_index = grassmannian_index(v, t)
        for i in range(m.n_rows):
            row = dict(m.entries[i])
            for cid in range(m.n_cols):
                krep = m.col_orbits.representative(cid)
                inside = sum(
                    1
                    for ts in tsubs
                    if krep.contains(ts)
                    and m.row_orbits.orbit_of[t_index.rank(ts)] == i
                )
                lhs = row.get(cid, 0) * len(m.row_orbits.members[i])
                rhs = len(m.col_orbits.members[cid]) * inside
                assert lhs == rhs


def test_matrix_independent_of_conjugation_up_to_relabeling():
    rng = random.Random(200)
    base_group = group_closure([involution_normal_form(7, 3)])
    base = build_km_matrix(base_group, 2, 3, 7)

    def profile(m):
        row_lengths = m.row_orbits.lengths
        col_lengths = m.col_orbits.lengths
        rows = sorted(
            (
                row_lengths[i],
                tuple(sorted((col_lengths[c], val) for c, val in m.entries[i])),
            )
            for i in range(m.n_rows)
        )
        return rows

    p = random_invertible(7, rng)
    conj = group_closure([g.conjugate_by(p) for g in base_group.generators])
    other = build_km_matrix(conj, 2, 3, 7)
    assert profile(base) == profile(other)


def test_reduce_keeps_01_matrix_unchanged():
    m = build_km_matrix(trivial_group(4), 1, 2, 4)
    r = reduce_km(m, 1)
    assert tuple(r.kept_columns) == tuple(range(35))
    assert r.zero_rows == ()
    assert r.shape == (15, 35)


def test_reduce_drops_heavy_columns():
    g = group_closure([G5_GEN], name="order5")
    m = build_km_matrix(g, 2, 3, 7)
    r = reduce_km(m, 1)
    assert r.shape == (539, 2108)
    assert r.kept_signature() == "5^2107 1^1"
    with pytest.raises(ValueError):
        reduce_km(m, 0)


def test_subset_sum_dp():
    assert _subset_sum_reachable([5] * 76 + [1], 381)
    assert not _subset_sum_reachable([31] * 270, 381)
    assert not _subset_sum_reachable([7] * 1620 + [1, 1], 381)
    assert _subset_sum_reachable([7] * 54 + [1, 1, 1], 381)
    assert _subset_sum_reachable([], 0)
    assert not _subset_sum_reachable([], 1)
    assert not _subset_sum_reachable([2, 2], 3)


def test_screen_passes_order5():
    g = group_closure([G5_GEN], name="order5")
    r = reduce_km(build_km_matrix(g, 2, 3, 7), 1)
    verdict = feasibility_screen(r, 1)
    assert verdict.kind is VerdictKind.UNKNOWN


def test_screen_zero_row_synthetic():
    # a group with few symmetries can still be screened via a crafted reduction
    m = build_km_matrix(trivial_group(4), 1, 2, 4)
    r = reduce_km(m, 1)
    # fabricate: lambda=1 on a matrix with a 2 entry somewhere is the real
    # path; here every entry is 1, so force the zero-row branch manually.
    # keep enough singleton columns that the length sum still reaches the
    # block count (5), isolating the zero-row check
    fake = type(r)(base=m, lam=1, kept_columns=(0, 1, 2, 3, 4), zero_rows=(0,))
    v = feasibility_screen(fake, 1)
    assert v.kind is VerdictKind.ZERO_ROW
    assert "0" in v.witness


def test_screen_prefers_length_argument_when_both_apply():
    m = build_km_matrix(trivial_group(4), 1, 2, 4)
    # nothing kept: the sum argument fires even though rows are empty too
    fake = type(reduce_km(m, 1))(base=m, lam=1, kept_columns=(), zero_rows=(0,))
    v = feasibility_screen(fake, 1)
    assert v.kind is VerdictKind.ORBIT_SUM


def test_forced_by_length_residue():
    g = group_closure([G5_GEN], name="order5")
    r = reduce_km(build_km_matrix(g, 2, 3, 7), 1)
    forced = forced_by_length_residue(r)
    # the single fixed plane must be part of any solution
    assert len(forced) == 1
    assert r.kept_lengths[forced[0]] == 1


def test_cover_problem_roundtrip_spread():
    m = build_km_matrix(trivial_group(4), 1, 2, 4)
    r = reduce_km(m, 1)
    p = to_cover_problem(r, 1)
    assert p.n_cols == 15
    assert p.n_rows == 35
    assert p.weights == (1,) * 35
    res = dlx_solve(p, max_solutions=None)
    assert res.status is Status.SAT
    assert len(res.solutions) == 56
    assert all(check_solution(p, s) for s in res.solutions)


def test_cover_problem_rejects_general_lambda():
    m = build_km_matrix(trivial_group(4), 1, 2, 4)
    r = reduce_km(m, 2)
    with pytest.raises(UnsupportedLambdaError):
        to_cover_problem(r, 2)
    with pytest.raises(UnsupportedLambdaError):
        to_cover_problem(r, 1)  # reduction was taken at lambda=2


def test_cover_problem_carries_constraints():
    g = group_closure([G5_GEN], name="order5")
    r = reduce_km(build_km_matrix(g, 2, 3, 7), 1)
    forced = forced_by_length_residue(r)
    p = to_cover_problem(r, 1, forced=forced)
    assert p.forced == frozenset(forced)
    p2 = to_cover_problem(r, 1, count_constraints=((forced, 1),))
    assert p2.count_constraints == ((frozenset(forced), 1),)


def test_dump_roundtrip():
    m = build_km_matrix(trivial_group(4), 1, 2, 4)
    text = dump_km(m, 1)
    d = parse_km_dump(text)
    assert (d.t, d.k, d.v) == (1, 2, 4)
    assert d.group_name == "trivial"
    assert (d.n_rows, d.n_cols, d.lam) == (15, 35, 1)
    assert len(d.entries) == sum(len(row) for row in m.entries)
    assert dump_km(m, 1) == text  # bit-exact across calls


def test_dump_parse_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_km_dump("bad header\n")
    good = dump_km(build_km_matrix(trivial_group(4), 1, 2, 4), 1)
    with pytest.raises(ValueError, match="line 2"):
        parse_km_dump(good.splitlines()[0] + "\n0 99 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_km_dump(good.splitlines()[0] + "\nx y z\n")

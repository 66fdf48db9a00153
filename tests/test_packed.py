"""Compact front-end storage reads like the tuples it replaced."""

from array import array

import pytest

from conftest import G5_GEN
from gf2designs.km import build_km_matrix, reduce_km
from gf2designs.orbits import group_closure, orbits
from gf2designs.packed import IntRows, PairRows, Solutions, narrowed, packed


def test_packed_picks_the_narrowest_item_type():
    assert packed([0, 255], 255).typecode == "B"
    assert packed([256], 256).typecode == "H"
    big = packed([1 << 16], 1 << 16)
    assert big.itemsize >= 4 and list(big) == [1 << 16]
    assert packed([1 << 40], 1 << 40).tolist() == [1 << 40]
    with pytest.raises(OverflowError):
        packed([], 1 << 64)


def test_rows_index_slice_and_iterate():
    rows = IntRows(array("B", [0, 2, 2, 5]), array("H", [4, 9, 1, 2, 3]))
    assert len(rows) == 3
    assert list(rows[0]) == [4, 9] and list(rows[1]) == [] and list(rows[-1]) == [1, 2, 3]
    assert [list(r) for r in rows[1:]] == [[], [1, 2, 3]]
    assert [len(r) for r in rows] == [2, 0, 3]
    assert list(rows.lengths()) == [2, 0, 3]
    with pytest.raises(IndexError):
        rows[3]
    with pytest.raises(IndexError):
        rows[-4]
    assert rows == IntRows(array("I", [0, 2, 2, 5]), array("B", [4, 9, 1, 2, 3]))
    assert rows != IntRows(array("B", [0, 2, 2, 5]), array("B", [4, 9, 1, 2, 4]))

    pairs = PairRows(array("B", [0, 2, 3]), array("H", [1, 7, 0]), array("B", [2, 1, 5]))
    assert pairs[0] == ((1, 2), (7, 1))
    assert pairs[-1] == ((0, 5),)
    assert pairs[1:] == (((0, 5),),)
    assert list(pairs) == [((1, 2), (7, 1)), ((0, 5),)]


@pytest.fixture(scope="module")
def order5():
    g = group_closure([G5_GEN], name="order5")
    m = build_km_matrix(g, 2, 3, 7)
    return m, reduce_km(m, 1)


def test_matrix_entries_support_every_use(order5):
    m, _ = order5
    e = m.entries
    assert len(e) == m.n_rows == 539
    assert e[-1] == e[len(e) - 1]
    assert e[1:] == tuple(e)[1:]
    total = 0
    for i, row in enumerate(e):
        assert row == e[i]
        assert dict(row) and list(dict(row)) == sorted(dict(row))
        assert row[1:] == tuple(row)[1:]
        for c, val in row:
            assert 0 <= c < m.n_cols and val >= 1
            total += val
    assert total == 31 * m.n_rows
    (c, val), *rest = e[0]
    assert (c, val) == e[0][0] and tuple(rest) == e[0][1:]


def test_orbit_partitions_and_kept_columns_are_arrays(order5):
    m, r = order5
    part = m.col_orbits
    assert isinstance(part.orbit_of, array)
    assert len(part.members) == part.n_orbits
    assert all(part.orbit_of[i] == j for j, ms in enumerate(part.members) for i in ms)
    assert part.members[-1][0] == part.representative_index(part.n_orbits - 1)
    kept = r.kept_columns
    assert isinstance(kept, array)
    assert tuple(kept[1:]) == tuple(kept)[1:]
    assert kept[0] == tuple(kept)[0] and kept[-1] == tuple(kept)[-1]
    assert orbits(group_closure([G5_GEN]), 7, 3) == part


SOLS = ((0, 3, 4), (1, 2), (5,))


def test_solutions_index_slice_and_iterate():
    s = Solutions.of(SOLS)
    assert s.rows.typecode == "i" and s.starts.typecode == "q"
    assert list(s.starts) == [0, 3, 5, 6]
    assert len(s) == 3
    assert s[0] == (0, 3, 4) and s[-1] == (5,) and s[-3] == s[0]
    assert s[1:] == SOLS[1:] and s[::-1] == SOLS[::-1] and s[5:] == ()
    for i in (3, -4):
        with pytest.raises(IndexError):
            s[i]
    assert [type(sol) for sol in s] == [tuple] * 3
    assert tuple(s) == SOLS
    assert repr(s) == repr(SOLS)


def test_solutions_equal_and_hash_like_tuples():
    s = Solutions.of(SOLS)
    assert s == SOLS and SOLS == s
    assert s == [list(sol) for sol in SOLS] and s == list(SOLS)
    assert s == Solutions(array("i", [0, 3, 4, 1, 2, 5]), array("q", [0, 3, 5, 6]))
    assert s != SOLS[:2] and s != SOLS + ((),)
    assert s != ((0, 3, 4), (1, 2), (6,)) and s != Solutions.of(SOLS[:2])
    assert s != (0, 3, 4) and s != "abc" and s != 7
    assert hash(s) == hash(SOLS)
    assert len({s, SOLS, Solutions.of(SOLS)}) == 1


def test_empty_and_one_empty_solution():
    none, empty = Solutions(), Solutions.of([()])
    assert len(none) == 0 and not none and none == () and none == []
    assert tuple(none) == () and repr(none) == "()" and hash(none) == hash(())
    assert len(empty) == 1 and empty and empty == ((),) and empty[0] == ()
    assert repr(empty) == "((),)" and hash(empty) == hash(((),))
    assert none != empty


def test_array_interface_only_for_equal_nonempty_rows():
    square = Solutions.of([(0, 1), (2, 3), (4, 5)])
    face = square.__array_interface__
    assert face["shape"] == (3, 2) and face["typestr"][1:] == "i4"
    assert Solutions.of([()]).__array_interface__["shape"] == (1, 0)
    # the last has as many row ids as three rows of equal length
    for ragged in (Solutions(), Solutions.of(SOLS), Solutions.of([(0, 1), (2,), (3, 4, 5)])):
        assert not hasattr(ragged, "__array_interface__")
    # equal lengths in the first chunk of offsets checked, ragged after it
    long = Solutions.of([(i,) for i in range(1 << 16)] + [(0, 1), ()])
    assert not hasattr(long, "__array_interface__")


def test_search_solutions_are_stored_narrow():
    assert [Solutions.over(n).rows.typecode for n in (0, 256, 257, 1 << 16)] == list("BBHH")
    assert Solutions.over((1 << 16) + 1).rows.itemsize >= 4
    s = Solutions.over(300)
    assert s.starts.typecode == "I" and s.starts_for(5) is s.starts
    s.rows.extend([299, 3])
    s.starts_for(2).append(2)
    assert s == ((299, 3),) and s.__array_interface__["typestr"][1:] == "u2"
    # an offset past 32 bits widens the offsets, keeping those stored
    s.starts_for(1 << 32).append(1 << 32)
    assert s.starts.typecode == "Q" and list(s.starts) == [0, 2, 1 << 32]
    assert list(narrowed(array("i", [0, 299, 65535]), "H")) == [0, 299, 65535]
    assert list(narrowed(array("q", [7, (1 << 32) - 1]), "I")) == [7, (1 << 32) - 1]
    assert list(narrowed(array("q", [7, 1 << 40]), "Q")) == [7, 1 << 40]


@pytest.mark.parametrize(
    "sols",
    [((0, 1), (2, 3), (4, 5)), ((7,),), ((),), ((), ()), ((0, 3, 4), (1, 2)), ()],
    ids=["square", "one", "one-empty", "two-empty", "ragged", "none"],
)
def test_numpy_reads_solutions_as_it_reads_tuples(sols):
    np = pytest.importorskip("numpy")
    s = Solutions.of(sols)
    try:
        want = np.array(tuple(s))
    except ValueError:  # ragged rows: numpy refuses both alike
        with pytest.raises(ValueError):
            np.array(s)
        return
    got = np.array(s)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(np.array(s, dtype=np.int16), np.array(sols, dtype=np.int16))

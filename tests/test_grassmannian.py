import random

import pytest

from conftest import random_invertible
from gf2designs.gf2 import GF2Matrix
from gf2designs.grassmannian import (
    GrassmannianIndex,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    incidence,
    layer_permutation,
    parse_subspace,
    rref_basis,
    span,
)


def test_gaussian_binomial_small_values():
    assert gaussian_binomial(7, 0) == 1
    assert gaussian_binomial(7, 1) == 127
    assert gaussian_binomial(7, 2) == 2667
    assert gaussian_binomial(7, 3) == 11811
    assert gaussian_binomial(7, 7) == 1
    assert gaussian_binomial(7, 8) == 0
    assert gaussian_binomial(3, -1) == 0
    assert gaussian_binomial(5, 1, q=3) == 121
    assert gaussian_binomial(5, 2, q=3) == 1210


def test_gaussian_binomial_symmetry():
    for n in range(1, 10):
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)


def test_rref_is_canonical_under_regeneration():
    rng = random.Random(10)
    for _ in range(50):
        sub = span([rng.getrandbits(7) for _ in range(3)], 7)
        # re-span from random member combinations
        vecs = sub.vectors()
        again = span([rng.choice(vecs) for _ in range(8)], 7)
        if again.dim == sub.dim:
            assert again == sub
        assert sub.contains(again)


def test_rref_rejects_bad_rows():
    with pytest.raises(ValueError):
        rref_basis([1 << 7], 7)
    with pytest.raises(ValueError):
        Subspace((0,), 7)
    with pytest.raises(ValueError):
        Subspace((0b10, 0b01), 2)  # pivots out of order
    with pytest.raises(ValueError):
        Subspace((0b011, 0b010), 3)  # not reduced


def test_vectors_and_membership():
    sub = span([0b0000011, 0b0000101], 7)
    vecs = sub.vectors()
    assert len(vecs) == 4
    assert set(vecs) == {0, 0b011, 0b101, 0b110}
    for x in vecs:
        assert sub.contains_vector(x)
    assert not sub.contains_vector(0b001)


def test_contains_is_a_partial_order():
    rng = random.Random(11)
    planes = enumerate_subspaces(7, 3)
    for _ in range(30):
        plane = rng.choice(planes)
        lines = [
            span([a, b], 7)
            for a in plane.vectors()
            for b in plane.vectors()
            if a and b and a != b
        ]
        lines = {ln for ln in lines if ln.dim == 2}
        assert len(lines) == 7  # a 3-space holds exactly [3 over 2]_2 = 7 lines
        for ln in lines:
            assert plane.contains(ln)


def test_enumerate_counts_match_gaussian_binomial():
    for v, k in ((4, 1), (4, 2), (5, 2), (6, 3), (7, 1), (7, 2), (7, 3)):
        subs = enumerate_subspaces(v, k)
        assert len(subs) == gaussian_binomial(v, k)
        assert len(set(subs)) == len(subs)
        assert all(s.dim == k for s in subs)


def test_enumerate_order_is_sorted_and_stable():
    subs = enumerate_subspaces(6, 2)
    keys = [s.rows for s in subs]
    assert keys == sorted(keys)
    assert enumerate_subspaces(6, 2) == subs


def test_index_roundtrip():
    idx = GrassmannianIndex(7, 2)
    assert len(idx) == 2667
    rng = random.Random(12)
    for _ in range(40):
        i = rng.randrange(len(idx))
        assert idx.rank(idx.unrank(i)) == i
    with pytest.raises(ValueError):
        idx.rank(span([1], 7))
    with pytest.raises(IndexError):
        idx.unrank(2667)


def test_image_is_a_lattice_automorphism():
    rng = random.Random(13)
    for _ in range(20):
        m = random_invertible(7, rng)
        line = rng.choice(enumerate_subspaces(7, 2))
        plane = rng.choice(enumerate_subspaces(7, 3))
        assert line.image(m).dim == 2
        assert plane.image(m).dim == 3
        if plane.contains(line):
            assert plane.image(m).contains(line.image(m))
        ident = GF2Matrix.identity(7)
        assert plane.image(ident) == plane
        assert plane.image(m).image(m.inverse()) == plane


def test_image_composes_in_action_order():
    rng = random.Random(14)
    a = random_invertible(7, rng)
    b = random_invertible(7, rng)
    sub = span([0b1, 0b110, 0b1010000], 7)
    assert sub.image(a).image(b) == sub.image(a @ b)


def test_layer_permutation_ranks_the_subspace_images():
    rng = random.Random(15)
    for v, r in ((7, 2), (7, 3), (5, 0), (5, 1), (5, 5), (6, 3)):
        idx = GrassmannianIndex(v, r)
        for _ in range(2):
            m = random_invertible(v, rng)
            perm = layer_permutation(m, v, r)
            assert perm == [idx.rank(s.image(m)) for s in idx.subspaces]
    with pytest.raises(ValueError):
        layer_permutation(GF2Matrix.identity(6), 7, 2)


def test_incidence_lists_the_superspaces():
    for v, t, k in ((5, 1, 2), (5, 2, 3), (4, 0, 2), (4, 2, 2), (4, 1, 4), (6, 1, 3)):
        table = incidence(v, t, k)
        d = gaussian_binomial(v - t, k - t)
        tsubs, ksubs = enumerate_subspaces(v, t), enumerate_subspaces(v, k)
        assert len(table) == len(tsubs) * d
        for i, ts in enumerate(tsubs):
            above = [j for j, ks in enumerate(ksubs) if ks.contains(ts)]
            assert list(table[i * d : (i + 1) * d]) == above
    with pytest.raises(ValueError):
        incidence(5, 3, 2)


def test_text_roundtrip():
    sub = span([0b0000011, 0b0000101, 0b1000000], 7)
    text = sub.to_text()
    lines = text.splitlines()
    assert len(lines) == 3
    assert all(len(ln) == 7 for ln in lines)
    assert parse_subspace(text, 7) == sub


def test_parse_subspace_errors():
    with pytest.raises(ValueError):
        parse_subspace("0101\n", 7)
    with pytest.raises(ValueError):
        parse_subspace("01x0100\n", 7)
    with pytest.raises(ValueError):
        parse_subspace("0110000\n0110000\n", 7)  # dependent rows

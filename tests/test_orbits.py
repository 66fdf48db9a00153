import random

import pytest

from conftest import G5_GEN, random_invertible
from gf2designs.gf2 import GF2Matrix, involution_normal_form
from gf2designs.orbits import (
    ClosureExceedsCapError,
    group_closure,
    fixed_subspaces,
    orbits,
)
from gf2designs.grassmannian import gaussian_binomial

GL7_ORDER = 2**21 * 3**4 * 5 * 7**2 * 31 * 127


def test_trivial_group():
    g = group_closure([GF2Matrix.identity(7)])
    assert g.order == 1
    assert g.elements[0].is_identity()


def test_closure_of_an_involution():
    a = involution_normal_form(7, 3)
    g = group_closure([a])
    assert g.order == 2
    assert set(g.elements) == {GF2Matrix.identity(7), a}


def test_closure_order_five():
    g = group_closure([G5_GEN])
    assert g.order == 5
    assert GL7_ORDER % g.order == 0


def test_closure_cap():
    with pytest.raises(ClosureExceedsCapError):
        group_closure([G5_GEN], cap=3)


def test_closure_rejects_singular_generator():
    with pytest.raises(ValueError):
        group_closure([GF2Matrix((0b11, 0b11), 2)])


def test_orbits_of_trivial_group_are_singletons():
    g = group_closure([GF2Matrix.identity(7)])
    part = orbits(g, 7, 1)
    assert part.n_orbits == 127
    assert part.signature() == "1^127"


def test_point_orbits_of_involutions():
    # s swap blocks fix 2^(v-s)-1 points and pair up the rest
    for v, s in ((3, 1), (7, 3), (7, 2), (7, 1)):
        g = group_closure([involution_normal_form(v, s)])
        part = orbits(g, v, 1)
        fixed = 2 ** (v - s) - 1
        paired = 2 ** (v - s - 1) * (2**s - 1)
        assert part.signature() == f"2^{paired} 1^{fixed}"
        assert len(fixed_subspaces(g, v, 1)) == fixed


def test_orbit_partition_covers_layer():
    g = group_closure([G5_GEN])
    part = orbits(g, 7, 2)
    assert sum(part.lengths) == gaussian_binomial(7, 2)
    assert sorted(i for m in part.members for i in m) == list(range(2667))
    for m in part.members:
        assert g.order % len(m) == 0  # orbit-stabilizer
        assert m[0] == min(m)  # representative is the least member


def test_order_five_plane_orbits_leave_one_fixed_plane():
    g = group_closure([G5_GEN])
    part = orbits(g, 7, 3)
    assert part.signature() == "5^2362 1^1"
    assert len(fixed_subspaces(g, 7, 3)) == 1


def test_signature_invariant_under_conjugation():
    rng = random.Random(20)
    a = involution_normal_form(7, 3)
    base = orbits(group_closure([a]), 7, 2).signature()
    for _ in range(3):
        p = random_invertible(7, rng)
        conj = group_closure([a.conjugate_by(p)])
        assert orbits(conj, 7, 2).signature() == base


def test_orbit_ids_first_seen_and_sorted_members():
    g = group_closure([involution_normal_form(7, 2)])
    part = orbits(g, 7, 2)
    seen_max = -1
    for oid in part.orbit_of:
        assert oid <= seen_max + 1
        seen_max = max(seen_max, oid)
    for m in part.members:
        assert list(m) == sorted(m)


"""Matrix groups over GF(2) and their orbits on Grassmannian layers.

A group is built by breadth-first closure from its generators, so the
element order is deterministic.  Orbits on a layer are found by scanning
subspace indices in ascending order and expanding each unseen seed with
the generators, each turned into a permutation of the layer's indices;
because the layer enumeration is sorted, the seed of an orbit is also
its lexicographically least member and serves as the representative.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .gf2 import GF2Matrix
from .grassmannian import Subspace, enumerate_subspaces, layer_permutation
from .packed import IntRows, packed

DEFAULT_CLOSURE_CAP = 10**6


class ClosureExceedsCapError(RuntimeError):
    """Group closure grew past the configured element cap."""


def format_signature(lengths) -> str:
    """Multiset of orbit lengths in ``len^count`` form, lengths descending."""
    counts = Counter(lengths)
    return " ".join(f"{n}^{counts[n]}" for n in sorted(counts, reverse=True))


@dataclass(frozen=True)
class MatrixGroup:
    """A finite subgroup of GL(v, 2) with its full element list."""

    generators: tuple[GF2Matrix, ...]
    elements: tuple[GF2Matrix, ...]
    name: str = ""

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim


def group_closure(
    generators, cap: int = DEFAULT_CLOSURE_CAP, name: str = ""
) -> MatrixGroup:
    """Breadth-first closure of the generators, identity first."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator (use the identity)")
    dim = gens[0].dim
    for g in gens:
        if g.dim != dim:
            raise ValueError("generators have mixed dimensions")
        if not g.is_invertible():
            raise ValueError("generator is not invertible")
    ident = GF2Matrix.identity(dim)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for el in frontier:
            for g in gens:
                prod = el @ g
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    new_frontier.append(prod)
                    if len(elements) > cap:
                        raise ClosureExceedsCapError(
                            f"closure exceeds cap {cap}"
                        )
        frontier = new_frontier
    return MatrixGroup(gens, tuple(elements), name)


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of the r-layer of F_2^v into group orbits.

    ``orbit_of[i]`` is the orbit id of subspace index ``i``; ids are
    assigned in order of first appearance, so orbit 0 is seeded by
    subspace 0.  ``members[j]`` lists orbit j's subspace indices in
    ascending order; its first entry is the representative.  Both are
    integer arrays (see :mod:`gf2designs.packed`).
    """

    v: int
    r: int
    orbit_of: array
    members: IntRows

    @property
    def n_orbits(self) -> int:
        return len(self.members)

    @property
    def lengths(self) -> array:
        return self.members.lengths()

    def representative_index(self, orbit_id: int) -> int:
        return self.members[orbit_id][0]

    def representative(self, orbit_id: int) -> Subspace:
        return enumerate_subspaces(self.v, self.r)[self.members[orbit_id][0]]

    def signature(self) -> str:
        """Orbit length multiset in the ``len^count`` notation, lengths descending."""
        return format_signature(self.lengths)


def _partition(v: int, r: int, orbit_of: list[int], n_orbits: int) -> OrbitPartition:
    """Pack first-seen orbit ids into a partition with sorted member lists."""
    n = len(orbit_of)
    sizes = [0] * n_orbits
    for oid in orbit_of:
        sizes[oid] += 1
    # a stable sort by orbit id keeps each orbit's members ascending
    order = sorted(range(n), key=orbit_of.__getitem__)
    members = IntRows(packed(accumulate(sizes, initial=0), n), packed(order, n))
    return OrbitPartition(v, r, packed(orbit_of, n_orbits), members)


def orbits(group: MatrixGroup, v: int, r: int) -> OrbitPartition:
    """Full orbit partition of the r-dimensional subspaces of F_2^v.

    Each generator becomes a permutation of the layer's indices; an
    orbit is everything reached from its seed by following them.
    """
    perms = [layer_permutation(g, v, r) for g in group.generators]
    n = len(perms[0])
    orbit_of = [-1] * n
    oid = 0
    for seed in range(n):
        if orbit_of[seed] >= 0:
            continue
        orbit_of[seed] = oid
        stack = [seed]
        while stack:
            i = stack.pop()
            for perm in perms:
                j = perm[i]
                if orbit_of[j] < 0:
                    orbit_of[j] = oid
                    stack.append(j)
        oid += 1
    return _partition(v, r, orbit_of, oid)


def fixed_subspaces(group: MatrixGroup, v: int, r: int) -> list[Subspace]:
    """All r-subspaces mapped to themselves by every group element.

    Being fixed by the generators is enough, since images compose: these
    are the common fixed points of the generator permutations.
    """
    perms = [layer_permutation(g, v, r) for g in group.generators]
    layer = enumerate_subspaces(v, r)
    return [
        sub for i, sub in enumerate(layer) if all(perm[i] == i for perm in perms)
    ]


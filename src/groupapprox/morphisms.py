"""Endomorphism, automorphism and affine-map enumeration.

End(G) is computed once, as a table with one row of images per map, and
everything else reads that table.  Enumeration extends a batch of partial
image rows one generator of a greedy minimal generating sequence at a time:
every row is copied once per candidate image of the new generator t
(candidates are pruned by the order criterion ord(phi(t)) | ord(t)), the
images of the newly reached elements are filled in along the right
multiplications x -> x*s by the generators so far, and only the rows with
img[x*s] = img[x]*img[s] on every such edge are kept.  Once the generators
are exhausted every surviving row is an endomorphism, and every
endomorphism survives.  The batch is held in memory, so its size is
capped, as is the group order.

The table is sorted lexicographically by image tuple, which downstream
code relies on for determinism, and cached read-only on the carrier, as is
the affine-map table.  The rows are the only stored form of a map: a
``Morphism`` or ``AffineMap`` object is built per row, for the row a caller
asks for, and is never cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .groups import GroupCarrier

__all__ = [
    "ENDO_LIMIT",
    "AffineMap",
    "Morphism",
    "affine_tables",
    "automorphism_orbits",
    "endomorphism_tables",
    "enumerate_endomorphisms",
    "minimal_generating_sequence",
]

ENDO_LIMIT = 64
# the candidate batch of the enumeration is held in memory as one array
_BATCH_CELLS = 2**24


@dataclass(frozen=True, slots=True)
class Morphism:
    """A (total) endomorphism given by its image table."""

    group: GroupCarrier = field(compare=False, repr=False)
    images: tuple[int, ...]

    @property
    def is_automorphism(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]


@dataclass(frozen=True)
class AffineMap:
    """The map x -> constant * endo(x)."""

    group: GroupCarrier = field(compare=False, repr=False)
    constant: int
    endo: Morphism

    def __call__(self, x: int) -> int:
        return self.group.mul(self.constant, self.endo.images[x])

    @property
    def images(self) -> tuple[int, ...]:
        g = self.group
        c = self.constant
        return tuple(g.mul(c, v) for v in self.endo.images)


def _pair_closure(g: GroupCarrier, base, extra) -> set[int]:
    """The subgroup generated by base (already closed) plus one element."""
    known = sorted(base) + [extra]
    seen = set(known)
    i = 0
    while i < len(known):
        a = known[i]
        j = 0
        while j < len(known):
            b = known[j]
            for prod in (g.mul(a, b), g.mul(b, a)):
                if prod not in seen:
                    seen.add(prod)
                    known.append(prod)
            j += 1
        i += 1
    return seen


def minimal_generating_sequence(g: GroupCarrier) -> tuple[int, ...]:
    """Greedy minimal generating sequence: repeatedly add the element that
    grows the generated subgroup the most (ties broken by smallest index)."""
    n = g.order
    seq: list[int] = []
    closure: set[int] = {0}
    while len(closure) < n:
        best_size = 0
        best_x = -1
        for x in range(n):
            if x in closure:
                continue
            size = len(_pair_closure(g, closure, x))
            if size > best_size:
                best_size, best_x = size, x
        seq.append(best_x)
        closure = _pair_closure(g, closure, best_x)
    return tuple(seq)


def _bijective(tables: np.ndarray) -> np.ndarray:
    """Row mask: which image tables are permutations of the group."""
    return (np.sort(tables, axis=1) == np.arange(tables.shape[1])).all(axis=1)


def endomorphism_tables(g: GroupCarrier) -> np.ndarray:
    """Image tables of all endomorphisms, one row per map, in lexicographic
    order (read-only)."""
    cached = getattr(g, "_endo_tables", None)
    if cached is not None:
        return cached
    n = g.order
    if n > ENDO_LIMIT:
        raise CapacityError(
            f"endomorphism enumeration is limited to order {ENDO_LIMIT}, "
            f"{g.name} has order {g.order}"
        )
    idx = np.arange(n)
    mul = g.mul_many(idx[:, None], idx[None, :]).astype(np.int32)
    orders = np.array(g.element_orders())
    rows = np.full((1, n), -1, dtype=np.int32)
    rows[0, 0] = 0
    known = [0]  # elements with an image, each reached from an earlier one
    gens: list[int] = []
    for t in minimal_generating_sequence(g):
        images = np.flatnonzero(orders[t] % orders == 0).astype(np.int32)
        if len(rows) * len(images) * n > _BATCH_CELLS:
            raise CapacityError(
                f"endomorphism enumeration of {g.name} would hold more than "
                f"{_BATCH_CELLS} candidate images"
            )
        rows = np.repeat(rows, len(images), axis=0)
        rows[:, t] = np.tile(images, len(rows) // len(images))
        gens.append(t)
        seen = set(known)
        for x in known:  # grows while it is walked
            for s in gens:
                y = int(mul[x, s])
                if y not in seen:
                    seen.add(y)
                    known.append(y)
                    rows[:, y] = mul[rows[:, x], rows[:, s]]
        xs = np.array(known)
        ok = np.ones(len(rows), dtype=bool)
        for s in gens:
            ok &= (rows[:, mul[xs, s]] == mul[rows[:, xs], rows[:, [s]]]).all(axis=1)
        rows = rows[ok]
    tables = np.ascontiguousarray(rows[np.lexsort(rows.T[::-1])])
    tables.setflags(write=False)
    g._endo_tables = tables
    return tables


def enumerate_endomorphisms(g: GroupCarrier) -> tuple[Morphism, ...]:
    """All endomorphisms of g as ``Morphism`` objects, in table order; the
    objects are built anew on every call."""
    return tuple(Morphism(g, tuple(row)) for row in endomorphism_tables(g).tolist())


def automorphism_orbits(g: GroupCarrier) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the automorphism action, ordered by least element
    (so the first orbit is always the fixed identity)."""
    tables = endomorphism_tables(g)
    auts = tables[_bijective(tables)]
    seen = np.zeros(g.order, dtype=bool)
    orbits: list[tuple[int, ...]] = []
    for x in range(g.order):
        if seen[x]:
            continue
        orb = np.unique(auts[:, x])
        seen[orb] = True
        orbits.append(tuple(orb.tolist()))
    return tuple(orbits)


def affine_tables(g: GroupCarrier) -> np.ndarray:
    """Image tables of all affine maps x -> c * phi(x), constant-major:
    row c * |End| + i is c times endomorphism row i (read-only).  Distinct
    (c, phi) give distinct rows since phi(1) = 1 forces the map's value
    at 1 to be c."""
    cached = getattr(g, "_affine_table_cache", None)
    if cached is not None:
        return cached
    endo = endomorphism_tables(g)
    m, n = endo.shape
    tables = np.empty((n * m, n), dtype=np.int32)
    for c in range(n):
        tables[c * m:(c + 1) * m] = g.mul_many(c, endo)
    tables.setflags(write=False)
    g._affine_table_cache = tables
    return tables

"""Self-maps of a group, and endomorphism and affine-map enumeration.

Every map G -> G, whether the function being approximated or a member of
a family, is a ``GroupFunction``: a read-only array holding the image of
each element index, in the narrowest signed type that holds -order.

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
the affine-map table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError
from .groups import GroupCarrier, _generated

__all__ = [
    "ENDO_LIMIT",
    "GroupFunction",
    "affine_tables",
    "automorphism_orbits",
    "endomorphism_tables",
    "enumerate_endomorphisms",
    "minimal_generating_sequence",
]

ENDO_LIMIT = 64
# the candidate batch of the enumeration is held in memory as one array
_BATCH_CELLS = 2**24


@dataclass(frozen=True, eq=False, slots=True)
class GroupFunction:
    """A self-map of a group, by its read-only image array."""

    group: GroupCarrier = field(repr=False)
    images: np.ndarray

    def __post_init__(self):
        n = self.group.order
        try:
            images = np.array(self.images, copy=None)
        except ValueError as exc:  # ragged nesting
            raise ParameterError(f"function table is not an array: {exc}") from None
        if images.shape != (n,):
            raise ParameterError(
                f"function table has shape {images.shape}, order {n} needs ({n},)"
            )
        if not np.issubdtype(images.dtype, np.integer) or (
            images.min() < 0 or images.max() >= n
        ):
            raise ParameterError("function values must be element indices")
        # astype copies, so writes to the caller's array cannot reach the map
        images = images.astype(np.min_scalar_type(-n))
        images.setflags(write=False)
        object.__setattr__(self, "images", images)


def minimal_generating_sequence(g: GroupCarrier) -> tuple[int, ...]:
    """Greedy minimal generating sequence: repeatedly add the element that
    grows the generated subgroup the most (ties broken by smallest index)."""
    seq: list[int] = []
    closure = _generated(g, seq)
    while len(closure) < g.order:
        best_size = 0
        best_x = -1
        # an element y of <seq, x> has <seq, y> inside it, so it cannot
        # grow the subgroup more than x does and need not be tried
        covered = set(closure)
        for x in range(g.order):
            if x in covered:
                continue
            reach = _generated(g, seq + [x])
            covered |= reach
            if len(reach) > best_size:
                best_size, best_x = len(reach), x
        seq.append(best_x)
        closure = _generated(g, seq)
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


def enumerate_endomorphisms(g: GroupCarrier) -> tuple[GroupFunction, ...]:
    """All endomorphisms of g as maps, in table order, built anew on every
    call.  This view stays only for the benchmark's endomorphism count and
    goes once that count reads ``endomorphism_tables``."""
    return tuple(GroupFunction(g, row) for row in endomorphism_tables(g))


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

"""Self-maps of a group, and endomorphism and affine-map enumeration.

Every map G -> G, whether the function being approximated or a member of
a family, is a ``GroupFunction``: a read-only array holding the image of
each element index in the carrier's ``index_type`` (int8 through order
128, int16 through 32,768, int32 beyond), the type of its Cayley table.
The family tables hold their rows in the same type, column-major, so
that each column is one contiguous run.

End(G) is computed once, as a table with one row of images per map, and
everything else reads that table.  Enumeration extends a batch of partial
image rows along the carrier's listed generators, skipping any generator
already reached: every row is copied once per candidate image of the new
generator t (candidates are pruned by the order criterion
ord(phi(t)) | ord(t)), the images of the newly reached elements are
filled in along the right multiplications x -> x*s by the generators so
far, and only the rows with img[x*s] = img[x]*img[s] on every edge not
yet proven are kept: the edges of the newly reached elements that did not
set an image (``endomorphism_tables`` says why no other edge needs a
check).  Once the generators are exhausted every surviving row is an
endomorphism, and every endomorphism survives; listed generators that do
not reach every element are refused.  Enumeration reads the Cayley table
of a dense carrier as stored and refuses any other carrier.  The batch is
held column-major, one contiguous run of images per element, in the
index type (-1 marks an image not yet set), and capped at
``groups.MAX_TABLE_CELLS`` cells, as is the affine family.

The affine maps x -> c * phi(x) are the pairs (c, phi) of an element and
an endomorphism, and ``AffinePairs``, the family's one home, reads them
as such, with no table built: it is the one place that numbers and
evaluates pairs.  Pair j = i * n + c (endomorphism-major) is c * phi_i,
and the search, ``search.approximability`` and ``search.family_tables``
all number the family so.  Only a search or a built table reads the
family's columns, and either comes to hold every one, so the reader's
first ``column`` call refuses a family past ``groups.MAX_TABLE_CELLS``
cells: the one place the cap is checked.  Listing buckets and rows, all
that ``approximability`` and ``difference_criterion`` read, has no cap.

The table is sorted lexicographically by image tuple, which downstream
code relies on for determinism.  It, the automorphism table (its
bijective rows) and the orbits are read-only and memoized per carrier by
``groups._per_carrier``, the one cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError
from .groups import MAX_TABLE_CELLS, GroupCarrier, TableGroup, _per_carrier

__all__ = [
    "AffinePairs",
    "GroupFunction",
    "automorphism_orbits",
    "automorphism_tables",
    "endomorphism_tables",
    "enumerate_endomorphisms",
]


@dataclass(frozen=True, eq=False, slots=True)
class GroupFunction:
    """A self-map of a group, by its read-only image array.  An array of the
    carrier's index type that owns its data is taken over and frozen (its
    caller keeps no writable view of it); any other input is copied."""

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
        if images.dtype != self.group.index_type or not images.flags.owndata:
            images = images.astype(self.group.index_type)
        images.setflags(write=False)
        object.__setattr__(self, "images", images)


def _bijective(tables: np.ndarray) -> np.ndarray:
    """Row mask: which endomorphism image tables are permutations of the
    group.  An endomorphism is bijective exactly when its kernel is
    trivial, that is when 0 is the image of exactly one element."""
    return np.count_nonzero(tables == 0, axis=1) == 1


@_per_carrier
def endomorphism_tables(g: GroupCarrier) -> np.ndarray:
    """Image tables of all endomorphisms, one row per map, in lexicographic
    order (read-only, column-major), read off a dense carrier's Cayley
    table; any other carrier is refused before anything is allocated.

    The batch is an (n, rows) array: cols[x] holds the image of x in every
    candidate row, so each image filled in along an edge (x, s) and each
    edge checked is one gather ``mul.ravel().take(cols[x] * n + cols[s])``
    of contiguous runs, its index formed in the narrowest signed type that
    holds n * n.  The elements are walked in the order they are reached,
    and the first edge into an element (its tree edge) sets its image.  A
    generator round that adds t to the generators so far checks only the
    other edges (x, s) from the elements x it reached.  The edges from the
    old elements need no check.  Those elements form the subgroup H that
    the old generators generate, and the old rows are copied unchanged, so
    their edges by the old generators hold as the earlier round checked
    them.  Each edge (x, t) from an old x is a tree edge: x * t is not in
    H since t is not, the old elements are walked first, and x * t = x' * t
    forces x = x'.  So once the round ends every row keeps
    img[x*s] = img[x]*img[s] on every edge of the subgroup reached, and
    img extends along words in the generators to a homomorphism on it."""
    if not isinstance(g, TableGroup):
        raise CapacityError(f"endomorphism enumeration of {g.name} needs a "
                            "dense carrier's Cayley table")
    n, dtype, mul = g.order, g.index_type, g.mul_table
    flat = mul.ravel()
    key = np.min_scalar_type(-n * n)  # holds every x * n + s
    orders = np.array(g.element_orders())
    cols = np.full((n, 1), -1, dtype=dtype)  # cols[x]: the image of x, by row
    cols[0] = 0
    known = [0]  # elements with an image, each reached from an earlier one
    reached = {0}
    gens: list[int] = []
    for t in g.generators:
        if t in reached:
            continue
        images = np.flatnonzero(orders[t] % orders == 0).astype(dtype)
        rows = cols.shape[1]
        if rows * len(images) * n > MAX_TABLE_CELLS:
            raise CapacityError(
                f"endomorphism enumeration of {g.name} would hold more than "
                f"{MAX_TABLE_CELLS} candidate images"
            )
        cols = np.tile(cols, len(images))
        cols[t] = np.repeat(images, rows)
        gens.append(t)
        old = len(known)
        ok = np.ones(cols.shape[1], dtype=bool)
        for i, x in enumerate(known):  # grows while it is walked
            at = np.multiply(cols[x], n, dtype=key)
            for s in gens if i >= old else (t,):  # an old x: only its tree edge
                y = int(mul[x, s])
                image = flat.take(at + cols[s])
                if y not in reached:  # a tree edge: it sets the image of y
                    reached.add(y)
                    known.append(y)
                    cols[y] = image
                else:
                    ok &= cols[y] == image
        cols = np.compress(ok, cols, axis=1)  # C-contiguous, unlike cols[:, ok]
    if len(known) < n:
        raise ParameterError(f"the listed generators of {g.name} do not generate it")
    tables = np.take(cols, np.lexsort(cols[::-1]), axis=1).T
    tables.setflags(write=False)
    return tables


def enumerate_endomorphisms(g: GroupCarrier) -> tuple[GroupFunction, ...]:
    """All endomorphisms of g as maps, in table order, built anew on every
    call.  This view stays only for the benchmark's endomorphism count and
    goes once that count reads ``endomorphism_tables``."""
    return tuple(GroupFunction(g, row) for row in endomorphism_tables(g))


@_per_carrier
def automorphism_tables(g: GroupCarrier) -> np.ndarray:
    """Image tables of all automorphisms, the bijective rows of the
    endomorphism table in its order (read-only)."""
    tables = endomorphism_tables(g)
    auts = tables[_bijective(tables)]
    auts.setflags(write=False)
    return auts


@_per_carrier
def automorphism_orbits(g: GroupCarrier) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the automorphism action, ordered by least element
    (so the first orbit is always the fixed identity).  Column x of the
    automorphism table lists the orbit of x, so its minimum is the least
    element of that orbit: elements are grouped by their column minima."""
    leader = automorphism_tables(g).min(axis=0)
    members = np.argsort(leader, kind="stable")  # by leader, then element
    starts = np.flatnonzero(np.diff(leader[members])) + 1
    return tuple(tuple(orb.tolist()) for orb in np.split(members, starts))


class AffinePairs:
    """The affine maps of a group as a family reader (see ``bounds._Rows``
    for the calls): pair j = i * n + c is the map x -> c * phi_i(x), for
    endomorphism row i and constant c.  Every position takes every value,
    as the family holds all constants.  Column x is ``mul.T[phi(x)]``
    flattened, one n-run per endomorphism, and the bucket of (x, v) lists,
    for each i, the one agreeing constant c = v * phi_i(x)^-1, as
    ``ldiv[v][phi(x)] + n * arange(|End|)`` with ``ldiv[v, w] = v * w^-1``:
    ascending, and O(|End|) to list.  Buckets and rows build no table and
    have no cap; columns do (see ``right``).  It also lists the family's
    position symmetries for the search (``translations``)."""

    def __init__(self, g: GroupCarrier):
        self.name, self.endo, self.mul = g.name, endomorphism_tables(g), g.mul_table
        self.maps, self.m1 = len(self.endo) * g.order, g.order
        self.ldiv = self.mul[:, self.mul.argmin(axis=1)]  # ldiv[v, w] = v * w^-1
        self.offsets = g.order * np.arange(len(self.endo))

    @functools.cached_property
    def right(self):
        """right[w, c] = c * w, built on the first ``column`` call: a
        reader that lists only buckets and rows never holds it.  Only a
        search or a built table reads columns, and either comes to hold
        every one, so a family whose columns would fill more than
        ``MAX_TABLE_CELLS`` cells is refused here, before any column is
        taken: the one place the affine cap is checked."""
        cells = self.maps * self.m1
        if cells > MAX_TABLE_CELLS:
            raise CapacityError(
                f"the affine maps of {self.name} would fill {cells} table "
                f"cells > {MAX_TABLE_CELLS}"
            )
        return np.ascontiguousarray(self.mul.T)

    def values(self, x):
        return slice(None)

    # np.take, not a[i]: fancy indexing by a narrow index array is ~2x slower
    def column(self, x):
        return self.right.take(self.endo[:, x], axis=0).ravel()

    def rows(self, x, v):
        return self.ldiv[v].take(self.endo[:, x]) + self.offsets

    def row(self, j):
        return self.mul[j % self.m1].take(self.endo[j // self.m1])

    def translations(self):
        """The position symmetries of the family for ``bounds._min_max``,
        as (maps, anchors, quotient): row t of maps is a left translation
        rho(x) = a * x for a != 1, anchors[t] = rho(1) = a, and
        quotient[u, v] = u^-1 * v.  The family is closed under g -> g o rho,
        as c * phi(a x) = (c phi(a)) phi(x), and under g -> u * g, so the
        search may prune by g(a)^-1 g(a x).  The right translations, and so
        the two-sided ones, keep the family too, but their n * |Inn(G)|
        maps cost more per search node than they save on searches that end
        on their node budget."""
        mul, n = self.mul, self.m1
        return mul[1:], np.arange(1, n), mul[mul.argmin(axis=1)]

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
all number the family so.  Only a counter search, whose ``at`` reads
the columns the reader keeps, or a built table reads the family's
columns, and either comes to hold every one, so the reader's first
column refuses a family past ``groups.MAX_TABLE_CELLS`` cells: the one
place the cap is checked.  Everything else builds no table and has no
cap: listing buckets and rows, all that ``approximability`` reads, and
the path counts that ``difference_criterion`` and a search counted along
its path read, whose ``at`` reads the values of single rows.

The table is in lexicographic order of image tuples, which downstream
code relies on for determinism.  A round copies each row next to itself
once per candidate image, so the batch comes out ordered by the images
of the generators in listed order; when each generator used is the
least element outside the subgroup reached before it, as along every
elemabelian, cyclic and dihedral constructor's generators, that is
already the lexicographic order, and only any other carrier's batch is
sorted (``endomorphism_tables`` gives the argument).  It, the
automorphism table (its bijective rows, column-major too), the orbits
and each element's image set (read from one column per orbit) are
read-only and memoized per carrier by ``groups._per_carrier``, the one
cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError
from .groups import MAX_TABLE_CELLS, GroupCarrier, TableGroup, _per_carrier

__all__ = [
    "PATH_COUNT_ENDOS",
    "AffinePairs",
    "GroupFunction",
    "automorphism_orbits",
    "automorphism_tables",
    "endomorphism_tables",
    "enumerate_endomorphisms",
    "image_sets",
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
    trivial, that is when no element but 0 has the image 0; a
    column-major table is read one contiguous column at a time."""
    return (tables[:, 1:] != 0).all(axis=1)


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
    img extends along words in the generators to a homomorphism on it.

    A round copies each row once per candidate image of t, in increasing
    order, next to each other, and dropping rows keeps the order; so the
    rows come out ordered by the images of the generators used, in listed
    order.  When each generator used is the least element outside the
    subgroup H reached before it, that is the lexicographic order of the
    image tuples: two endomorphisms that first differ at generator t
    agree on H, which holds every element below t, and differ at t.  Then
    the batch is the table as it stands (every elemabelian, cyclic and
    dihedral constructor's generators are so); for any other carrier it is
    sorted."""
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
    least, ordered = 0, True  # the least element not reached; rows in lex order
    for t in g.generators:
        if t in reached:
            continue
        while least in reached:
            least += 1
        ordered = ordered and t == least
        images = np.flatnonzero(orders[t] % orders == 0).astype(dtype)
        rows = cols.shape[1]
        if rows * len(images) * n > MAX_TABLE_CELLS:
            raise CapacityError(
                f"endomorphism enumeration of {g.name} would hold more than "
                f"{MAX_TABLE_CELLS} candidate images"
            )
        cols = np.repeat(cols, len(images), axis=1)
        cols[t] = np.tile(images, rows)
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
        if not ok.all():  # no copy when every row survives (elemabelian)
            cols = np.compress(ok, cols, axis=1)  # C-contiguous, unlike cols[:, ok]
    if len(known) < n:
        raise ParameterError(f"the listed generators of {g.name} do not generate it")
    if not ordered:
        cols = np.take(cols, np.lexsort(cols[::-1]), axis=1)
    tables = cols.T
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
    endomorphism table in its order (read-only, column-major)."""
    tables = endomorphism_tables(g)
    auts = np.compress(_bijective(tables), tables.T, axis=1).T
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


@_per_carrier
def image_sets(g: GroupCarrier) -> np.ndarray:
    """The images of each element under End(G), as an (n, n) mask whose
    row x marks {phi(x)} (read-only).  phi -> phi o a permutes End(G) for
    an automorphism a, so a(x) has the images of x: one endomorphism
    column is read per automorphism orbit, its leader's, and its set is
    every member's."""
    tables, n = endomorphism_tables(g), g.order
    orbits = automorphism_orbits(g)
    spots = n * np.arange(len(orbits))  # orbit i's set is row i of seen
    seen = np.zeros((len(orbits), n), dtype=bool)
    seen.ravel()[tables[:, [orbit[0] for orbit in orbits]] + spots] = True
    of = np.empty(n, dtype=np.intp)  # of[x]: the orbit of x
    of[np.concatenate(orbits)] = np.repeat(np.arange(len(orbits)),
                                           [len(orbit) for orbit in orbits])
    sets = seen[of]
    sets.setflags(write=False)
    return sets


# |End(G)| from which the search counts the affine rows along its path
# (``AffinePairs.reaching``) instead of keeping one counter per row.  Affine
# searches on a warm carrier, median of 7 alternating calls on a shared
# 2-core Xeon, counters against path counts:
#
#   group                  |End(G)|   counters   path counts
#   elemabelian(2,4)         65,536   140 ms     41 ms      (budget 2,000)
#   elemabelian(3,3)         19,683   33 ms      17 ms      (budget 2,000)
#   C8 x C8                   4,096   8.3 ms     7.9 ms     (budget 2,000)
#   C2^2 x C8                 2,048   5.1 ms     7.1 ms     (budget 2,000)
#   D8 x C2                   1,088   8.3 ms     14.1 ms    (budget 2,000)
#   catalog, order <= 15     <= 512   0.12 s     0.36 s     (all 28, median of 5)
PATH_COUNT_ENDOS = 2**12


class AffinePairs:
    """The affine maps of a group as a family reader (see ``bounds._Rows``
    for the calls): pair j = i * n + c is the map x -> c * phi_i(x), for
    endomorphism row i and constant c.  Every position takes every value,
    as the family holds all constants.  Column x is ``mul.T[phi(x)]``
    flattened, one n-run per endomorphism, and the bucket of (x, v) lists,
    for each i, the one agreeing constant c = v * phi_i(x)^-1, as
    ``ldiv[v][phi(x)] + n * arange(|End|)`` with ``ldiv[v, w] = v * w^-1``:
    ascending, and O(|End|) to list.  So row i of that bucket agrees with
    g at a point y exactly when phi_i(x^-1 y) = v^-1 g(y), and
    ``path_rows`` counts a bucket's agreements with a path from the
    endomorphism columns alone.  The mode is fixed when the reader is
    built: from ``PATH_COUNT_ENDOS`` endomorphisms on the search lists the
    rows reaching its threshold so (``reaching``) and ``at`` reads given
    rows with no column; below it the search keeps counters and ``at``
    reads column x, taken on the first call at x and kept in ``columns``.
    Buckets, rows and a path-mode ``at`` build no table and have no cap;
    columns do (see ``right``).  It also lists the family's position
    symmetries for the search (``translations``)."""

    def __init__(self, g: GroupCarrier):
        self.name, self.endo, self.mul = g.name, endomorphism_tables(g), g.mul_table
        self.maps, self.m1 = len(self.endo) * g.order, g.order
        self.inverse = g.inv_many(np.arange(g.order))
        self.ldiv = self.mul[:, self.inverse]  # ldiv[v, w] = v * w^-1
        self.offsets = g.order * np.arange(len(self.endo))
        # each position's column once taken, or None when counted along the path
        self.columns = [None] * g.order if len(self.endo) < PATH_COUNT_ENDOS else None

    @functools.cached_property
    def quotient(self):
        """quotient[u, v] = u^-1 * v, built on first use: only the path
        counts and the search's translations read it."""
        return self.mul[self.inverse]

    @functools.cached_property
    def right(self):
        """right[w, c] = c * w, built on the first ``column`` call: a
        reader that lists only buckets, rows and the values of given rows
        along the path never holds it.  Only a counter search or a built
        table reads columns, and either comes to hold every one, so a
        family whose columns would fill more than ``MAX_TABLE_CELLS`` cells
        is refused here, before any column is taken: the one place the
        affine cap is checked."""
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

    def at(self, rows, x):
        """The values of the given rows at x: row j = i * n + c takes
        c * phi_i(x), read with no column built along the path, else from
        the kept column x."""
        columns = self.columns
        if columns is None:
            n = self.m1
            return self.mul.ravel().take(rows % n * n + self.endo[:, x].take(rows // n))
        col = columns[x]
        if col is None:
            col = columns[x] = self.column(x)
        return col.take(rows)

    @property
    def reaching(self):
        """``path_rows`` for a family of ``PATH_COUNT_ENDOS`` endomorphisms
        or more, else None (see ``bounds._min_max``)."""
        return self.path_rows if self.columns is None else None

    def path_rows(self, x, v, xs, gs, k):
        """The rows of the bucket of (x, v) that agree with g(xs) = gs on
        at least k of the path's points, ascending.  Row i of the bucket
        agrees at y exactly when phi_i(x^-1 y) = v^-1 g(y), so each point
        compares one contiguous endomorphism column with one value, into
        one bool buffer whose bytes are added to counts of the narrowest
        unsigned type that holds m1.  Only y = x has x^-1 y = 1, where
        every phi_i is 1: that point adds 1 to every row exactly when
        v^-1 g(x) = 1, so the counts start at that and it is not compared."""
        quotient = self.quotient
        ys, ws = quotient[x].take(xs), quotient[v].take(gs)
        same = ys == 0
        agree = np.full(len(self.endo), np.count_nonzero(ws[same] == 0),
                        dtype=np.min_scalar_type(self.m1))
        hit = np.empty(len(self.endo), dtype=bool)
        for y, w in zip(ys[~same].tolist(), ws[~same].tolist()):
            np.equal(self.endo[:, y], w, out=hit)
            agree += hit.view(np.uint8)
        i = np.flatnonzero(agree >= k)
        return self.ldiv[v].take(self.endo[:, x].take(i)) + self.offsets.take(i)

    def translations(self):
        """The position symmetries of the family for ``bounds._min_max``,
        as (maps, quotient): row t of maps is a left translation
        rho(x) = a * x for a != 1, and quotient[u, v] = u^-1 * v.  The
        family is closed under g -> g o rho, as
        c * phi(a x) = (c phi(a)) phi(x), and under g -> u * g, so the
        search may prune by g(a)^-1 g(a x), with a = rho(1).  The right
        translations, and so the two-sided ones, keep the family too, but
        their n * |Inn(G)| maps cost more per search node than they save
        on searches that end on their node budget."""
        return self.mul[1:], self.quotient

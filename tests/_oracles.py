"""Independent brute-force oracles for cross-checking package results.

Everything here recomputes answers from first principles, using only a
group's multiplication table and exhaustive enumeration — deliberately
none of the package's search, pruning, or certificate machinery.  The
``jk`` affine scan reference decides every pair on its own, by the
carrier's product, where the package counts most pairs by classes.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from groupapprox import build_group
from groupapprox.errors import CapacityError, ParameterError
from groupapprox.groups import MAX_TABLE_CELLS, TableGroup
from groupapprox.jk import SCAN_BLOCK, SCAN_CHUNK, _reachable_mask
from groupapprox.morphisms import automorphism_orbits, endomorphism_tables


@functools.cache
def cached_group(spec: str):
    """One shared carrier per spec, so the expensive enumeration caches
    that attach to a carrier are paid once per test session."""
    return build_group(spec)


def table_of(g) -> np.ndarray:
    n = g.order
    ar = np.arange(n)
    return np.asarray(g.mul_many(ar[:, None], ar[None, :]), dtype=np.int64)


def cayley_text_per_cell(g) -> str:
    """g's Cayley text written one table entry at a time, the reference for
    ``serialize_cayley``."""
    lines = [str(g.order), "g " + " ".join(str(x) for x in g.generators)]
    lines += [" ".join(str(int(v)) for v in row) for row in g.mul_table]
    return "\n".join(lines) + "\n"


def cube_associative(table) -> bool:
    """(x y) z == x (y z) on all n^3 triples, the reference for the
    associativity proof in ``validate``."""
    T = np.asarray(table, dtype=np.int64)
    return bool((T[T] == T[:, T]).all())


def endomorphism_tables_by_rows(g) -> np.ndarray:
    """Image tables of all endomorphisms of a dense carrier, one row per
    map, in lexicographic order (read-only, column-major), from a row-major
    batch that re-checks every edge (x, x*s) of the reached elements by
    every generator so far after each generator.  The reference for
    ``morphisms.endomorphism_tables``, which checks only the edges of the
    newly reached elements."""
    if not isinstance(g, TableGroup):
        raise CapacityError(f"endomorphism enumeration of {g.name} needs a "
                            "dense carrier's Cayley table")
    n, dtype, mul = g.order, g.index_type, g.mul_table
    orders = np.array(g.element_orders())
    rows = np.full((1, n), -1, dtype=dtype)
    rows[0, 0] = 0
    known = [0]  # elements with an image, each reached from an earlier one
    reached = {0}
    gens: list[int] = []
    for t in g.generators:
        if t in reached:
            continue
        images = np.flatnonzero(orders[t] % orders == 0).astype(dtype)
        if len(rows) * len(images) * n > MAX_TABLE_CELLS:
            raise CapacityError(
                f"endomorphism enumeration of {g.name} would hold more than "
                f"{MAX_TABLE_CELLS} candidate images"
            )
        rows = np.repeat(rows, len(images), axis=0)
        rows[:, t] = np.tile(images, len(rows) // len(images))
        gens.append(t)
        for x in known:  # grows while it is walked
            for s in gens:
                y = int(mul[x, s])
                if y not in reached:
                    reached.add(y)
                    known.append(y)
                    rows[:, y] = mul[rows[:, x], rows[:, s]]
        xs = np.array(known)
        ok = np.ones(len(rows), dtype=bool)
        for s in gens:
            ok &= (rows[:, mul[xs, s]] == mul[rows[:, xs], rows[:, [s]]]).all(axis=1)
        rows = rows[ok]
    if len(known) < n:
        raise ParameterError(f"the listed generators of {g.name} do not generate it")
    tables = np.take(rows.T, np.lexsort(rows.T[::-1]), axis=1).T
    tables.setflags(write=False)
    return tables


def brute_affine(table: np.ndarray, endos: np.ndarray) -> np.ndarray:
    """All tables c * phi(.) for c in G and phi an endomorphism."""
    blocks = [table[c][endos] for c in range(table.shape[0])]
    return np.concatenate(blocks, axis=0)


def max_agreement(images, family: np.ndarray) -> int:
    images = np.asarray(images, dtype=np.int64)
    return int((family == images[None, :]).sum(axis=1).max())


def brute_worst_case(n: int, family: np.ndarray, chunk: int = 4096,
                     pinned: dict[int, int] | None = None) -> int:
    """min over all n^n functions of the max agreement with the family, or
    over those taking value v at x for every x: v in pinned."""
    best = n + 1
    fam = np.asarray(family, dtype=np.int64)
    pinned = pinned or {}
    at, want = list(pinned), list(pinned.values())
    it = itertools.product(range(n), repeat=n)
    while True:
        block = np.array(list(itertools.islice(it, chunk)), dtype=np.int64)
        if block.size == 0:
            return best
        block = block[(block[:, at] == want).all(axis=1)]
        if not len(block):
            continue
        agree = (block[:, None, :] == fam[None, :, :]).sum(axis=2).max(axis=1)
        best = min(best, int(agree.min()))


def all_set_partitions(m: int):
    """Every partition of {0..m-1}, as lists of sorted lists (via
    restricted-growth strings)."""
    if m == 0:
        yield []
        return
    labels = [0] * m

    def rec(i: int, top: int):
        if i == m:
            blocks: dict[int, list[int]] = {}
            for x, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(x)
            yield [blocks[k] for k in sorted(blocks)]
            return
        for lab in range(top + 2):
            labels[i] = lab
            yield from rec(i + 1, max(top, lab))

    yield from rec(1, 0)


def perm_avoids(classes, perm) -> bool:
    cls_of = {}
    for ci, cls in enumerate(classes):
        for x in cls:
            cls_of[x] = ci
    pts = sorted(cls_of)
    if sorted(perm) != pts:
        return False
    return all(cls_of[x] != cls_of[perm[i]] for i, x in enumerate(pts))


def avoiding_exists_brute(classes) -> bool:
    """Ground truth by trying every permutation of the points."""
    pts = sorted(x for cls in classes for x in cls)
    cls_of = {x: ci for ci, cls in enumerate(classes) for x in cls}
    for perm in itertools.permutations(pts):
        if all(cls_of[pts[i]] != cls_of[perm[i]] for i in range(len(pts))):
            return True
    return not pts


def brute_app_tiny(m1: int, m2: int, family) -> int:
    """Pure-python worst case over all m2^m1 functions (tiny shapes)."""
    fam = [tuple(f) for f in family]
    best = m1 + 1
    for g in itertools.product(range(m2), repeat=m1):
        top = max(sum(a == b for a, b in zip(g, f)) for f in fam)
        best = min(best, top)
    return best


def brute_endomorphisms(table: np.ndarray, gens) -> np.ndarray:
    """All endomorphism image tables in lexicographic order, by trying
    every tuple of images for ``gens`` and keeping the homomorphisms.

    Each element is reached from the identity by a word in ``gens`` (a
    breadth-first spanning tree of the Cayley graph), so a tuple of
    generator images fixes a unique candidate map; the candidate is kept
    when it respects every one of the n^2 products.  This costs
    n^len(gens) candidates instead of the n^n maps of a filter over every
    map, and uses neither element orders nor a choice of edges to check.
    """
    table = np.asarray(table, dtype=np.int64)
    n = table.shape[0]
    gens = [int(s) for s in gens]
    ident = next(e for e in range(n) if (table[e] == np.arange(n)).all())
    # x = parent[x] * gens[via[x]] along the spanning tree
    parent, via, order = {ident: None}, {}, [ident]
    for x in order:
        for k, s in enumerate(gens):
            y = int(table[x, s])
            if y not in parent:
                parent[y], via[y] = x, k
                order.append(y)
    if len(order) != n:
        raise ValueError("gens do not generate the group")
    imgs = np.array(list(itertools.product(range(n), repeat=len(gens))),
                    dtype=np.int64).reshape(-1, len(gens))
    phi = np.empty((len(imgs), n), dtype=np.int64)
    phi[:, ident] = ident
    for x in order[1:]:
        phi[:, x] = table[phi[:, parent[x]], imgs[:, via[x]]]
    keep = np.ones(len(phi), dtype=bool)
    for x in range(n):  # phi(x y) = phi(x) phi(y) for every y
        keep &= (phi[:, table[x]] == table[phi[:, [x]], phi]).all(axis=1)
    endos = phi[keep]
    return endos[np.lexsort(endos.T[::-1])]


def brute_automorphisms(table: np.ndarray, gens) -> np.ndarray:
    """All automorphism image tables: the bijective rows of
    ``brute_endomorphisms``, in its order."""
    endos = brute_endomorphisms(table, gens)
    n = endos.shape[1]
    return endos[(np.sort(endos, axis=1) == np.arange(n)).all(axis=1)]


def orbits_under(maps: np.ndarray) -> set[frozenset[int]]:
    """The orbits of the group generated by the permutations ``maps``
    (its rows), by closing each point under every map."""
    n = maps.shape[1]
    seen, orbits = set(), set()
    for x in range(n):
        if x in seen:
            continue
        orb, frontier = {x}, [x]
        while frontier:
            frontier = [int(y) for y in set(maps[:, frontier].ravel().tolist()) - orb]
            orb.update(frontier)
        seen |= orb
        orbits.add(frozenset(orb))
    return orbits


def bijective_by_sort(tables: np.ndarray) -> np.ndarray:
    """Row mask of the image tables that are permutations, by sorting each
    row (the reference for ``morphisms._bijective``)."""
    return (np.sort(tables, axis=1) == np.arange(tables.shape[1])).all(axis=1)


def orbits_by_unique(auts: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Orbits of the maps in auts, one ``np.unique`` per unseen element in
    increasing order (the reference for ``morphisms.automorphism_orbits``)."""
    n = auts.shape[1]
    seen = np.zeros(n, dtype=bool)
    orbits = []
    for x in range(n):
        if not seen[x]:
            orb = np.unique(auts[:, x])
            seen[orb] = True
            orbits.append(tuple(orb.tolist()))
    return tuple(orbits)


def affine_row_blocks(g, f):
    """The blocks (ys, xs, hit, pairs) of the full affine scan of a ``jk``
    carrier, rows y against every x with every pair decided on its own:
    hit marks the pairs (y, x), x != y, for which an endomorphism carries
    d = y^-1 x to e = f(y)^-1 f(x), and the block covers ``pairs`` pairs.
    The coset halves qd of d and qe of e decide a pair where qd != 0 (a
    hit when qe is 0 or qd); the full product on the carrier's halves
    decides the pairs with qd = 0.  The reference for the class-counted
    full scan of ``verify_affapp_one``."""
    n, p4, add, neg = g.order, g._p4, g._add, g._neg
    index = np.min_scalar_type(-n)
    block = SCAN_BLOCK * 8 // index.itemsize

    def coset_of_quotient(a, qb):
        # coset code of a^-1 b, given the element a and the coset code of b
        qa = np.take(neg, a // p4)
        return np.take(add, np.multiply(qa, p4, dtype=index) + qb)

    def hits(ys, xs, qx, qfx):
        qd = coset_of_quotient(ys, qx)
        qe = coset_of_quotient(np.take(f, ys), qfx)
        hit = (qe == 0) | (qe == qd)
        central = np.unravel_index(np.flatnonzero(qd == 0), hit.shape)
        y = np.broadcast_to(ys, hit.shape)[central]
        x = np.broadcast_to(xs, hit.shape)[central]
        d = g._mul_halves(*g._inv_halves(*np.divmod(y, p4)), *np.divmod(x, p4))
        e = g._mul_halves(
            *g._inv_halves(*np.divmod(f[y], p4)), *np.divmod(f[x], p4)
        )
        hit[central] = _reachable_mask(*d, *e)
        return hit

    xs, rows = np.arange(n, dtype=index), max(1, block // n)
    qx, qfx = xs // p4, f // p4
    for lo in range(0, n, rows):
        ys = xs[lo : lo + rows, None]
        hit = hits(ys, xs, qx, qfx)
        hit[np.arange(ys.size), ys[:, 0]] = False
        yield ys, xs, hit, ys.size * (n - 1)


def affine_scan_by_rows(g, f):
    """(pairs_checked, violations_total, violations) of the full affine scan
    over ``affine_row_blocks``: every ordered pair x != y, and the first 20
    hits as (y, x) in row-major order."""
    checked, total, bad = 0, 0, []
    for ys, xs, hit, pairs in affine_row_blocks(g, f):
        found = np.flatnonzero(hit)
        checked += pairs
        total += found.size
        keep = np.unravel_index(found[: 20 - len(bad)], hit.shape)
        bad += zip(np.broadcast_to(ys, hit.shape)[keep].tolist(),
                   np.broadcast_to(xs, hit.shape)[keep].tolist())
    return checked, total, tuple(bad)


def sampled_pairs_int64(n: int, samples: int, seed: int):
    """The pairs (ys, xs) of each draw of the sampled affine scan on a group
    of order n, formed in int64 as ``x = (y + offset) % n``: y and the
    offset x - y are drawn SCAN_CHUNK at a time.  The reference for the
    draws of ``jk._affine_chunks``, which wraps x in the index type."""
    rng = np.random.default_rng(seed)
    for done in range(0, samples, SCAN_CHUNK):
        m = min(SCAN_CHUNK, samples - done)
        ys = rng.integers(0, n, size=m, dtype=np.int64)
        yield ys, (ys + rng.integers(1, n, size=m, dtype=np.int64)) % n


def singer_sigma_per_candidate(p: int) -> tuple[tuple[int, ...], ...]:
    """The companion matrix of the lexicographically first primitive quartic
    over F_p, with each candidate's order tested on its own by a scalar
    square-and-multiply: the reference for the chunked ``singer_sigma``."""
    def power(m, e):
        acc = np.eye(4, dtype=np.int64)
        while e:
            if e & 1:
                acc = acc @ m % p
            m = m @ m % p
            e >>= 1
        return acc

    full = p**4 - 1
    factors = [q for q in range(2, full + 1)
               if full % q == 0 and all(q % d for d in range(2, q))]
    eye = np.eye(4, dtype=np.int64)
    for coeffs in itertools.product(range(p), repeat=4):
        # companion matrix of x^4 + a3 x^3 + a2 x^2 + a1 x + a0
        comp = np.eye(4, k=-1, dtype=np.int64)
        comp[:, 3] = -np.array(coeffs) % p
        if (power(comp, full) == eye).all() and not any(
            (power(comp, full // q) == eye).all() for q in factors
        ):
            return tuple(tuple(int(v) for v in row) for row in comp)
    raise AssertionError("no primitive quartic found")


def jk_tables_on_eight_axes(p: int, lam1: int, lam2: int):
    """The tables (add, cocycle, neg) of the ``jk(p, lam1, lam2)`` carrier,
    each summand of each table spread over all eight digit axes of a pair
    of codes and added in a full-table scratch: the reference for the
    carrier's own construction, which sums each digit on its axes alone."""
    p4 = p**4
    dtype = np.min_scalar_type(-p4)
    weight = p ** np.arange(3, -1, -1)
    carry = np.array([[1, 0, 0, 0], [lam1, lam2, 0, 0], [0, 0, 1, 1],
                      [0, 0, 0, 1]])
    r = np.arange(p)
    total = np.add.outer(r, r)
    commutator = -np.multiply.outer(r, r) % p

    def on_axes(table, i, j):
        shape = [1] * 8
        shape[i] = shape[j] = p
        return table.astype(dtype).reshape(shape)

    add = np.zeros((p,) * 8, dtype=dtype)
    for i in range(4):
        add += on_axes(total % p * weight[i], i, 4 + i)
    cocycle = np.zeros_like(add)
    central = np.empty_like(add)
    for j in range(4):
        central[...] = on_axes(commutator, 2 + j % 2, 4 + j // 2)
        for i in range(4):
            if carry[i, j]:
                central += on_axes(carry[i, j] * (total >= p), i, 4 + i)
        central %= p
        central *= weight[j]
        cocycle += central
    codes = np.arange(p4)
    digits = np.stack([codes // p**k % p for k in (3, 2, 1, 0)], axis=-1)
    neg = (-digits % p @ weight).astype(dtype)
    return add.ravel(), cocycle.ravel(), neg


def image_sets_per_column(g) -> np.ndarray:
    """The (n, n) mask of each element's images {phi(x)}, by one count of
    every element's endomorphism column: the reference for
    ``morphisms.image_sets``, which reads one column per automorphism
    orbit."""
    tables = endomorphism_tables(g)
    n = g.order
    return np.array([np.bincount(tables[:, x], minlength=n) > 0 for x in range(n)])


def universal_elements_per_element(g) -> tuple[int, ...]:
    """Elements u whose endomorphism images {phi(u)} cover the group, by one
    count of every element's column: the reference for
    ``search.universal_elements``, which reads ``morphisms.image_sets``."""
    tables = endomorphism_tables(g)
    n = g.order
    return tuple(
        u for u in range(n) if np.bincount(tables[:, u], minlength=n).all()
    )


def enapp_zero_witness_per_column(g) -> list[int] | None:
    """The images of ``search.enapp_zero_witness``, by one count of every
    element's column: each x goes to its least zero count, or None when
    some column takes every value."""
    tables = endomorphism_tables(g)
    n = g.order
    counts = [np.bincount(tables[:, x], minlength=n) for x in range(n)]
    if any(c.all() for c in counts):
        return None
    return [int(c.argmin()) for c in counts]


def universal_tuple_restarted(g, l: int) -> tuple[int, ...] | None:
    """The lexicographically first universal l-tuple whose first coordinate
    leads its automorphism orbit, or None, by a depth-first search from the
    empty prefix for this l alone: the reference for
    ``search.find_universal_tuple``, which reads one search for every
    length."""
    tables = endomorphism_tables(g)
    m, n = tables.shape
    if n**l > m:
        return None
    univ = universal_elements_per_element(g)
    firsts = [orb[0] for orb in automorphism_orbits(g) if orb[0] in univ]

    def extend(prefix, codes):
        j = len(prefix)
        if j == l:
            return prefix
        for u in firsts if j == 0 else univ:
            longer = codes + n**j * tables[:, u].astype(np.int64)
            if np.bincount(longer, minlength=n ** (j + 1)).all():
                hit = extend(prefix + (u,), longer)
                if hit is not None:
                    return hit
        return None

    return extend((), np.zeros(m, dtype=np.int64))


def universal_tuples_restarted(g, most: int) -> list[tuple[int, ...]]:
    """The first universal tuple of each length 1, 2, ... until a length has
    none or ``most`` are found, one restarted search per length: the
    reference for the one search that ``lower_bound_certificates`` reads."""
    tuples = []
    while len(tuples) < most and (
        tup := universal_tuple_restarted(g, len(tuples) + 1)
    ) is not None:
        tuples.append(tup)
    return tuples

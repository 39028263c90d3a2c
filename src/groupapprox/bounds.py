"""Counting bounds and the exact min-max for map families on finite sets.

For functions M1 -> M2 and a family F of such maps, app_F(g) is the best
agreement count of g with a member of F, and app_F(M1, M2) the minimum
over all g.  Counting the Hamming balls around family members yields a
general upper bound whenever |F| <= m2^fval, and families containing all
constants admit a pigeonhole lower bound.  Specializing both to the
endomorphism/affine families of a group of order n gives closed-form
bounds in the order alone, since |End(G)| <= |G|^(log2 |G|).

The exact value app_F(M1, M2) is found by one decision search, shared by
``brute_force_app`` here and ``search.worst_case_value`` for groups.  The
search reads a family only through a reader: ``_Rows`` here reads a table
of rows, and ``morphisms.AffinePairs`` reads a group's affine maps as
(endomorphism, constant) pairs; the search itself does no group arithmetic.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ParameterError

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "BoundReport",
    "agreement_bounds",
    "ball_size",
    "brute_force_app",
    "circle_size",
    "endo_count_bound",
    "worst_case_upper_bounds",
]

BRUTE_FORCE_LIMIT = 10**6
# the most decimal digits a count in a BoundReport may have: Python's
# default limit for writing an int as text, which every report document does
MAX_COUNT_DIGITS = 4300
_COUNT_CAP = 10**MAX_COUNT_DIGITS
E_SQUARED = math.e**2
_SLACK = 1e-9


def circle_size(m1: int, m2: int, k: int) -> int:
    """Number of functions M1 -> M2 at Hamming distance exactly k from a
    fixed one: C(m1, k) * (m2 - 1)^k, in exact integers."""
    if m1 < 1 or m2 < 1:
        raise ParameterError("m1 and m2 must be positive")
    if not 0 <= k <= m1:
        raise ParameterError(f"k must lie in 0..{m1}, got {k}")
    return math.comb(m1, k) * (m2 - 1) ** k


def ball_size(m1: int, m2: int, k: int) -> int:
    """Number of functions at Hamming distance at most k."""
    if not 0 <= k <= m1:
        raise ParameterError(f"k must lie in 0..{m1}, got {k}")
    return sum(circle_size(m1, m2, i) for i in range(k + 1))


@dataclass(frozen=True)
class BoundReport:
    m1: int
    m2: int
    fval: float
    log_ratio: float            # log base m2 of m1
    gamma: tuple[int, ...]      # circle sizes, k = 0..m1
    nu: tuple[int, ...]         # ball sizes, k = 0..m1
    lower: Fraction             # families containing all constants
    upper: float                # families with |F| <= m2^fval
    upper_branch: str           # which max-branch is active


def agreement_bounds(m1: int, m2: int, fval: float) -> BoundReport:
    """General bounds on the worst-case agreement with a family on M1 -> M2.

    lower = max(1, m1/m2) holds for every family containing all constants;
    upper = max(e^2 * m1/m2, fval*ln(m2) + ln(m1)) holds for every family of
    size at most m2^fval.  The largest count, nu at k = m1, is m2^m1; a
    pair for which it has more than MAX_COUNT_DIGITS digits is refused
    with CapacityError before any count is formed, and so is an fval whose
    upper bound overflows a float: JSON has no infinity.
    """
    if m1 < 2 or m2 < 2:
        raise ParameterError("m1 and m2 must both be at least 2")
    if not 0 < fval < math.inf:  # also refuses nan
        raise ParameterError(f"fval must be positive and finite, got {fval}")
    # the float test keeps the exact power small: int/float compare exactly
    if m1 > MAX_COUNT_DIGITS / math.log10(m2) or m2**m1 >= _COUNT_CAP:
        raise CapacityError(f"m2**m1 has more than {MAX_COUNT_DIGITS} digits")
    if m2 > sys.float_info.max:  # e^2 m1/m2 below divides in floats
        raise CapacityError("m2 is beyond the floating-point range")
    fiber_branch = E_SQUARED * m1 / m2
    entropy_branch = fval * math.log(m2) + math.log(m1)
    if fiber_branch >= entropy_branch:
        upper, branch = fiber_branch, "e2-fiber"
    else:
        upper, branch = entropy_branch, "entropy"
    if upper == math.inf:
        raise CapacityError(f"the upper bound for fval = {fval} overflows a float")
    gamma = tuple(circle_size(m1, m2, k) for k in range(m1 + 1))
    lower = max(Fraction(1), Fraction(m1, m2))
    return BoundReport(
        m1=m1,
        m2=m2,
        fval=float(fval),
        log_ratio=math.log(m1) / math.log(m2),
        gamma=gamma,
        nu=tuple(itertools.accumulate(gamma)),
        lower=lower,
        upper=upper,
        upper_branch=branch,
    )


def endo_count_bound(n: int) -> float:
    """|End(G)| <= n^(log2 n) for any group of order n (generators suffice)."""
    if n < 1:
        raise ParameterError(f"order must be positive, got {n}")
    return float(n) ** math.log2(n)


def worst_case_upper_bounds(n: int) -> tuple[float, float]:
    """Closed-form upper bounds on the worst-case endomorphic and affine
    approximability of any group of order n >= 2:

        endo:   (1/ln 2 + 1/ln n) * ln^2 n
        affine: (1/ln 2 + 2/ln n) * ln^2 n

    These follow from the counting bound with fval = log2 n (resp.
    log2 n + 1, since |Aff(G)| = n * |End(G)|).  For n >= 8 the endo bound
    is at least e^2, a side condition the derivation leans on; it is
    asserted here rather than assumed.
    """
    if n < 2:
        raise ParameterError(f"bounds need order >= 2, got {n}")
    ln = math.log(n)
    endo = (1 / math.log(2) + 1 / ln) * ln * ln
    affine = (1 / math.log(2) + 2 / ln) * ln * ln
    if n >= 8:
        assert endo >= E_SQUARED - _SLACK
    return endo, affine


class _Budget(Exception):
    pass


class _Rows:
    """A family as the (maps, m1) table of its rows, the reader
    ``brute_force_app`` and the endomorphism family use.  ``taken``, when
    given, is an (m1, m2) mask of the values each position takes (for the
    endomorphisms, ``morphisms.image_sets``); else ``values`` reads the
    position's column.  A reader has ``maps`` and ``m1``, and
    ``values(x)``, an index of the values position x takes (``slice(None)``
    for every value); ``column(x)``, the value of every row at x;
    ``rows(x, v)``, the rows taking v at x, ascending;
    ``row(j)``, the map of row j; and ``reaching``, None or a function
    ``(x, v, xs, gs, k)`` listing, ascending, the rows taking v at x that
    agree with a path g(xs) = gs on at least k of its points (here None:
    the search keeps counters).  A reader with ``reaching`` also has
    ``at(rows, x)``, the values of the given rows at x."""

    reaching = None

    def __init__(self, tables, taken=None):
        self.tables = tables
        self.taken = tables.T if taken is None else taken
        self.maps, self.m1 = tables.shape

    def values(self, x):
        return self.taken[x]

    def column(self, x):
        return self.tables[:, x]

    def rows(self, x, v):
        return np.flatnonzero(self.tables[:, x] == v)

    def row(self, j):
        return self.tables[j]


def _min_max(family, m2, start, budget=math.inf, pinned=None, perms=None,
             translations=None):
    """Least k such that some g: M1 -> M2 agrees with every family row on
    at most k points, by iterative deepening on k from ``start``.

    family is a reader (see ``_Rows``) of maps M1 -> M2 with values in
    0..m2-1, and start must be a lower bound on the answer.  pinned maps
    positions to fixed values of g; each pinned agreement is counted up
    front, and the deepening starts at no less than the largest such
    count, which is a lower bound too.  Each threshold asks "is there a g
    agreeing with every family row at most k times?": the free positions
    are assigned in order of decreasing discrimination (number of distinct
    family values there, ties by position), values in increasing order.  A
    value is tried as one node, and skipped when some row taking it
    already agrees at least k times.

    perms, when given, is a group of permutations of M2 (one per row) whose
    action on values, g -> a o g, maps the family rows onto themselves, so
    g and a o g agree with the family equally often.  Only the rows fixing
    the pinned values are kept (perms is copied only when some row moves
    one), and each depth holds the stabilizer S of
    the values assigned so far: value v is tried only if it is the least in
    its S-orbit, and the child's stabilizer is ``S[S[:, v] == v]``, or S
    itself when S fixes v.  Each stabilizer's orbit leaders are found once,
    when it is made, and it is dropped once it is the identity alone.

    translations, when given, is (maps, anchors, quotient): a row rho of
    maps permutes M1, its anchor is a position and quotient an m2 x m2
    table, such that sigma(g): x -> quotient[g(anchor), g(rho(x))] keeps
    the pinned values and agrees with the family as often as g (for the
    affine maps of a group, g(a)^-1 g(a x) for a left translation by a;
    see ``morphisms.AffinePairs.translations``).  These are lex-leader
    constraints on the search order (Crawford, Ginsberg, Luks, Roy, KR
    1996): a value is rejected, as one node, as soon as some sigma(g) is
    decidably lex-smaller than g.  Comparing sigma(g) with g at depth c
    needs g at depth c's position, at the anchor and at rho of that
    position, so it becomes decidable at the deepest of their depths, and
    each map waits, with the depth c of its next comparison, in the list
    of the depth where that comparison becomes decidable.  A value tried at
    depth i runs the maps filed at i: each compares on while it can decide,
    a smaller sigma(g) rejects the value, a larger one drops the map below
    it, and an equal prefix files it at the depth its next comparison
    needs.  Those filings are undone when the value is rejected or left,
    so no node scans all maps, and without translations no map is filed.

    This removes only duplicate subtrees.  Without pruning the search
    returns the lexicographically least feasible g in search order.  For
    every a in S, a o g is feasible with the same prefix, so g's next value
    is at most its image under a: it is least in its S-orbit, and no prefix
    of g is pruned.  Each sigma(g) is feasible too, so it is not
    lex-smaller than g, and no comparison rejects a prefix of g.  So k and
    images are those of the unpruned search, and only node counts change.
    For the affine translations sigma_rho o sigma_rho' = sigma_(rho' rho),
    and sigma commutes with g -> a o g, so in the same way every orbit of
    the group both prunings generate keeps its lex-least member: only
    duplicates go.

    The search is depth-first on an explicit stack of the depths above the
    current one, so it goes as deep as m1 whatever Python's recursion
    limit.  The rows whose agreement with the path (the pins and the
    values assigned so far) is already >= k are listed in ``full``, one
    index buffer of ``maps`` entries shared by every depth: each depth
    owns a prefix of it and marks once, one byte per value, the values
    those rows take at its position.  A value is skipped exactly when one
    of its rows is in ``full``, that is when the largest agreement among
    its rows is >= k, so every skip, node count and threshold is the one a
    per-value maximum over the value's rows would give.  The rows of a
    value tried are all below k, so each row enters ``full`` at most once
    on a path: assigning the value appends those of its rows that have
    just reached k past the depth's prefix, and backtracking drops them
    with the prefix.  The buffer starts small and doubles when it
    overflows.

    A family whose reader has a ``reaching`` function is counted along
    the path.  Only ``morphisms.AffinePairs`` has one, from
    ``PATH_COUNT_ENDOS`` endomorphisms on, where its buckets are so long
    that recounting the path costs less than keeping a counter per row
    and undoing it.  When v goes to position x, ``reaching`` lists the
    rows taking v at x that agree with the path, this point included, at
    least k times; they are exactly the rows that have just reached k,
    since none of them was in ``full``.  For the affine pairs the count is
    exact by the difference identity: row (phi, c) takes v at x when
    c = v phi(x)^-1, and then c phi(y) = v phi(x^-1 y), so it agrees with
    g at a path point y exactly when phi(x^-1 y) = v^-1 g(y).  Such a
    family keeps no counters, no buckets and nothing to undo.  Every
    other family keeps one agreement counter per row, and a value tried
    increments its bucket of rows, listed by ``rows`` the first time the
    value is tried at that position and kept for the rest of the call;
    backtracking decrements it.  Values no row takes at a position (from
    ``values``, marked once per call) never get a bucket.  Counters are
    the narrowest unsigned type holding m1.  A depth blocks the values
    that the rows in ``full`` take at its position.  A family counted
    along the path reads just those values (``at``), so its search takes
    no column and holds no more than the rows in ``full``.  Every other
    family gathers them from the position's ``column``, taken on first
    entry to the depth and kept for the rest of the call, so such a search
    may come to hold every column: over a short ``full`` a gather from a
    cached column costs less than ``at``.

    Returns (k, images, nodes, thresholds, symmetries): images is a g
    reaching k, nodes the search nodes (values tried) over all thresholds,
    thresholds those tried in order and symmetries the number of perms
    rows left after pinning (1 without perms).  When more than ``budget``
    nodes are needed, k is the threshold the search stopped on, images is
    None and nodes is exactly ``budget``.
    """
    maps, m1 = family.maps, family.m1
    pinned = pinned or {}
    free = [x for x in range(m1) if x not in pinned]
    seen = {x: np.zeros(m2, dtype=bool) for x in free}
    for x in free:
        seen[x][family.values(x)] = True
    positions = sorted(free, key=lambda x: (-np.count_nonzero(seen[x]), x))
    seen = [seen[x].tobytes() for x in positions]
    columns = [None] * len(positions)
    buckets = [{} for _ in positions]
    base_counts = np.zeros(maps, dtype=np.min_scalar_type(m1))
    for x, v in pinned.items():
        base_counts[family.rows(x, v)] += 1
    reaching = family.reaching
    if reaching is not None:  # the path's positions and values, pins first
        path = np.array([*pinned, *positions], dtype=np.intp)
        path_values = np.zeros(len(path), dtype=np.intp)
        path_values[:len(pinned)] = list(pinned.values())
        on_path = len(pinned) + 1  # points on the path at depth 0

    def symmetry(stab):
        """A stabilizer with its orbit leaders and the values it fixes (its
        one-point orbits), or None once only the identity is left."""
        if len(stab) == 1:
            return None
        low, high = stab.min(axis=0), stab.max(axis=0)
        leaders = np.flatnonzero(low == np.arange(m2)).tolist()
        return stab, leaders, (low == high).tobytes()

    root, symmetries = None, 1
    if perms is not None:
        for v in pinned.values():
            fixes = perms[:, v] == v
            if not fixes.all():
                perms = perms[fixes]
        root, symmetries = symmetry(perms), len(perms)
    everything = range(m2)
    last = len(positions) - 1
    images = [0] * m1
    for x, v in pinned.items():
        images[x] = v
    nodes = 0
    k = max(start, int(base_counts.max(initial=0)))  # no row may start above k

    filed_first = files = None
    if translations is not None and positions:
        rho, anchors, quotient = translations
        rank = np.full(m1, -1)
        rank[positions] = np.arange(len(positions))
        need = np.maximum(rank[anchors], rank[rho[:, positions[0]]]).clip(0)
        filed_first = [[] for _ in positions]
        for row, anchor, d in zip(rho.tolist(), anchors.tolist(), need.tolist()):
            filed_first[d].append((row, anchor, 0))
        rank = rank.tolist()
        quotient = quotient.tolist()

    def translate(i, v):
        """Whether g with v at depth i passes every comparison that becomes
        decidable at depth i: the depths where it filed maps further, or
        None when some translate of g is lex-smaller.  A map is filed as
        (rho, its anchor, the depth it compares next); after its first
        comparison the anchor is known, so the next one waits only for its
        own depth and for rho of that depth's position."""
        images[positions[i]] = v
        filed = []
        for row, anchor, c in files[i]:
            shift = quotient[images[anchor]]
            while True:
                x = positions[c]
                s, w = shift[images[row[x]]], images[x]
                if s != w:
                    break
                c += 1
                if c > last:
                    break
                d = rank[row[positions[c]]]
                if d < c:
                    d = c
                if d > i:
                    files[d].append((row, anchor, c))
                    filed.append(d)
                    break
            if s < w:
                for d in filed:
                    files[d].pop()
                return None
        return filed

    def enter(i, full, sym):
        """An iterator over depth i's values and the values its ``full``
        rows block there, as one byte each."""
        if reaching is not None:
            taken = family.at(full, positions[i])
        else:
            col = columns[i]
            if col is None:
                col = columns[i] = family.column(positions[i])
            taken = col[full]
        blocked = np.zeros(m2, dtype=bool)
        blocked[taken] = True
        return iter(everything if sym is None else sym[1]), blocked.tobytes()

    def feasible(counts) -> bool:
        """Depth-first over the positions, the current depth in locals.
        Going down pushes it on a stack with its length of ``full``, the
        bucket its value incremented (None when no row takes the value or
        the family is counted along the path) and the depths its value
        filed maps at; coming back up pops it and undoes that increment and
        those filings."""
        nonlocal nodes, files
        if not positions:
            return True
        if filed_first is not None:
            files = [list(entries) for entries in filed_first]
        reached = np.flatnonzero(counts >= k)
        size = len(reached)
        full = np.empty(2 * size + 256, dtype=np.intp)
        full[:size] = reached
        i, sym, filed = 0, root, ()
        values, blocked = enter(0, full[:size], sym)
        stack = []
        while True:
            for v in values:
                if nodes >= budget:
                    raise _Budget
                nodes += 1
                if not blocked[v] and (
                    files is None or (filed := translate(i, v)) is not None
                ):
                    break
            else:
                if not stack:
                    return False
                i -= 1
                values, blocked, size, sym, bucket, filed = stack.pop()
                if bucket is not None:
                    counts[bucket] -= 1
                for d in filed:
                    files[d].pop()
                continue
            images[positions[i]] = v
            child_size, bucket, reached = size, None, None
            if reaching is not None:
                end = on_path + i
                path_values[end - 1] = v
                reached = reaching(positions[i], v, path[:end],
                                   path_values[:end], k)
            elif seen[i][v]:
                bucket = buckets[i].get(v)
                if bucket is None:
                    bucket = buckets[i][v] = family.rows(positions[i], v)
                agree = counts[bucket] + 1
                counts[bucket] = agree
                reached = bucket[agree == k]
            if reached is not None:
                child_size = size + len(reached)
                if child_size > len(full):
                    longer = np.empty(2 * child_size, dtype=np.intp)
                    longer[:size] = full[:size]
                    full = longer
                full[size:child_size] = reached
            if i == last:
                return True
            stack.append((values, blocked, size, sym, bucket, filed))
            if sym is not None:
                stab, _, fixed = sym
                if not fixed[v]:
                    sym = symmetry(stab[stab[:, v] == v])
            i, size = i + 1, child_size
            values, blocked = enter(i, full[:size], sym)

    thresholds = []
    while True:
        thresholds.append(k)
        try:
            # a family counted along the path only reads its base counts
            if feasible(base_counts if reaching is not None
                        else base_counts.copy()):
                break
        except _Budget:
            return k, None, nodes, tuple(thresholds), symmetries
        k += 1
    return k, tuple(images), nodes, tuple(thresholds), symmetries


def brute_force_app(m1: int, m2: int, family) -> int:
    """Exact min over all m2^m1 functions of the max agreement with the
    family (m2^m1 <= 10^6).  The search starts at the pigeonhole bound
    ceil(m1/m2) when the family holds all m2 constant maps, else at 0.
    A family that is not a nonempty 2-D integer array of length-m1 maps
    with values in 0..m2-1 is refused with ParameterError; nothing is
    coerced, so 1.5 or '1' is not read as 1."""
    if m1 < 1 or m2 < 1:
        raise ParameterError("m1 and m2 must be positive")
    if m2**m1 > BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"brute force limited to m2^m1 <= {BRUTE_FORCE_LIMIT}, "
            f"got {m2}^{m1}"
        )
    try:
        fam = np.array(list(family), order="F")
    except ValueError as exc:  # ragged rows
        raise ParameterError(f"family is not an array: {exc}") from None
    if fam.ndim != 2 or fam.shape[0] == 0 or fam.shape[1] != m1:
        raise ParameterError("family must be a nonempty list of length-m1 maps")
    if fam.dtype.kind not in "iu" or fam.min() < 0 or fam.max() >= m2:
        raise ParameterError("family values must be integers in 0..m2-1")
    constants = fam[(fam == fam[:, :1]).all(axis=1), 0]
    start = -(-m1 // m2) if len(np.unique(constants)) == m2 else 0
    return _min_max(_Rows(fam), m2, start)[0]

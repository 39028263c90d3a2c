"""Worst-case approximability search.

For a finite group G and a family F of self-maps (here: all endomorphisms,
or all affine maps x -> c*phi(x)), the approximability of f: G -> G is the
largest number of arguments on which f agrees with some member of F.  The
worst-case value of G is the minimum of that quantity over all |G|^|G|
functions f.  It is found by the min-max search in ``bounds``, started from
a certified structural lower bound; what is group-specific lives here.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .bounds import _min_max, _Rows, worst_case_upper_bounds
from .errors import CapacityError, ParameterError, _integer
from .groups import GroupCarrier, _generated, _per_carrier
from .morphisms import (
    AffinePairs,
    GroupFunction,
    automorphism_orbits,
    automorphism_tables,
    endomorphism_tables,
    image_sets,
)

__all__ = [
    "DEFAULT_BUDGET",
    "METRICS",
    "ApproxCertificate",
    "LowerBound",
    "SearchStats",
    "approximability",
    "bounds_certificate",
    "difference_criterion",
    "enapp_zero_witness",
    "family_tables",
    "find_universal_tuple",
    "lower_bound_certificates",
    "universal_elements",
    "worst_case_value",
]

METRICS = ("endo", "affine")
DEFAULT_BUDGET = 10**9


@dataclass(frozen=True)
class LowerBound:
    value: int
    kind: str
    evidence: tuple | None = None


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    elapsed: float
    thresholds: tuple[int, ...]
    symmetries: int  # automorphisms the search prunes by, 1 for none


@dataclass(frozen=True)
class ApproxCertificate:
    group: GroupCarrier = field(compare=False, repr=False)
    metric: str
    exact: bool
    lower: int
    upper: int
    witness: GroupFunction | None
    lower_bound: LowerBound
    stats: SearchStats

    @property
    def value(self) -> int | None:
        return self.lower if self.exact else None


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ParameterError(f"metric must be one of {METRICS}, got {metric!r}")


def _family(g: GroupCarrier, metric: str):
    """The family's reader, the one place a metric becomes one: the
    endomorphism rows, or the affine pairs, which refuse a family past the
    table cap on their first column (a counter search's or a built
    table's) and list buckets, rows and single values with no cap."""
    _check_metric(metric)
    if metric == "endo":
        return _Rows(endomorphism_tables(g), image_sets(g))
    return AffinePairs(g)


def family_tables(g: GroupCarrier, metric: str) -> np.ndarray:
    """The family's table, one row per map in its reader's numbering
    (read-only, column-major): the memoized endomorphism table, or the
    affine pairs' columns stacked anew, the first read before anything is
    allocated, so that a capped family is refused first.  This view stays
    only for the benchmark and the tests."""
    _check_metric(metric)
    if metric == "endo":
        return endomorphism_tables(g)
    pairs = AffinePairs(g)
    first = pairs.column(0)  # a capped family is refused here
    tables = np.empty((pairs.maps, pairs.m1), dtype=first.dtype, order="F")
    for x in range(pairs.m1):
        tables[:, x] = pairs.column(x)
    tables.setflags(write=False)
    return tables


def approximability(f: GroupFunction, metric: str):
    """Best agreement count of f with the family, plus a map achieving it:
    the first such map in family order, the order of ``family_tables``.

    Argument x counts for every member in the bucket ``rows(x, f(x))`` of
    the family's reader, which for the affine pairs is one constant per
    endomorphism; the family is read, not built, so no cap applies."""
    family = _family(f.group, metric)
    agree = np.zeros(family.maps, dtype=np.min_scalar_type(family.m1))
    for x, v in enumerate(f.images.tolist()):
        agree[family.rows(x, v)] += 1
    j = int(np.argmax(agree))
    return int(agree[j]), GroupFunction(f.group, family.row(j))


# --------------------------------------------------------------------------
# lower-bound certificates
# --------------------------------------------------------------------------

@_per_carrier
def universal_elements(g: GroupCarrier) -> tuple[int, ...]:
    """Elements u whose endomorphism images {phi(u)} cover the whole group,
    ascending, read off ``morphisms.image_sets``."""
    return tuple(np.flatnonzero(image_sets(g).all(axis=1)).tolist())


def _universal_tuples(g: GroupCarrier):
    """The lexicographically first universal tuple of each length 1, 2, ...
    in turn, from one depth-first search, up to the largest length l with
    n^l <= |End(G)|: a tuple (u1..ul) is universal when
    phi -> (phi(u1)..phi(ul)) maps End(G) onto G^l.

    Every coordinate of such a tuple is universal, and the first one may
    be taken to lead its automorphism orbit (composing with an
    automorphism permutes End(G)).  Every prefix of a universal tuple is
    universal, so the tuples are grown one coordinate at a time in
    lexicographic order, carrying the codes sum_j n^j * phi(u_j) of the
    prefix, and a prefix is dropped as soon as some code in 0..n^j - 1 is
    missing.

    A candidate u in the subgroup the prefix generates is skipped: phi(u)
    is then a word in the prefix's images, so the codes of the prefix and
    u take at most the n^j values of the prefix's codes, fewer than the
    n^(j+1) a universal tuple needs.  That needs n >= 2; in the trivial
    group the one element is universal in every coordinate, and the rule
    is off.

    In this preorder a prefix comes before its extensions, and the nodes
    at one depth come in lexicographic order.  So the first node reached
    at depth l is the first universal l-tuple t, and the search goes on
    below it.  A universal (l+1)-tuple has a universal l-prefix, which is
    t or comes after it, so the tuple itself comes after t: every prefix
    before t was refuted at depth l and has no node at depth l + 1.  The
    first node reached at depth l + 1 is therefore the first universal
    (l+1)-tuple, with no restart."""
    tables = endomorphism_tables(g)
    m, n = tables.shape
    univ = universal_elements(g)
    firsts = [orb[0] for orb in automorphism_orbits(g) if orb[0] in univ]
    prefix, codes, choices = [], [np.zeros(m, dtype=np.int64)], [iter(firsts)]
    deepest = 0  # the longest tuple yielded so far
    while choices:
        j = len(prefix)
        for u in choices[-1]:
            longer = codes[-1] + n**j * tables[:, u].astype(np.int64)
            if np.bincount(longer, minlength=n ** (j + 1)).all():
                break
        else:  # every extension refuted: back up one coordinate
            choices.pop()
            codes.pop()
            prefix = prefix[:-1]
            continue
        prefix = prefix + [u]
        codes.append(longer)
        if j + 1 > deepest:
            deepest = j + 1
            yield tuple(prefix)
            if n ** (j + 2) > m:
                return
        inside = _generated(g, prefix) if n > 1 else np.zeros(n, dtype=bool)
        choices.append(iter([w for w in univ if not inside[w]]))


def find_universal_tuple(g: GroupCarrier, l: int) -> tuple[int, ...] | None:
    """The lexicographically first universal l-tuple (u1..ul), with u1
    leading its automorphism orbit, or None (see ``_universal_tuples``)."""
    l = _integer("tuple length", l, 1)
    for tup in _universal_tuples(g):
        if len(tup) == l:
            return tup
    return None


@_per_carrier
def lower_bound_certificates(g: GroupCarrier) -> Mapping[str, LowerBound]:
    """Best cheap lower bounds for both metrics, with evidence, as a
    read-only mapping from metric to bound.

    The bounds are taken in a fixed order of precedence.  With a longest
    universal tuple of length l, endo is l and affine is l + 1, both with
    the tuple as evidence.  Without one, endo is 1 for an abelian group and
    0 (none) otherwise, and affine is 2 from a dominating automorphism
    orbit (one holding more than half of the non-identity elements), else
    2 for an abelian group, else 1 from the constants the affine family
    contains.  Past enumeration capacity there is no tuple and no orbit.
    """
    n = g.order
    if n == 1:
        return MappingProxyType({
            "endo": LowerBound(1, "trivial-group"),
            "affine": LowerBound(1, "trivial-group"),
        })
    tup, orbits = None, ()
    try:
        orbits = automorphism_orbits(g)
        for tup in _universal_tuples(g):  # keeps the longest
            pass
    except CapacityError:
        pass
    if tup is not None:
        endo = LowerBound(len(tup), "universal-tuple", tup)
        affine = LowerBound(len(tup) + 1, "universal-tuple", tup)
        return MappingProxyType({"endo": endo, "affine": affine})
    # two disjoint orbits cannot each hold more than half: there is at most one
    dominating = next((o for o in orbits if o != (0,) and 2 * len(o) > n - 1), None)
    abelian = g.is_abelian()
    endo = LowerBound(int(abelian), "abelian" if abelian else "none")
    if dominating is not None:
        affine = LowerBound(2, "dominating-orbit", dominating)
    elif abelian:
        affine = LowerBound(2, "abelian")
    else:
        affine = LowerBound(1, "constants")
    return MappingProxyType({"endo": endo, "affine": affine})


# --------------------------------------------------------------------------
# the min-max search
# --------------------------------------------------------------------------

def _bracket(g: GroupCarrier, metric: str, lower: int, lb: LowerBound,
             stats: SearchStats) -> ApproxCertificate:
    """The open certificate from lower up to the closed-form upper bound on
    the worst case, as an agreement count."""
    n = upper = g.order
    if n >= 2:
        endo_bound, affine_bound = worst_case_upper_bounds(n)
        bound = endo_bound if metric == "endo" else affine_bound
        upper = max(lower, min(n, math.floor(bound + 1e-9)))
    return ApproxCertificate(g, metric, False, lower, upper, None, lb, stats)


def bounds_certificate(g: GroupCarrier, metric: str) -> ApproxCertificate:
    """The bracket from the lower-bound certificate to the closed-form upper
    bound, with no family table and no search: 0 nodes, no thresholds."""
    _check_metric(metric)
    t0 = time.perf_counter()
    lb = lower_bound_certificates(g)[metric]
    stats = SearchStats(nodes=0, elapsed=time.perf_counter() - t0,
                        thresholds=(), symmetries=1)
    return _bracket(g, metric, lb.value, lb, stats)


def _constraints(g: GroupCarrier, metric: str, lb: LowerBound, family):
    """(pinned, translations) for the search of g's worst case under
    metric from lower bound lb: the values of f the search fixes, and the
    affine position symmetries of ``family``, the metric's reader, or None.

    For the affine family f(1) = 1 is pinned, which is harmless because
    the affine worst case is invariant under translation: the family is
    closed under f -> f(a)^-1 f(a .) for every element a, which keeps
    f(1) = 1, so the search also takes the reader's ``translations`` and
    drops f as soon as one of those translates is lex-smaller in search
    order.

    A forced f(1) = 1 would give every endomorphism a free agreement, but
    an abelian G whose lower bound is a universal tuple (u1..ul) pins
    f(u_i) = 1 instead.  End(G) is then a group under pointwise addition,
    an additive code in G^n, and f and f - psi (psi in End(G)) agree
    equally often with it, since phi -> phi - psi permutes it: only one f
    per coset matters (coset leaders; Cohen, Honkala, Litsyn, Lobstein,
    Covering Codes, 1997).  As u is universal, some psi has
    psi(u_i) = f(u_i) for every i, so every coset holds an f with
    f(u_i) = 1.  For a non-abelian G, phi -> phi . psi^-1 need not map
    End(G) to itself, so f and f . psi^-1 need not agree equally often,
    and the search is unpinned.  The affine family
    is that code plus the constants and could be pinned the same way with
    the translations off (a translate keeps f(1) = 1, not the new pins).
    It is not yet: the benchmark re-measures each newly exact affine value
    against the whole built table, 2^20 rows for elemabelian(2,4).
    """
    pinned = translations = None
    if metric == "affine" and g.order > 1:
        pinned, translations = {0: 0}, family.translations()
    elif lb.kind == "universal-tuple" and g.is_abelian():
        pinned = dict.fromkeys(lb.evidence, 0)
    return pinned, translations


def worst_case_value(
    g: GroupCarrier,
    metric: str,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ApproxCertificate:
    """Exact worst-case approximability by iterative deepening, or a
    lower/upper bracket when the node budget runs out.

    The search fixes the values ``_constraints`` pins, which keeps the
    worst case (see there), and tries only automorphism-orbit leaders as
    values: both families are closed under f -> a o f for every
    automorphism a (a o (c phi) = a(c) (a o phi)), and every automorphism
    fixes 1, so no pin costs one.  That pruning keeps the least feasible f
    under the pins, so only node counts change.  The family is read
    through ``_family``: an affine family counted along the search path
    (``morphisms.PATH_COUNT_ENDOS``) reads no column and meets no cap, and
    any other past the table cap raises CapacityError when the search
    first reads values with ``at``.  A budget that is not an integer >= 0
    raises ParameterError.
    """
    _check_metric(metric)
    budget = _integer("the search budget", budget, 0)
    t0 = time.perf_counter()
    family = _family(g, metric)
    lb = lower_bound_certificates(g)[metric]
    pinned, translations = _constraints(g, metric, lb, family)
    k, images, nodes, thresholds, symmetries = _min_max(
        family, g.order, lb.value, budget=budget, pinned=pinned,
        perms=automorphism_tables(g), translations=translations,
    )
    stats = SearchStats(
        nodes=nodes, elapsed=time.perf_counter() - t0, thresholds=thresholds,
        symmetries=symmetries,
    )
    if images is not None:
        witness = GroupFunction(g, images)
        return ApproxCertificate(g, metric, True, k, k, witness, lb, stats)
    return _bracket(g, metric, k, lb, stats)


# --------------------------------------------------------------------------
# agreement with affine maps on a subset, and zero-approximability witnesses
# --------------------------------------------------------------------------

def difference_criterion(f: GroupFunction, x_set) -> GroupFunction | None:
    """An affine map agreeing with f on all of x_set, if one exists.

    The first row, in lex order of endomorphisms, that
    ``AffinePairs.path_rows`` lists for (min X, f(min X)) at all |X|
    points of X, by the difference criterion it states.  x_set is any
    nonempty iterable of element indices, read through the carrier's one
    element check; anything else raises ParameterError.
    """
    g = f.group
    xs = list(x_set)
    if not xs:
        raise ParameterError("x_set must be nonempty")
    xs = np.unique(g._elements(xs))
    gs = f.images[xs]
    pairs = AffinePairs(g)
    rows = pairs.path_rows(int(xs[0]), int(gs[0]), xs, gs, len(xs))
    return GroupFunction(g, pairs.row(rows[0])) if len(rows) else None


def enapp_zero_witness(g: GroupCarrier) -> GroupFunction | None:
    """A function agreeing with no endomorphism anywhere, which exists iff
    the group has no universal element; each argument x is sent to the
    smallest element outside {phi(x) : phi in End(G)}."""
    if universal_elements(g):
        return None
    # every image set misses some value, so its first False is the least
    return GroupFunction(g, image_sets(g).argmin(axis=1))

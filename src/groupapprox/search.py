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
from dataclasses import dataclass, field

import numpy as np

from .bounds import _min_max, worst_case_upper_bounds
from .errors import CapacityError, ParameterError
from .groups import GroupCarrier
from .morphisms import (
    GroupFunction,
    affine_tables,
    automorphism_orbits,
    endomorphism_tables,
)

__all__ = [
    "DEFAULT_BUDGET",
    "METRICS",
    "ApproxCertificate",
    "LowerBound",
    "SearchStats",
    "approximability",
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
    metric: str
    value: int
    kind: str
    evidence: tuple | None = None


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    elapsed: float
    thresholds: tuple[int, ...]


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


def family_tables(g: GroupCarrier, metric: str) -> np.ndarray:
    _check_metric(metric)
    if metric == "endo":
        return endomorphism_tables(g)
    return affine_tables(g)


def approximability(f: GroupFunction, metric: str):
    """Best agreement count of f with the family, plus a map achieving it
    (the first such map in canonical family order)."""
    g = f.group
    tables = family_tables(g, metric)
    agree = (tables == f.images).sum(axis=1)
    j = int(np.argmax(agree))
    return int(agree[j]), GroupFunction(g, tables[j])


# --------------------------------------------------------------------------
# lower-bound certificates
# --------------------------------------------------------------------------

def universal_elements(g: GroupCarrier) -> tuple[int, ...]:
    """Elements u whose endomorphism images {phi(u)} cover the whole group."""
    tables = endomorphism_tables(g)
    n = g.order
    return tuple(
        u for u in range(n) if np.bincount(tables[:, u], minlength=n).all()
    )


def _universal_tuple(tables, l, univ, orbits):
    """The prefix search of ``find_universal_tuple`` over precomputed
    universal elements and automorphism orbits."""
    m, n = tables.shape
    firsts = [orb[0] for orb in orbits if orb[0] in univ]

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


def find_universal_tuple(g: GroupCarrier, l: int) -> tuple[int, ...] | None:
    """A tuple (u1..ul) such that phi -> (phi(u1)..phi(ul)) maps End(G) onto
    G^l, or None.  Every coordinate of such a tuple must itself be universal,
    and the first coordinate may be normalized to an automorphism-orbit
    representative (composing with an automorphism permutes End(G)).

    Every prefix of a universal tuple is universal, so the tuples are grown
    one coordinate at a time in lexicographic order, carrying the codes
    sum_j n^j * phi(u_j) of the prefix, and a prefix is dropped as soon as
    some code in 0..n^j - 1 is missing.  The first full-length hit is the
    lexicographically first universal tuple of the normalized space."""
    if l < 1:
        raise ParameterError(f"tuple length must be >= 1, got {l}")
    tables = endomorphism_tables(g)
    m, n = tables.shape
    if n**l > m:
        return None
    return _universal_tuple(
        tables, l, universal_elements(g), automorphism_orbits(g)
    )


_KIND_RANK = {"universal-tuple": 0, "dominating-orbit": 1, "abelian": 2,
              "constants": 3, "none": 4}


def lower_bound_certificates(g: GroupCarrier) -> dict[str, LowerBound]:
    """Best cheap lower bounds for both metrics, with evidence.

    The candidates are a universal l-tuple (endo >= l, and for nontrivial
    groups affine >= l+1), a dominating automorphism orbit (affine >= 2),
    abelianness (endo >= 1, affine >= 2), the constants contained in the
    affine family (affine >= 1) and, for endo, the empty bound 0; the
    largest value wins, ties going to the kind listed first.  When
    enumeration exceeds capacity only the structural candidates remain.
    """
    n = g.order
    if n == 1:
        return {
            "endo": LowerBound("endo", 1, "trivial-group"),
            "affine": LowerBound("affine", 1, "trivial-group"),
        }
    endo = [LowerBound("endo", 0, "none")]
    affine = [LowerBound("affine", 1, "constants")]
    if g.is_abelian():
        endo.append(LowerBound("endo", 1, "abelian"))
        affine.append(LowerBound("affine", 2, "abelian"))
    try:
        tables = endomorphism_tables(g)
    except CapacityError:
        pass
    else:
        m = tables.shape[0]
        univ = universal_elements(g)
        orbits = automorphism_orbits(g)
        l = 1
        while l <= n and n**l <= m:
            tup = _universal_tuple(tables, l, univ, orbits)
            if tup is None:
                break
            endo.append(LowerBound("endo", l, "universal-tuple", tup))
            affine.append(LowerBound("affine", l + 1, "universal-tuple", tup))
            l += 1
        dominating = [
            orb
            for orb in orbits
            if orb != (0,) and 2 * len(orb) > n - 1
        ]
        if dominating:
            dominating.sort(key=lambda o: (-len(o), o[0]))
            affine.append(LowerBound("affine", 2, "dominating-orbit", dominating[0]))

    def best(candidates):
        return max(candidates, key=lambda c: (c.value, -_KIND_RANK[c.kind]))

    return {"endo": best(endo), "affine": best(affine)}


# --------------------------------------------------------------------------
# the min-max search
# --------------------------------------------------------------------------

def _formula_upper(n: int, metric: str) -> int:
    """The closed-form upper bound on the worst case, as an agreement count."""
    if n < 2:
        return n
    endo_bound, affine_bound = worst_case_upper_bounds(n)
    bound = endo_bound if metric == "endo" else affine_bound
    return min(n, math.floor(bound + 1e-9))


def worst_case_value(
    g: GroupCarrier,
    metric: str,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ApproxCertificate:
    """Exact worst-case approximability by iterative deepening, or a
    lower/upper bracket when the node budget runs out.

    For the affine family f(1) = 1 is pinned, which is harmless because the
    affine worst case is invariant under translation; the endo metric has
    no such invariance (a forced f(1) = 1 would give every endomorphism a
    free agreement) and is searched unnormalized.
    """
    _check_metric(metric)
    t0 = time.perf_counter()
    tables = family_tables(g, metric)
    n = g.order
    lb = lower_bound_certificates(g)[metric]
    pinned = {0: 0} if metric == "affine" and n > 1 else None
    k, images, nodes, thresholds = _min_max(
        tables, n, lb.value, budget=budget, pinned=pinned
    )
    stats = SearchStats(
        nodes=nodes, elapsed=time.perf_counter() - t0, thresholds=thresholds
    )
    if images is not None:
        witness = GroupFunction(g, images)
        return ApproxCertificate(g, metric, True, k, k, witness, lb, stats)
    return ApproxCertificate(
        g, metric, False, k, max(k, _formula_upper(n, metric)), None, lb, stats
    )


# --------------------------------------------------------------------------
# agreement with affine maps on a subset, and zero-approximability witnesses
# --------------------------------------------------------------------------

def difference_criterion(f: GroupFunction, x_set) -> GroupFunction | None:
    """An affine map agreeing with f on all of x_set, if one exists.

    f agrees with some affine map on X iff some endomorphism phi satisfies
    phi(y^-1 x) = f(y)^-1 f(x) for all y in X, with x in X fixed; the
    witness is then x -> (f(x) phi(x)^-1) * phi(.).  x is pinned to min(X)
    and the first qualifying endomorphism (lex order) is returned.
    """
    g = f.group
    xs = sorted({int(x) for x in x_set})
    if not xs:
        raise ParameterError("x_set must be nonempty")
    if xs[0] < 0 or xs[-1] >= g.order:
        raise ParameterError("x_set entries must be element indices")
    x0 = xs[0]
    fx0 = f.images[x0]
    cols = [g.mul(g.inv(y), x0) for y in xs]
    want = [g.mul(g.inv(f.images[y]), fx0) for y in xs]
    tables = endomorphism_tables(g)
    hits = np.flatnonzero((tables[:, cols] == want).all(axis=1))
    if not hits.size:
        return None
    endo = tables[hits[0]]
    constant = g.mul(fx0, g.inv(endo[x0]))
    return GroupFunction(g, g.mul_many(constant, endo))


def enapp_zero_witness(g: GroupCarrier) -> GroupFunction | None:
    """A function agreeing with no endomorphism anywhere, which exists iff
    the group has no universal element; each argument x is sent to the
    smallest element outside {phi(x) : phi in End(G)}."""
    if universal_elements(g):
        return None
    tables = endomorphism_tables(g)
    n = g.order
    # every column misses some value, so its first zero count is the least
    return GroupFunction(g, [
        np.bincount(tables[:, x], minlength=n).argmin() for x in range(n)
    ])

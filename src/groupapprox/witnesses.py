"""Explicit witness functions with small approximability, and avoiding
permutations for partitioned ground sets.

The witnesses realize hand-proved upper bounds: a function on Z/n agreeing
with no endomorphism more than once (so the cyclic worst case for the endo
family is exactly 1), the squaring map on Z/p meeting no affine map more
than twice, a remainder+quotient mix on Z/p^k staying within p affine
agreements, and three small-group tables of measured value 2 (affine for
the Z/6 swap and the Sym(3) fold, endomorphic for the Klein table).

The avoiding-permutation construction solves the combinatorial core of the
orbit-avoidance argument: given a partition of a finite set, find a
permutation mapping every point into a different class, which is possible
iff no class holds more than half the points.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .groups import (
    GroupCarrier, _dense, _is_prime, _prime_power, cyclic, dihedral, direct_product,
    elemabelian,
)
from .morphisms import automorphism_orbits
from .search import GroupFunction

__all__ = [
    "build_avoiding_permutation",
    "cyclic_enapp_witness",
    "find_aoa_permutation",
    "prime_square_witness",
    "rem_quot_witness",
    "small_group_witnesses",
]


def cyclic_enapp_witness(n: int) -> GroupFunction:
    """A function on Z/n whose best endomorphism agreement is 1.

    Non-generators (including 0) are sent to 1; a generator x is sent to
    its ring square x*x mod n.  Any endomorphism is x -> a*x; agreeing with
    f at a generator x forces a = x, and a second agreement y (generator or
    not) forces a contradiction, so no endomorphism agrees twice.  (For
    n = 1 the only self-map has agreement exactly 1 as well.)
    """
    if n < 1:
        raise ParameterError(f"needs a cyclic group, got order {n}")
    g = cyclic(n)
    images = tuple(
        (x * x) % n if math.gcd(x, n) == 1 else 1 for x in range(n)
    )
    return GroupFunction(g, images)


def prime_square_witness(p: int) -> GroupFunction:
    """x -> x^2 on Z/p (p prime): affine agreement at most 2, since
    x^2 = ax + b has at most two roots in the field."""
    _dense(f"cyclic({p})", p)
    if not _is_prime(p):
        raise ParameterError(f"needs a prime, got {p}")
    g = cyclic(p)
    return GroupFunction(g, tuple((x * x) % p for x in range(p)))


def rem_quot_witness(p: int, k: int) -> GroupFunction:
    """x -> (x mod p) + (x div p) on Z/p^k: affine agreement at most p."""
    if k < 1:
        raise ParameterError(f"needs an exponent >= 1, got {k}")
    _dense(f"cyclic({p}**{k})", _prime_power(p, k))
    if not _is_prime(p):
        raise ParameterError(f"needs a prime, got {p}")
    n = p**k
    g = cyclic(n)
    return GroupFunction(g, tuple((x % p + x // p) % n for x in range(n)))


def small_group_witnesses() -> dict[str, GroupFunction]:
    """The three hand-built tables of measured value 2.

    z6-swap lives on Z/2 x Z/3 (pair (x, y) encoded as 3x + y) and maps
    (x, y) to (y mod 2, x); its affine value is 2.  klein lives on (Z/2)^2
    and collapses onto the two basis vectors; the table is itself affine,
    so the value 2 it realizes is endomorphic.  sym3 lives on the dihedral
    realization of Sym(3) (indices 1, r, r^2, s, sr, sr^2), fixes 1 and r
    and folds the rest; its affine value is 2.
    """
    z6 = direct_product(cyclic(2), cyclic(3))
    z6_images = tuple(3 * ((i % 3) % 2) + i // 3 for i in range(6))
    klein = elemabelian(2, 2)
    sym3 = dihedral(6)
    return {
        "z6-swap": GroupFunction(z6, z6_images),
        "klein": GroupFunction(klein, (1, 1, 2, 2)),
        "sym3": GroupFunction(sym3, (0, 1, 1, 0, 2, 2)),
    }


# --------------------------------------------------------------------------
# avoiding permutations
# --------------------------------------------------------------------------

def _validate_partition(classes) -> tuple[list[list[int]], int]:
    cleaned = []
    seen: set[int] = set()
    for ci, cls in enumerate(classes):
        cls = sorted({int(x) for x in cls})
        if not cls:
            raise ParameterError(f"class {ci} is empty")
        overlap = seen.intersection(cls)
        if overlap:
            raise ParameterError(f"classes overlap at {sorted(overlap)}")
        seen.update(cls)
        cleaned.append(cls)
    m = len(seen)
    if seen != set(range(m)):
        raise ParameterError("classes must partition 0..m-1")
    return cleaned, m


def build_avoiding_permutation(classes) -> tuple[int, ...] | None:
    """A permutation of the partitioned ground set mapping every point into
    a different class, or None when some class exceeds half the points.

    The classes are laid end to end in one cyclic list of the m points,
    each class in consecutive slots, and every point is sent b slots on,
    where b is the size of the largest class.  This never lands in the
    point's own class: a class of size s fills slots i..i+s-1, and its
    point in slot i+t (0 <= t < s) goes to slot i+t+b.  Since s <= b and
    2b <= m, the offset t+b from the class's first slot satisfies
    s <= t+b < 2b <= m: it passes the class's s slots and stops short of
    a full turn, so it cannot wrap back into them.
    """
    cleaned, m = _validate_partition(classes)
    if m == 0:
        return ()
    b = max(len(c) for c in cleaned)
    if b * 2 > m:
        return None
    cycle = [x for cls in cleaned for x in cls]
    perm = [0] * m
    for i, x in enumerate(cycle):
        perm[x] = cycle[(i + b) % m]
    return tuple(perm)


def find_aoa_permutation(g: GroupCarrier) -> GroupFunction | None:
    """A bijection fixing the identity and moving every other element off
    its automorphism orbit, or None.  Such a function exists iff no orbit
    holds more than half of the non-identity elements."""
    n = g.order
    if n == 1:
        return GroupFunction(g, (0,))
    orbits = [orb for orb in automorphism_orbits(g) if orb != (0,)]
    classes = [[x - 1 for x in orb] for orb in orbits]
    perm = build_avoiding_permutation(classes)
    if perm is None:
        return None
    images = (0,) + tuple(perm[x - 1] + 1 for x in range(1, n))
    return GroupFunction(g, images)

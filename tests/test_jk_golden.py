"""Pinned products and inverses of J(p, lambda).

Each group's products and inverses on 10^5 seeded random elements are
hashed as int64 arrays, so any change to the product code has to reproduce
them value for value.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from groupapprox import jk_group

# (p, lambda1, lambda2) -> sha256 of mul_many(a, b), sha256 of inv_many(a)
GOLDEN = {
    (3, 0, 1): (
        "ee55521495a17ea245923470166eb5ac70beaf5a5817c19048ec501ea9c6e8d7",
        "5e157e79f64f0d7f34e6eba4ba75c3877b2c9eed8bb5067b6d4e705bccbaf753",
    ),
    (3, 1, 1): (
        "6a7b0ce32225e1a22b21c2395be6171a9762c455f239a0d8fe3a640a8b2fe313",
        "54153b4ab1279acac889f401aa7ca67aab578d37f1d2dd9a073255df96063203",
    ),
    (3, 1, 0): (
        "b7dc57f65d07b53984c931dfdd8d713cdeecdc0fb867dd42c6c93764e6794bdc",
        "04b305a91f285772e73436efa31396f5ca3bbd0ad3d3dc961f1371de42fa22c9",
    ),
    (5, 0, 1): (
        "739f686c8bee13fbd95c336f3f9727cd0e54ba04fa39a43c87024f8c7c1bae80",
        "cb31d0c5c9a516c9baa2e27f522fb9d62f044c4ab4bf073e33d9ce4315d5661d",
    ),
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("params", list(GOLDEN))
def test_products_and_inverses_match_golden(params):
    g = jk_group(*params)
    rng = np.random.default_rng(0)
    a = rng.integers(0, g.order, size=10**5)
    b = rng.integers(0, g.order, size=10**5)
    assert (_digest(g.mul_many(a, b)), _digest(g.inv_many(a))) == GOLDEN[params]


@pytest.mark.parametrize("params", list(GOLDEN))
def test_mixed_generator_commutators_are_the_central_basis(params):
    g = jk_group(*params)
    p = params[0]
    a1, a2, b1, b2 = g.generators

    def comm(x, y):
        return g.mul(g.mul(g.inv(x), g.inv(y)), g.mul(x, y))

    mixed = [comm(a, b) for a in (a1, a2) for b in (b1, b2)]
    assert mixed == [p**3, p**2, p, 1]

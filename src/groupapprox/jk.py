"""The family J(p, lambda) of groups of order p^8 with tiny approximability.

Elements are octuples (k1, k2, l1, l2, r1, r2, r3, r4) of residues mod p,
encoded as base-p digits of the element index (k1 most significant).  The
subgroup {k = l = 0} is the center Z, isomorphic to (Z/p)^4, and the
quotient G/Z is again (Z/p)^4, with coset coordinates (k1, k2, l1, l2).
So an index reads q*p^4 + z, where q codes the coset and z the central
part, both as four base-p digits, and the group is the central extension

    (q, z)(q', z') = (q + q', z + z' + c(q, q'))

with + the digit-wise addition of (Z/p)^4.  The cocycle c collects two
terms: each coset digit that overflows p in q + q' feeds a fixed central
vector (the p-th power of that generator, where the parameter pair
lambda = (lambda1, lambda2) enters), and moving the k-part of q' past the
l-part of q feeds the bilinear commutator correction.

The point of the family: granting the classification of its endomorphisms
(every endomorphism is either central-valued or identity-times-central,
trusted here and spot-checked by sampling), an element can only be mapped
into a set of size at most 2p^4 out of p^8.  Twisting both coordinate
blocks by a fixed-point-free linear map sigma then produces a function no
affine map can match twice (worst-case affine value 1), and dodging the
reachable sets pointwise produces a function no endomorphism matches at
all (worst-case endomorphism value 0).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError, ScopeError
from .groups import GroupCarrier, _is_prime
from .search import GroupFunction

__all__ = [
    "JKGroup",
    "JKParams",
    "JKVerification",
    "SigmaMap",
    "endo_reachable",
    "jk_enapp_zero_witness",
    "jk_group",
    "jk_pth_power",
    "make_sigma",
    "sample_check_classification",
    "singer_sigma",
    "twist_function",
    "verify_affapp_one",
    "verify_enapp_zero",
]

# full-scan verification is reserved for the smallest member of the family
FULL_SCAN_PRIME = 3
DEFAULT_SAMPLES = 1_000_000
MAX_RECORDED_VIOLATIONS = 20
# pairs per chunk of a scan (sampled mode draws its pairs chunk by chunk)
SCAN_CHUNK = 1 << 16


@dataclass(frozen=True)
class JKParams:
    """Construction parameters: an odd prime p and the pair lambda."""

    p: int
    lam1: int
    lam2: int

    def __post_init__(self):
        if not _is_prime(self.p) or self.p == 2:
            raise ParameterError(f"p must be an odd prime, got {self.p}")
        for v in (self.lam1, self.lam2):
            if not 0 <= v < self.p:
                raise ParameterError(
                    f"lambda entries must be residues mod {self.p}, got {v}"
                )
        if self.lam2 != 1 and (self.lam1, self.lam2) != (1, 0):
            raise ParameterError(
                "lambda must be (1, 0) or have second entry 1, got "
                f"({self.lam1}, {self.lam2})"
            )

    def require_classified(self) -> None:
        """The endomorphism classification is only available for lam2 = 1."""
        if self.lam2 != 1:
            raise ScopeError(
                "endomorphism classification requires lambda2 = 1, got "
                f"({self.lam1}, {self.lam2})"
            )


def _digits(x, p: int, width: int) -> np.ndarray:
    """Index array -> (..., width) array of its base-p digits, most
    significant first."""
    x = np.asarray(x, dtype=np.int64)
    out = np.empty(x.shape + (width,), dtype=np.int64)
    for i in range(width - 1, -1, -1):
        x, out[..., i] = np.divmod(x, p)
    return out


class JKGroup(GroupCarrier):
    """Rule-based carrier for J(p, lambda), order p^8, held as the central
    extension (q, z)(q', z') = (q + q', z + z' + c(q, q')).

    Two p^4 x p^4 tables on base-p codes, stored flat with entry
    u*p^4 + v for the pair (u, v), hold the whole product: ``_add`` is the
    digit-wise addition (the coset and the central halves share the
    encoding, so it serves both) and ``_cocycle`` is c(q, q') as a central
    code.  ``_neg`` negates a code.  All three use the narrowest signed
    integer type that holds every code.
    """

    def __init__(self, params: JKParams):
        p = params.p
        p4 = p**4
        self.params = params
        self.p = p
        self._p4 = p4
        self._weights = p ** np.arange(7, -1, -1, dtype=np.int64)
        # central vectors added when a k/l digit overflows p: the p-th
        # powers of the generators a1, a2, b1, b2 in that order
        self._carry = np.array(
            [
                [1, 0, 0, 0],
                [params.lam1, params.lam2, 0, 0],
                [0, 0, 1, 1],
                [0, 0, 0, 1],
            ],
            dtype=np.int64,
        )
        digit = _digits(np.arange(p4), p, 4).T  # k1, k2, l1, l2 of each code
        weight = self._weights[4:]
        add = cocycle = 0
        overflow = []
        for i in range(4):
            s = np.add.outer(digit[i], digit[i])
            overflow.append(s >= p)
            add = add + s % p * weight[i]
        for j in range(4):
            # commutator correction: the second factor's k collected past
            # the first factor's l
            r = -np.multiply.outer(digit[2 + j % 2], digit[j // 2])
            for i in range(4):
                r += self._carry[i, j] * overflow[i]
            cocycle = cocycle + r % p * weight[j]
        dtype = np.min_scalar_type(-p4)
        self._add = add.ravel().astype(dtype)
        self._cocycle = cocycle.ravel().astype(dtype)
        self._neg = (-digit.T % p @ weight).astype(dtype)
        gens = (p**7, p**6, p**5, p**4)
        super().__init__(
            p**8, f"jk({p},{params.lam1},{params.lam2})", gens
        )

    # -- digit codecs --

    def decode(self, x) -> np.ndarray:
        """Index array -> (..., 8) digit array, k1 first."""
        return _digits(x, self.p, 8)

    def encode(self, oct_) -> np.ndarray:
        return np.asarray(oct_, dtype=np.int64) @ self._weights

    # -- carrier interface --

    def mul_many(self, a, b):
        # (qa, za)(qb, zb) = (qa + qb, za + zb + c(qa, qb))
        p4, add = self._p4, self._add
        qa, za = np.divmod(a, p4)
        qb, zb = np.divmod(b, p4)
        q = qa * p4 + qb
        z = np.multiply(add[za * p4 + zb], p4, dtype=np.int64) + self._cocycle[q]
        return np.multiply(add[q], p4, dtype=np.int64) + add[z]

    def inv_many(self, a):
        # (q, z)^-1 = (-q, -z - c(q, -q))
        p4, neg = self._p4, self._neg
        q, z = np.divmod(a, p4)
        nq = neg[q]
        z = neg[self._add[z * p4 + self._cocycle[q * p4 + nq]]]
        return np.multiply(nq, p4, dtype=np.int64) + z

    def center(self) -> tuple[int, ...]:
        return tuple(range(self._p4))

    def coset(self, x: int) -> int:
        """Index of the central coset of x, i.e. its (k1,k2,l1,l2) digits."""
        return int(x) // self._p4


def jk_group(p: int, lam1: int, lam2: int, *, allow_large: bool = False) -> JKGroup:
    """Build J(p, lambda).  Primes beyond 3 are gated behind allow_large
    since the order p^8 makes even linear scans expensive."""
    params = JKParams(int(p), int(lam1), int(lam2))
    if params.p > FULL_SCAN_PRIME and not allow_large:
        raise CapacityError(
            f"order {params.p}**8 = {params.p**8}; pass allow_large=True to "
            "build it anyway"
        )
    return JKGroup(params)


def jk_pth_power(g: JKGroup, x) -> np.ndarray | int:
    """x^p by the collection formula: central, with coordinates
    (k1 + lambda1*k2, lambda2*k2, l1, l1 + l2).

    For odd p the binomial coefficient C(p, 2) kills the commutator
    contribution, so x^p is the product of the generators' p-th powers
    (the rows of the carry table) weighted by the coset digits of x.  When
    lambda2 = 1 the map from (k1, k2, l1, l2) to those central coordinates
    is a bijection.
    """
    x = np.asarray(x, dtype=np.int64)
    res = _digits(x // g._p4, g.p, 4) @ g._carry % g.p @ g._weights[4:]
    return int(res) if res.ndim == 0 else res


# --------------------------------------------------------------------------
# fixed-point-free linear twists
# --------------------------------------------------------------------------

def _det_mod(matrix: np.ndarray, p: int) -> int:
    """Determinant of a small integer matrix mod p (Leibniz expansion)."""
    n = matrix.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * int(matrix[i, perm[i]]) % p
        total = (total + term) % p
    return total


@dataclass(frozen=True)
class SigmaMap:
    """An invertible, fixed-point-free linear map on (Z/p)^4."""

    p: int
    matrix: tuple[tuple[int, ...], ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)

    def apply(self, vecs) -> np.ndarray:
        """Apply to row vectors of digits: sigma(v) = M v."""
        return (np.asarray(vecs, dtype=np.int64) @ self._array.T) % self.p


def make_sigma(p: int, matrix) -> SigmaMap:
    """Validate a 4x4 matrix mod p as invertible and fixed-point-free
    (no eigenvalue 1, i.e. det(M - I) nonzero)."""
    arr = np.asarray(matrix, dtype=np.int64) % p
    if arr.shape != (4, 4):
        raise ParameterError(f"sigma must be a 4x4 matrix, got shape {arr.shape}")
    if _det_mod(arr, p) == 0:
        raise ParameterError("sigma must be invertible mod p")
    if _det_mod((arr - np.eye(4, dtype=np.int64)) % p, p) == 0:
        raise ParameterError("sigma must be fixed-point-free (no eigenvalue 1)")
    return SigmaMap(p, tuple(tuple(int(v) for v in row) for row in arr))


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    acc = np.eye(4, dtype=np.int64)
    m = m % p
    while e:
        if e & 1:
            acc = acc @ m % p
        m = m @ m % p
        e >>= 1
    return acc


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def singer_sigma(p: int) -> SigmaMap:
    """The companion matrix of the lexicographically first primitive
    quartic over F_p: a cyclic map of multiplicative order p^4 - 1, hence
    invertible and fixed-point-free."""
    if not _is_prime(p):
        raise ParameterError(f"needs a prime, got {p}")
    full = p**4 - 1
    factors = _prime_factors(full)
    eye = np.eye(4, dtype=np.int64)
    for coeffs in itertools.product(range(p), repeat=4):
        # companion matrix of x^4 + a3 x^3 + a2 x^2 + a1 x + a0
        a0, a1, a2, a3 = coeffs
        comp = np.zeros((4, 4), dtype=np.int64)
        comp[1, 0] = comp[2, 1] = comp[3, 2] = 1
        comp[0, 3] = (-a0) % p
        comp[1, 3] = (-a1) % p
        comp[2, 3] = (-a2) % p
        comp[3, 3] = (-a3) % p
        if not (_mat_pow(comp, full, p) == eye).all():
            continue
        if any((_mat_pow(comp, full // q, p) == eye).all() for q in factors):
            continue
        return make_sigma(p, comp)
    raise AssertionError("no primitive quartic found")  # pragma: no cover


def twist_function(g: JKGroup, sigma: SigmaMap | None = None) -> GroupFunction:
    """The function twisting both coordinate blocks by sigma:
    (k, l | r) -> (sigma(k, l) | sigma(r)).

    With sigma fixed-point-free this realizes worst-case affine value 1,
    conditional on the endomorphism classification (hence the lam2 = 1
    gate).
    """
    g.params.require_classified()
    if sigma is None:
        sigma = singer_sigma(g.p)
    if sigma.p != g.p:
        raise ParameterError(f"sigma is mod {sigma.p}, group needs mod {g.p}")
    p4 = g._p4
    table = sigma.apply(_digits(np.arange(p4), g.p, 4)) @ g._weights[4:]
    q, z = np.divmod(np.arange(g.order, dtype=np.int64), p4)
    return GroupFunction(g, tuple((table[q] * p4 + table[z]).tolist()))


# --------------------------------------------------------------------------
# reachability under the classified endomorphisms
# --------------------------------------------------------------------------

def _reachable_mask(p4: int, d, e) -> np.ndarray:
    """endo_reachable on index arrays (or scalars) d and e."""
    noncentral = (e < p4) | (e // p4 == d // p4)
    central = (e == 0) | (e == d)
    return np.where(d == 0, e == 0, np.where(d < p4, central, noncentral))


def endo_reachable(g: JKGroup, d: int, e: int) -> bool:
    """Whether some classified endomorphism maps d to e.

    Central-valued endomorphisms send d to an arbitrary central element
    when d is noncentral and to the identity otherwise; identity-times-
    central ones keep the coset of d.  So the reachable set is {0} for
    d = 0, {0, d} for central d, and (center union coset of d) otherwise.
    """
    g.params.require_classified()
    return bool(_reachable_mask(g._p4, d, e))


@dataclass(frozen=True)
class JKVerification:
    """Outcome of one of the big agreement scans."""

    params: JKParams
    check: str
    mode: str
    sigma: tuple[tuple[int, ...], ...] | None
    pairs_checked: int
    violations: tuple[tuple[int, int], ...]
    violations_total: int
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.violations_total == 0


def _pair_chunks(n: int, mode: str, samples: int, seed: int):
    """The ordered pairs (y, x) of a scan, as chunks of two index arrays:
    full mode pairs y-major blocks of rows with every x (the diagonal
    included), sampled mode draws y and an offset x - y != 0 per pair."""
    if mode == "full":
        xs = np.arange(n, dtype=np.int64)
        rows = max(1, SCAN_CHUNK // n)
        for lo in range(0, n, rows):
            ys = np.arange(lo, min(lo + rows, n), dtype=np.int64)
            yield np.repeat(ys, n), np.tile(xs, len(ys))
        return
    rng = np.random.default_rng(seed)
    for done in range(0, samples, SCAN_CHUNK):
        m = min(SCAN_CHUNK, samples - done)
        ys = rng.integers(0, n, size=m, dtype=np.int64)
        offs = rng.integers(1, n, size=m, dtype=np.int64)
        yield ys, (ys + offs) % n


def verify_affapp_one(
    g: JKGroup,
    sigma: SigmaMap | None = None,
    *,
    mode: str = "full",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    function: GroupFunction | None = None,
) -> JKVerification:
    """Certify that no affine map agrees twice with the twisted function.

    An affine map agreeing with f at two points x != y forces an
    endomorphism to carry y^-1 x to f(y)^-1 f(x), so the scan checks that
    endo_reachable fails on every ordered pair.  One loop takes the pairs
    in chunks, forms both quotients with the carrier's mul_many/inv_many
    and drops the diagonal x = y.  Full mode walks all n(n-1) pairs,
    y-major (p = 3 only: about 4.3e7 pairs); sampled mode draws random
    pairs.  The first violations are recorded in scan order.
    """
    g.params.require_classified()
    if mode not in ("full", "sampled"):
        raise ParameterError(f"mode must be 'full' or 'sampled', got {mode!r}")
    if mode == "full" and g.p != FULL_SCAN_PRIME:
        raise CapacityError(
            f"full verification is limited to p = {FULL_SCAN_PRIME}; use "
            "mode='sampled'"
        )
    if sigma is None:
        sigma = singer_sigma(g.p)
    if function is None:
        function = twist_function(g, sigma)
    start = time.perf_counter()
    f_img = np.asarray(function.images, dtype=np.int64)
    bad: list[tuple[int, int]] = []
    total_bad = 0
    pairs = 0
    for ys, xs in _pair_chunks(g.order, mode, samples, seed):
        d = g.mul_many(g.inv_many(ys), xs)
        e = g.mul_many(g.inv_many(f_img[ys]), f_img[xs])
        off_diagonal = ys != xs
        hits = np.flatnonzero(_reachable_mask(g._p4, d, e) & off_diagonal)
        pairs += int(np.count_nonzero(off_diagonal))
        total_bad += int(hits.size)
        for i in hits[: max(0, MAX_RECORDED_VIOLATIONS - len(bad))]:
            bad.append((int(ys[i]), int(xs[i])))
    elapsed = time.perf_counter() - start
    return JKVerification(
        params=g.params,
        check="affine-agreement",
        mode=mode,
        sigma=sigma.matrix,
        pairs_checked=pairs,
        violations=tuple(bad),
        violations_total=total_bad,
        elapsed=elapsed,
    )


def jk_enapp_zero_witness(g: JKGroup) -> GroupFunction:
    """A function dodging every classified endomorphism everywhere: each
    argument is sent outside its reachable set (worst-case endomorphism
    value 0)."""
    g.params.require_classified()
    n = g.order
    p4 = g._p4
    idx = np.arange(n, dtype=np.int64)
    central_img = np.where(idx == 1, 2, 1)
    noncentral_img = np.where(idx // p4 == 1, 2 * p4, p4)
    images = np.where(idx < p4, central_img, noncentral_img)
    return GroupFunction(g, tuple(int(v) for v in images))


def verify_enapp_zero(
    g: JKGroup, function: GroupFunction | None = None
) -> JKVerification:
    """Full scan over all arguments: no classified endomorphism can agree
    with the witness at even one point."""
    g.params.require_classified()
    if function is None:
        function = jk_enapp_zero_witness(g)
    start = time.perf_counter()
    idx = np.arange(g.order, dtype=np.int64)
    img = np.asarray(function.images, dtype=np.int64)
    ok = _reachable_mask(g._p4, idx, img)
    hits = np.flatnonzero(ok)
    bad = tuple((int(v), int(img[v])) for v in hits[:MAX_RECORDED_VIOLATIONS])
    elapsed = time.perf_counter() - start
    return JKVerification(
        params=g.params,
        check="endo-agreement",
        mode="full",
        sigma=None,
        pairs_checked=int(g.order),
        violations=bad,
        violations_total=int(hits.size),
        elapsed=elapsed,
    )


def sample_check_classification(
    g: JKGroup, *, samples: int = 2000, seed: int = 0
) -> int:
    """Spot-check that the classified maps really are endomorphisms.

    Draws random linear maps L on the coset space and random pairs (x, y),
    and checks the homomorphism law for both phi(x) = L(coset(x)) embedded
    centrally and x -> x * phi(x).  Returns the number of violations
    (expected 0; the trusted direction — that no other endomorphisms
    exist — is not checkable by sampling).
    """
    g.params.require_classified()
    rng = np.random.default_rng(seed)
    p = g.p
    p4 = g._p4
    bad = 0
    mats = rng.integers(0, p, size=(samples, 4, 4))
    xs = rng.integers(0, g.order, size=samples, dtype=np.int64)
    ys = rng.integers(0, g.order, size=samples, dtype=np.int64)
    weights4 = p ** np.arange(3, -1, -1, dtype=np.int64)
    for i in range(samples):
        L = mats[i]
        x, y = int(xs[i]), int(ys[i])
        xy = g.mul(x, y)

        def phi(v: int) -> int:
            cos_digits = g.decode(v)[0:4]
            return int(((cos_digits @ L.T) % p) @ weights4)

        def psi(v: int) -> int:
            return g.mul(v, phi(v))

        if phi(xy) != g.mul(phi(x), phi(y)):
            bad += 1
        elif psi(xy) != g.mul(psi(x), psi(y)):
            bad += 1
    return bad

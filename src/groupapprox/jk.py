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
(every endomorphism is either central-valued or identity-times-central;
that each such map is an endomorphism is proved by the exhaustive
:func:`check_classified_maps`, that there are no others is trusted here),
an element can only be mapped into a set of size at most 2p^4 out of p^8.
Twisting both coordinate blocks by a fixed-point-free linear map sigma
then produces a function no affine map can match twice (worst-case affine
value 1), and dodging the reachable sets pointwise produces a function no
endomorphism matches at all (worst-case endomorphism value 0).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, ScopeError
from .groups import GroupCarrier, _is_prime, _parity
from .morphisms import GroupFunction

__all__ = [
    "JKGroup",
    "JKParams",
    "JKVerification",
    "SigmaMap",
    "check_classified_maps",
    "endo_reachable",
    "jk_enapp_zero_witness",
    "jk_group",
    "jk_pth_power",
    "make_sigma",
    "singer_sigma",
    "twist_function",
    "verify_affapp_one",
    "verify_enapp_zero",
]

# full-scan verification is reserved for the smallest member of the family
FULL_SCAN_PRIME = 3
DEFAULT_SAMPLES = 1_000_000
MAX_RECORDED_VIOLATIONS = 20
# pairs per draw of a sampled scan (the draws fix its pair sequence)
SCAN_CHUNK = 1 << 16
# cells per block of a pass over all elements or pairs: its int64 temporaries
# (128 KiB) are reused, where 2^16 cells took fresh pages every time
SCAN_BLOCK = 1 << 14
# the two p^4 x p^4 tables of a carrier hold p^8 cells each: p = 7 fits
MAX_TABLE_CELLS = 1 << 24


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

    def _mul_halves(self, qa, za, qb, zb):
        """(qa, za)(qb, zb) = (qa + qb, za + zb + c(qa, qb)) on broadcasting
        coset and central codes: the one place the product is written."""
        p4, add = self._p4, self._add
        # widen before scaling: the tables' type (int8 at p = 3) is too narrow
        q = np.multiply(qa, p4, dtype=np.int64) + qb
        z = add[np.multiply(za, p4, dtype=np.int64) + zb]
        return add[q], add[np.multiply(z, p4, dtype=np.int64) + self._cocycle[q]]

    def _inv_halves(self, q, z):
        """(q, z)^-1 = (-q, -z - c(q, -q)) on coset and central codes."""
        p4, neg = self._p4, self._neg
        nq = neg[q]
        c = self._cocycle[np.multiply(q, p4, dtype=np.int64) + nq]
        return nq, neg[self._add[np.multiply(z, p4, dtype=np.int64) + c]]

    def mul_many(self, a, b):
        q, z = self._mul_halves(*np.divmod(a, self._p4), *np.divmod(b, self._p4))
        return np.multiply(q, self._p4, dtype=np.int64) + z

    def inv_many(self, a):
        q, z = self._inv_halves(*np.divmod(a, self._p4))
        return np.multiply(q, self._p4, dtype=np.int64) + z

    def coset(self, x: int) -> int:
        """Index of the central coset of x, i.e. its (k1,k2,l1,l2) digits."""
        return int(x) // self._p4


def jk_group(p: int, lam1: int, lam2: int, *, allow_large: bool = False) -> JKGroup:
    """Build J(p, lambda).  Primes beyond 3 are gated behind allow_large
    since the order p^8 makes even linear scans expensive; from p = 11 on
    the tables would exceed MAX_TABLE_CELLS and p is refused before its
    primality test (trial division) or any allocation."""
    p = int(p)
    if p > 0 and p**8 > MAX_TABLE_CELLS:
        raise CapacityError(f"jk needs {p}**8 table cells > {MAX_TABLE_CELLS}")
    params = JKParams(p, int(lam1), int(lam2))
    if p > FULL_SCAN_PRIME and not allow_large:
        raise CapacityError(
            f"order {p}**8 = {p**8}; pass allow_large=True to build it anyway"
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
        term = -1 if _parity(perm) else 1
        for i in range(n):
            term = term * int(matrix[i, perm[i]]) % p
        total = (total + term) % p
    return total


@dataclass(frozen=True)
class SigmaMap:
    """An invertible, fixed-point-free linear map on (Z/p)^4."""

    p: int
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, vecs) -> np.ndarray:
        """Apply to row vectors of digits: sigma(v) = M v."""
        m = np.array(self.matrix, dtype=np.int64)
        return (np.asarray(vecs, dtype=np.int64) @ m.T) % self.p


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
        comp = np.eye(4, k=-1, dtype=np.int64)
        comp[:, 3] = -np.array(coeffs) % p
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
    return GroupFunction(g, np.add.outer(table * p4, table).ravel())


# --------------------------------------------------------------------------
# reachability under the classified endomorphisms
# --------------------------------------------------------------------------

def _reachable_mask(qd, zd, qe, ze) -> np.ndarray:
    """endo_reachable on the (coset, centre) halves of index arrays (or
    scalars) d and e: e is 0, or e is central and equals d or d is
    noncentral, or d is noncentral and e lies in its coset."""
    moved = qd != 0
    return ((qe == 0) & (moved | (ze == 0) | (ze == zd))) | (moved & (qe == qd))


def endo_reachable(g: JKGroup, d: int, e: int) -> bool:
    """Whether some classified endomorphism maps d to e.

    Central-valued endomorphisms send d to an arbitrary central element
    when d is noncentral and to the identity otherwise; identity-times-
    central ones keep the coset of d.  So the reachable set is {0} for
    d = 0, {0, d} for central d, and (center union coset of d) otherwise.
    """
    g.params.require_classified()
    return bool(_reachable_mask(*np.divmod(d, g._p4), *np.divmod(e, g._p4)))


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


def _affine_chunks(g: JKGroup, f: np.ndarray, mode: str, samples: int, seed: int):
    """The chunks (ys, xs, hit, pairs) of the affine scan for _tally, hit
    marking the pairs (y, x) for which an endomorphism carries y^-1 x to
    f(y)^-1 f(x).  The halves of x, f(x) and their inverses are tabled for
    every x once per scan, the inverses on the grid of all (q, z).  Full
    mode takes blocks of rows y against every x as one 2-D broadcast with
    the diagonal x = y cleared, sampled mode draws y and an offset x - y."""
    n, p4 = g.order, g._p4
    codes = np.arange(p4, dtype=g._add.dtype)
    xq, xz = np.repeat(codes, p4), np.tile(codes, p4)
    nq, nz = g._inv_halves(codes[:, None], codes)
    iq, iz = np.repeat(nq, p4), nz.ravel()
    fq, fz, jq, jz = xq[f], xz[f], iq[f], iz[f]

    def hits(ys, xs):
        d = g._mul_halves(iq[ys], iz[ys], xq[xs], xz[xs])
        e = g._mul_halves(jq[ys], jz[ys], fq[xs], fz[xs])
        return _reachable_mask(*d, *e)

    if mode == "full":
        xs, rows = np.arange(n), max(1, SCAN_BLOCK // n)
        for lo in range(0, n, rows):
            ys = xs[lo : lo + rows, None]
            yield ys, xs, hits(ys, slice(None)) & (ys != xs), ys.size * (n - 1)
        return
    rng = np.random.default_rng(seed)
    for done in range(0, samples, SCAN_CHUNK):
        m = min(SCAN_CHUNK, samples - done)
        ys = rng.integers(0, n, size=m, dtype=np.int64)
        xs = (ys + rng.integers(1, n, size=m, dtype=np.int64)) % n
        for lo in range(0, m, SCAN_BLOCK):
            y, x = ys[lo : lo + SCAN_BLOCK], xs[lo : lo + SCAN_BLOCK]
            yield y, x, hits(y, x), y.size


def _tally(g: JKGroup, check: str, mode: str, sigma, chunks) -> JKVerification:
    """Time a scan over chunks (a, b, hit, pairs): hit marks where a
    classified endomorphism maps d to e, a and b broadcast to its shape and
    name each entry's pair, and the chunk covers pairs of them.  Record the
    first MAX_RECORDED_VIOLATIONS hits as (a, b) in row-major order."""
    start = time.perf_counter()
    bad: list[tuple[int, int]] = []
    checked = total = 0
    for a, b, hit, pairs in chunks:
        hits = np.flatnonzero(hit)
        checked += pairs
        total += hits.size
        keep = np.unravel_index(hits[: MAX_RECORDED_VIOLATIONS - len(bad)], hit.shape)
        bad += zip(np.broadcast_to(a, hit.shape)[keep].tolist(),
                   np.broadcast_to(b, hit.shape)[keep].tolist())
    elapsed = time.perf_counter() - start
    return JKVerification(
        g.params, check, mode, sigma, checked, tuple(bad), total, elapsed
    )


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
    endo_reachable fails on ordered pairs: all n(n-1) in full mode (p = 3
    only: about 4.3e7), random ones in sampled mode.
    """
    g.params.require_classified()
    if mode not in ("full", "sampled"):
        raise ParameterError(f"mode must be 'full' or 'sampled', got {mode!r}")
    if mode == "full" and g.p != FULL_SCAN_PRIME:
        raise CapacityError(
            f"full verification is limited to p = {FULL_SCAN_PRIME}; use "
            "mode='sampled'"
        )
    if mode == "sampled" and samples < 1:
        raise ParameterError(f"a sampled scan needs samples >= 1, got {samples}")
    if sigma is None:
        sigma = singer_sigma(g.p)
    # a twist built here is dropped once its images are read
    f = (twist_function(g, sigma) if function is None else function).images
    chunks = _affine_chunks(g, f, mode, samples, seed)
    return _tally(g, "affine-agreement", mode, sigma.matrix, chunks)


def jk_enapp_zero_witness(g: JKGroup) -> GroupFunction:
    """A function dodging every classified endomorphism everywhere: each
    argument is sent outside its reachable set (worst-case endomorphism
    value 0)."""
    g.params.require_classified()
    p4 = g._p4
    idx = np.arange(g.order, dtype=np.int64)
    central_img = np.where(idx == 1, 2, 1)
    noncentral_img = np.where(idx // p4 == 1, 2 * p4, p4)
    return GroupFunction(g, np.where(idx < p4, central_img, noncentral_img))


def verify_enapp_zero(
    g: JKGroup, function: GroupFunction | None = None
) -> JKVerification:
    """Full scan over all arguments: no classified endomorphism can agree
    with the witness at even one point."""
    g.params.require_classified()
    if function is None:
        function = jk_enapp_zero_witness(g)
    idx = np.arange(g.order, dtype=np.int64)
    img = function.images
    halves = (*np.divmod(idx, g._p4), *np.divmod(img, g._p4))
    # one chunk, its mask evaluated inside the tally's timing
    chunks = ((idx, img, _reachable_mask(*h), idx.size) for h in [halves])
    return _tally(g, "endo-agreement", "full", None, chunks)


def check_classified_maps(g: JKGroup) -> int:
    """Count the failures of an exhaustive proof that the classified maps,
    phi_L = iota o L o c and x -> x * phi_L(x) for every linear L on the
    coset space, are endomorphisms (c: coset digits, iota: a digit vector
    as a central code).  They are once c adds digit-wise along every
    generator edge (x, x*s), hence on every product; central codes multiply
    digit-wise, so iota is additive; and central codes commute with every
    generator, hence with all of G.  Each fact is checked on every element,
    in SCAN_BLOCK pieces, with mul_many on decoded digits, given that G is
    a group generated by its listed generators (as ``validate`` audits).
    """
    g.params.require_classified()
    p = g.p

    def not_digitwise(a, b, positions) -> int:
        # products a*b whose digits at positions (0 = k1) are not a + b's
        prod = g.mul_many(a, b)
        off = np.zeros(np.shape(prod), dtype=bool)
        for i in positions:
            w = p ** (7 - i)
            off |= prod // w % p != (a // w + b // w) % p
        return int(np.count_nonzero(off))

    bad = 0
    for lo in range(0, g.order, SCAN_BLOCK):  # bounded temporaries
        xs = np.arange(lo, min(lo + SCAN_BLOCK, g.order), dtype=np.int64)
        central = xs[xs < g._p4]
        # every pair of central codes, as the two halves of an index
        bad += not_digitwise(xs // g._p4, xs % g._p4, range(8))
        for s in g.generators:
            bad += not_digitwise(xs, s, range(4))
            moved = g.mul_many(central, s) != g.mul_many(s, central)
            bad += int(np.count_nonzero(moved))
    return bad

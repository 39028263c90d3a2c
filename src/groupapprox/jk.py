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

import time
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, ScopeError
from .groups import MAX_TABLE_CELLS, GroupCarrier, _is_prime
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

# the one p of a full scan
FULL_SCAN_PRIME = 3
DEFAULT_SAMPLES = 1_000_000
MAX_RECORDED_VIOLATIONS = 20
# pairs per draw of a sampled scan (the draws fix its pair sequence), each
# draw decided by one _pair_hits call: its per-call cost is paid per draw
SCAN_CHUNK = 1 << 16
# int64 cells per block of a pass over all elements, classes or coset pairs
# (a sampled draw is not split into blocks): its temporaries (128 KiB) are
# reused, where 2^16 int64 cells took fresh pages every time; a pass with
# narrower temporaries fits proportionally more cells in a block
SCAN_BLOCK = 1 << 14
# candidate quartics per batched order test of singer_sigma
SIGMA_CHUNK = 64


@dataclass(frozen=True)
class JKParams:
    """Construction parameters: an odd prime p and the pair lambda."""

    p: int
    lam1: int
    lam2: int

    def __post_init__(self):
        _jk_prime(self.p)
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


def _jk_prime(p: int) -> None:
    """The one gate on p of J(p, lambda) and its twists: the p^8 cells of
    each of a carrier's two p^4 x p^4 tables fit MAX_TABLE_CELLS (p = 7
    does), tested first so no p past it is trial-divided, and p is an odd
    prime."""
    if p > 0 and p**8 > MAX_TABLE_CELLS:
        raise CapacityError(f"jk needs {p}**8 table cells > {MAX_TABLE_CELLS}")
    if not _is_prime(p) or p == 2:
        raise ParameterError(f"p must be an odd prime, got {p}")


def _digits(x, p: int, width: int) -> np.ndarray:
    """Index array -> (..., width) array of its base-p digits, most
    significant first."""
    x = np.asarray(x, dtype=np.int64)
    out = np.empty(x.shape + (width,), dtype=np.int64)
    for i in range(width - 1, -1, -1):
        x, out[..., i] = np.divmod(x, p)
    return out


def _linear_codes(p: int, matrix) -> np.ndarray:
    """The code of M v for every code v of (Z/p)^4, indexed by v's code:
    the table of the linear map v -> M v on four base-p digits (int64)."""
    m = np.asarray(matrix, dtype=np.int64)
    return _digits(np.arange(p**4), p, 4) @ m.T % p @ p ** np.arange(3, -1, -1)


def _on_axes(table, i: int, j: int, dtype) -> np.ndarray:
    """A p x p table of digits a (axis i) and b (axis j > i), shaped to
    broadcast over the eight digit axes of a pair of codes."""
    shape = [1] * 8
    shape[i] = shape[j] = len(table)
    return table.astype(dtype).reshape(shape)


class JKGroup(GroupCarrier):
    """Rule-based carrier for J(p, lambda), order p^8, held as the central
    extension (q, z)(q', z') = (q + q', z + z' + c(q, q')).

    Two p^4 x p^4 tables on base-p codes, stored flat with entry
    u*p^4 + v for the pair (u, v), hold the whole product: ``_add`` is the
    digit-wise addition (the coset and the central halves share the
    encoding, so it serves both) and ``_cocycle`` is c(q, q') as a central
    code.  ``_neg`` negates a code.  All three use the narrowest signed
    integer type that holds every code.  ``validate`` proves the product
    associative through ``_associates``, which reduces Light's test to the
    cocycle identity on coset codes.
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
        weight = self._weights[4:]
        dtype = np.min_scalar_type(-p4)
        # the tables live on the eight digit axes of (q, q'); each sum below
        # is built in int64 on the few axes it depends on, from p x p digit
        # tables, and written into the full table once, in the tables' type
        r = np.arange(p)
        total = np.add.outer(r, r)
        commutator = -np.multiply.outer(r, r) % p
        # digit i of q + q' lies on axes (i, 4 + i): one half of the sum
        # on the k digits, one on the l digits
        halves = [
            sum(_on_axes(total % p * weight[i], i, 4 + i, np.int64) for i in pair)
            for pair in ((0, 1), (2, 3))
        ]
        add = np.add(*(half.astype(dtype) for half in halves))
        cocycle = np.zeros_like(add)
        for j in range(4):
            # central digit j of c(q, q'): the commutator correction (the
            # second factor's k collected past the first factor's l) plus
            # the carry of every coset digit i that feeds it (overflows p)
            central = _on_axes(commutator, 2 + j % 2, 4 + j // 2, np.int64)
            for i in range(4):
                if self._carry[i, j]:
                    overflow = self._carry[i, j] * (total >= p)
                    central = central + _on_axes(overflow, i, 4 + i, np.int64)
            cocycle += (central % p * weight[j]).astype(dtype)
        self._add = add.ravel()
        self._cocycle = cocycle.ravel()
        self._neg = _linear_codes(p, -np.eye(4, dtype=np.int64)).astype(dtype)
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

    def _pair(self, a, b):
        """a * p^4 + b in the index type on broadcasting codes: the element
        with coset code a and central code b, and the entry of the code pair
        (a, b) in ``_add`` and ``_cocycle``.  Widened before scaling: the
        tables' type (int8 at p = 3) is too narrow.  The index type (int16
        at p = 3, int32 at 5 and 7) holds any entry of the tables' type
        times p^4, so an entry out of range indexes as it would in int64.
        The tables are read with np.take, which gathers by a narrow index
        about twice as fast as a[i]."""
        return np.multiply(a, self._p4, dtype=self.index_type) + b

    def _mul_halves(self, qa, za, qb, zb):
        """(qa, za)(qb, zb) = (qa + qb, za + zb + c(qa, qb)) on broadcasting
        coset and central codes: the one place the product is written, with
        _mul_rows, its form for every zb at once."""
        add, q = self._add, self._pair(qa, qb)
        z = np.take(add, self._pair(za, zb))
        c = np.take(self._cocycle, q)
        return np.take(add, q), np.take(add, self._pair(z, c))

    def _mul_rows(self, qa, za, qb):
        """``_mul_halves`` for every central code zb in order, on a new last
        axis: qa and qb are coset codes shaped (pairs, 1, 1) and za central
        codes shaped (pairs, rows, 1).  za + zb runs over a whole row of
        ``_add``, so the rows are copied, and adding c(qa, qb), constant per
        coset pair, gathers from ``_add``'s column at it once per coset pair."""
        table = self._add.reshape(self._p4, self._p4)
        q = self._pair(qa, qb)
        z = np.take(table, za[..., 0], axis=0)
        for i, c in enumerate(np.take(self._cocycle, q).ravel()):
            z[i] = np.take(table[:, c], z[i])
        return np.take(self._add, q), z

    def _inv_halves(self, q, z):
        """(q, z)^-1 = (-q, -z - c(q, -q)) on coset and central codes."""
        nq = np.take(self._neg, q)
        c = np.take(self._cocycle, self._pair(q, nq))
        return nq, np.take(self._neg, np.take(self._add, self._pair(z, c)))

    def mul_many(self, a, b):
        q, z = self._mul_halves(*np.divmod(a, self._p4), *np.divmod(b, self._p4))
        return self._pair(q, z)

    def inv_many(self, a):
        return self._pair(*self._inv_halves(*np.divmod(a, self._p4)))

    def _associates(self, s: int) -> bool:
        """(x s) y == x (s y) for all x and y, decided on coset codes.

        ``_mul_halves`` writes every product as (q + q', z + z' + c(q, q'))
        with both sums read from ``_add``.  Once ``_add`` is the digit-wise
        addition of (Z/p)^4, an abelian group, and each cocycle entry is a
        code, (x s) y and x (s y) agree for all central halves exactly when

            c(q, q_s) + c(q + q_s, q') = c(q_s, q') + c(q, q_s + q')

        for x, s, y in the cosets q, q_s, q'.  So ``_add`` is compared with
        a digit-wise sum built by ``_digits``, and the identity is checked
        on all p^8 pairs (q, q') in SCAN_BLOCK row blocks: True is a proof;
        False means the identity fails or the tables are not the ones this
        carrier is built on.
        """
        p, p4, add, c, pair = self.p, self._p4, self._add, self._cocycle, self._pair
        if min(add.min(), c.min()) < 0 or max(add.max(), c.max()) >= p4:
            return False  # an entry that is no code; past here every index is in range
        codes = np.arange(p4, dtype=np.int64)
        digits = _digits(codes, p, 4)
        q_s = int(s) // p4
        s_plus, c_s = add[pair(q_s, codes)], c[pair(q_s, codes)]
        rows = max(1, SCAN_BLOCK // p4)
        for lo in range(0, p4, rows):
            q = codes[lo : lo + rows, None]
            digitwise = (digits[lo : lo + rows, None] + digits) % p @ self._weights[4:]
            left = pair(q, q_s)
            lhs = np.take(add, pair(c[left], np.take(c, pair(add[left], codes))))
            rhs = np.take(add, pair(c_s, np.take(c, pair(q, s_plus))))
            if not ((add[pair(q, codes)] == digitwise).all() and (lhs == rhs).all()):
                return False
        return True

    def coset(self, x: int) -> int:
        """Index of the central coset of x, i.e. its (k1,k2,l1,l2) digits."""
        return int(self._elements(x)) // self._p4


def jk_group(p: int, lam1: int, lam2: int, *, allow_large: bool = False) -> JKGroup:
    """Build J(p, lambda) for every p that _jk_prime admits (3, 5 and 7).
    ``allow_large`` is read nowhere: it stays only for the benchmark's
    call and goes with ROADMAP item 1 (the benchmark change)."""
    return JKGroup(JKParams(int(p), int(lam1), int(lam2)))


def jk_pth_power(g: JKGroup, x) -> np.ndarray | int:
    """x^p by the collection formula: central, with coordinates
    (k1 + lambda1*k2, lambda2*k2, l1, l1 + l2).

    For odd p the binomial coefficient C(p, 2) kills the commutator
    contribution, so x^p is the product of the generators' p-th powers
    (the rows of the carry table) weighted by the coset digits of x.  When
    lambda2 = 1 the map from (k1, k2, l1, l2) to those central coordinates
    is a bijection.
    """
    res = _linear_codes(g.p, g._carry.T)[g._elements(x) // g._p4]
    return int(res) if res.ndim == 0 else res


# --------------------------------------------------------------------------
# fixed-point-free linear twists
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaMap:
    """An invertible, fixed-point-free linear map on (Z/p)^4."""

    p: int
    matrix: tuple[tuple[int, ...], ...]


def make_sigma(p: int, matrix) -> SigmaMap:
    """Validate a 4x4 matrix mod p as invertible and fixed-point-free, read
    off its ``_linear_codes`` table: v -> M v is injective, and code 0 is its
    only fixed point, so M - I is injective too.  p must pass _jk_prime."""
    _jk_prime(p)
    arr = np.asarray(matrix, dtype=np.int64) % p
    if arr.shape != (4, 4):
        raise ParameterError(f"sigma must be a 4x4 matrix, got shape {arr.shape}")
    table = _linear_codes(p, arr)
    # a map of the p^4 codes to themselves is one-to-one exactly when onto
    if not np.bincount(table, minlength=table.size).all():
        raise ParameterError("sigma must be invertible mod p")
    if np.count_nonzero(table == np.arange(table.size)) > 1:
        raise ParameterError("sigma must be fixed-point-free (no eigenvalue 1)")
    return SigmaMap(p, tuple(tuple(int(v) for v in row) for row in arr))


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


def _mat_powers(m: np.ndarray, exponents, p: int) -> np.ndarray:
    """m^e mod p for every e of ``exponents`` and every matrix of a (k, 4, 4)
    int64 stack of residues mod p, shaped (len(exponents), k, 4, 4): the
    products of one shared chain of squarings m, m^2, m^4, ..., each square
    multiplied into the powers whose exponent holds its bit."""
    es = np.array(exponents)
    acc = np.broadcast_to(np.eye(4, dtype=np.int64), (es.size,) + m.shape).copy()
    for bit in range(int(es.max()).bit_length()):
        owns = np.flatnonzero(es >> bit & 1)
        acc[owns] = acc[owns] @ m % p
        m = m @ m % p
    return acc


def singer_sigma(p: int) -> SigmaMap:
    """The companion matrix of the lexicographically first primitive
    quartic over F_p: a cyclic map of multiplicative order p^4 - 1, hence
    invertible and fixed-point-free.  p must pass _jk_prime.

    The quartics are tested in lexicographic chunks of SIGMA_CHUNK, each by
    the powers of its companion matrices that one chain of squarings gives
    (_mat_powers): order dividing p^4 - 1, and by no (p^4 - 1)/q for a prime
    q.  The first primitive quartic of the first chunk that holds one is the
    lexicographically first."""
    _jk_prime(p)
    full = p**4 - 1
    exponents = [full // q for q in _prime_factors(full)]
    coeffs = _digits(np.arange(p**4), p, 4)  # (a0, a1, a2, a3), lex order
    eye = np.eye(4, dtype=np.int64)
    for lo in range(0, p**4, SIGMA_CHUNK):
        # companion matrices of x^4 + a3 x^3 + a2 x^2 + a1 x + a0
        chunk = coeffs[lo : lo + SIGMA_CHUNK]
        comp = np.tile(np.eye(4, k=-1, dtype=np.int64), (len(chunk), 1, 1))
        comp[:, :, 3] = -chunk % p
        ones = (_mat_powers(comp, [full, *exponents], p) == eye).all(axis=(2, 3))
        primitive = ones[0] & ~ones[1:].any(axis=0)
        first = np.flatnonzero(primitive)
        if first.size:
            return make_sigma(p, comp[first[0]])
    raise AssertionError("no primitive quartic found")  # pragma: no cover


def _require_modulus(g: JKGroup, sigma: SigmaMap) -> None:
    """Refuse a sigma of another prime than g's."""
    if sigma.p != g.p:
        raise ParameterError(f"sigma is mod {sigma.p}, group needs mod {g.p}")


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
    _require_modulus(g, sigma)
    p4, dtype = g._p4, g.index_type
    # the index type holds every element code, so the outer sum cannot wrap
    table = _linear_codes(g.p, sigma.matrix).astype(dtype)
    images = np.empty(g.order, dtype=dtype)
    np.add.outer(table * p4, table, out=images.reshape(p4, p4))
    return GroupFunction(g, images)


# --------------------------------------------------------------------------
# reachability under the classified endomorphisms
# --------------------------------------------------------------------------

def _coset_mask(qd, qe) -> np.ndarray:
    """_reachable_mask where d is not central (qd != 0): e is central or
    lies in d's coset.  Read by _reachable_mask, _pair_hits and the class
    pass of _affine_full."""
    return (qe == 0) | (qe == qd)


def _central_mask(zd, qe, ze) -> np.ndarray:
    """_reachable_mask where d is central (its coset half is 0): e is 0, or
    e is central and equals d.  Read by _reachable_mask and _central_hits."""
    return (qe == 0) & ((ze == 0) | (ze == zd))


def _reachable_mask(qd, zd, qe, ze) -> np.ndarray:
    """endo_reachable on the (coset, centre) halves of index arrays (or
    scalars) d and e: _coset_mask for noncentral d, _central_mask for
    central d.  Read by endo_reachable and verify_enapp_zero."""
    moved = qd != 0
    return (moved & _coset_mask(qd, qe)) | (~moved & _central_mask(zd, qe, ze))


def endo_reachable(g: JKGroup, d: int, e: int) -> bool:
    """Whether some classified endomorphism maps d to e.

    Central-valued endomorphisms send d to an arbitrary central element
    when d is noncentral and to the identity otherwise; identity-times-
    central ones keep the coset of d.  So the reachable set is {0} for
    d = 0, {0, d} for central d, and (center union coset of d) otherwise.
    """
    g.params.require_classified()
    d, e = g._elements(d), g._elements(e)
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


def _coset_quotient(g: JKGroup, qa, qb) -> np.ndarray:
    """The coset code of a^-1 b as the tables give it, -qa + qb read from
    ``_neg`` and ``_add``, on broadcasting coset codes qa of a and qb of b.
    The ``_add`` index is formed in the carrier's index type."""
    # np.take, not a[i]: fancy indexing by a narrow index array is ~2x slower
    return np.take(g._add, g._pair(np.take(g._neg, qa), qb))


def _central_hits(g: JKGroup, y, fy, x, fx) -> np.ndarray:
    """_central_mask of d = y^-1 x and e = f(y)^-1 f(x), where the computed
    coset half of d reads 0: y, f(y), x and f(x) are (coset, central) halves
    on broadcasting codes, the carrier's product forms d's central half and
    e.  x's central half None stands for every central code in order, on a
    last axis, and d's central half is then read by the carrier's row form
    (_mul_rows).  The one decision of a central pair (_pair_hits,
    _central_rows)."""
    ny, nzy = g._inv_halves(*y)
    qx, zx = x
    if zx is None:
        _, zd = g._mul_rows(ny, nzy, qx)
    else:
        _, zd = g._mul_halves(ny, nzy, qx, zx)
    return _central_mask(zd, *g._mul_halves(*g._inv_halves(*fy), *fx))


def _pair_hits(g: JKGroup, f: np.ndarray, ys, xs) -> np.ndarray:
    """Mark the pairs (y, x) of broadcasting element arrays ys and xs for
    which an endomorphism carries d = y^-1 x to e = f(y)^-1 f(x).

    The coset halves qd of d and qe of e come from ``_coset_quotient``,
    and where qd != 0 they decide the pair (_coset_mask).  Only where the
    computed qd is 0, so d is central if the tables are right, are the
    central halves formed, for _central_hits, on those pairs alone."""
    p4 = g._p4
    qd = _coset_quotient(g, ys // p4, xs // p4)
    qe = _coset_quotient(g, np.take(f, ys) // p4, np.take(f, xs) // p4)
    hit = _coset_mask(qd, qe)
    central = np.unravel_index(np.flatnonzero(qd == 0), hit.shape)
    y = np.broadcast_to(ys, hit.shape)[central]
    x = np.broadcast_to(xs, hit.shape)[central]
    halves = (np.divmod(v, p4) for v in (y, np.take(f, y), x, np.take(f, x)))
    hit[central] = _central_hits(g, *halves)
    return hit


def _affine_chunks(g: JKGroup, f: np.ndarray, samples: int, seed: int):
    """The chunks (ys, xs, hit, pairs) of the sampled affine scan for
    _record: ``samples`` pairs drawn as y and an offset x - y, SCAN_CHUNK
    per draw, each draw decided by one _pair_hits call."""
    n, index = g.order, g.index_type
    rng = np.random.default_rng(seed)
    for done in range(0, samples, SCAN_CHUNK):
        m = min(SCAN_CHUNK, samples - done)
        # drawn in int64, which fixes the pair sequence, then narrowed; the
        # index type holds y + (x - y) <= 2n - 2, so one subtraction wraps it
        ys = rng.integers(0, n, size=m, dtype=np.int64).astype(index)
        xs = rng.integers(1, n, size=m, dtype=np.int64).astype(index)
        xs += ys
        xs -= np.multiply(xs >= n, n, dtype=index)
        yield ys, xs, _pair_hits(g, f, ys, xs), m


def _central_rows(g: JKGroup, fq, fz, qy, qx, zy) -> np.ndarray:
    """Hit counts, shaped (pairs, rows), of the central pass of _affine_full
    on a block: for each coset pair (qy, qx) of the 1-D arrays qy and qx,
    whose computed quotient code reads 0, the rows y = (qy, zy) for the
    central codes zy against every x in coset qx, without the pairs (y, y).
    fq and fz hold the coset and central halves of f, indexed by an
    element's (coset, central) code pair."""
    by, bx, ry = qy[:, None, None], qx[:, None, None], zy[:, None]
    # shaped so that y^-1 and f(y)^-1 are formed per element, d's coset
    # half and c(-qy, qx) per coset pair, e per pair; x runs over every
    # central code, so d's central half is read in rows (_mul_rows)
    y, fy = (by, ry), (fq[by, ry], fz[by, ry])
    hit = _central_hits(g, y, fy, (bx, None), (fq[qx, None], fz[qx, None]))
    # the pairs (y, y): in blocks with qy = qx, where row zy meets column zy
    same = np.flatnonzero(qy == qx)[:, None]
    hit[same, np.arange(zy.size), zy] = False
    return np.count_nonzero(hit, axis=2)


def _affine_full(g: JKGroup, f: np.ndarray) -> tuple[int, list, int]:
    """(pairs, violations, hits) of the affine scan over all n(n - 1)
    ordered pairs (y, x), as _record would give them for _pair_hits on
    every pair in row-major order, counted without deciding every pair.

    Where the computed coset code qd of y^-1 x is not 0, _pair_hits reads
    only four coset codes: q(y), q(f(y)), q(x) and q(f(x)).  So each
    element x gets the class q(x) * p^4 + q(f(x)), the class sizes are a
    bincount over p^8 bins, and the predicate is evaluated once per pair
    of occupied classes, in blocks of SCAN_BLOCK int64 cells' worth of the
    index type, weighted by the sizes of the column classes.  The diagonal
    pair of a class with qd != 0 stands for the pair (y, y) of every y in
    it, so it is taken off each such row.

    The pairs whose computed qd is 0 make the central pass: those of the
    coset pairs (qy, qx) whose quotient code reads 0 (with right tables
    qx = qy, p^4 of the p^8 x in each row), decided pair by pair by
    _central_rows in blocks of SCAN_BLOCK int64 cells' worth of pairs:
    whole coset pairs, or slices of one coset pair's rows where it holds
    more (p = 5).  A block's pair decides on halves formed where they
    vary: y^-1 = (-qy, .) depends on y alone, and so does f(y)^-1; d's
    coset half and the cocycle c(-qy, qx) of y^-1 x are constant per coset
    pair, and qd = 0 holds by selection, so _central_hits decides the pair
    from d's central half, read as copied rows of ``_add`` and one column
    per coset pair (_mul_rows), and e's halves, the only values gathered
    per pair.
    The diagonal is dropped only in blocks with qy = qx.  Like the class
    pass, this reads only the computed ``_add``, ``_cocycle`` and ``_neg``
    tables, never sigma or a property of f.

    That gives every row's hit count.  The first MAX_RECORDED_VIOLATIONS
    rows with a count (a hit or more each) are scanned again pair by pair
    in one _pair_hits call, for _record to name the first hits; each such
    row's count must equal its class count, or the scan raises AssertionError.
    """
    n, p4, index = g.order, g._p4, g.index_type
    block = SCAN_BLOCK * 8 // index.itemsize
    codes = np.arange(p4, dtype=index)
    quotient = _coset_quotient(g, codes[:, None], codes)  # by coset code pair
    xs = np.arange(n, dtype=index)
    fq, fz = np.divmod(f.reshape(p4, p4), p4)  # f's halves by (q, z) of x
    kind = g._pair(codes[:, None], fq).ravel()  # a class code is < n
    sizes = np.bincount(kind, minlength=n)
    classes = np.flatnonzero(sizes)
    qa, qfa, weights = classes // p4, classes % p4, sizes[classes]
    by_class = np.zeros(n, dtype=np.int64)  # class hits of a row in each class
    rows = max(1, block // classes.size)
    for lo in range(0, classes.size, rows):
        a = slice(lo, lo + rows)
        qd = np.take(quotient[qa[a]], qa, axis=1)
        qe = np.take(quotient[qfa[a]], qfa, axis=1)
        hit = _coset_mask(qd, qe) & (qd != 0)
        by_class[classes[a]] = hit @ weights - hit.diagonal(lo)
    counts = by_class[kind]
    # the coset pairs whose quotient reads 0, p^8 = n element pairs each, in
    # blocks of whole coset pairs, or of row slices where n exceeds a block
    qy, qx = (q.astype(index) for q in np.nonzero(quotient == 0))
    step = max(1, block // n)
    rows = min(p4, max(1, block // p4))
    for lo in range(0, qy.size, step):
        a = slice(lo, lo + step)
        for r in range(0, p4, rows):
            zy = codes[r : r + rows]
            y = g._pair(qy[a, None], zy)
            np.add.at(counts, y, _central_rows(g, fq, fz, qy[a], qx[a], zy))
    ys = np.flatnonzero(counts)[:MAX_RECORDED_VIOLATIONS, None]
    if not ys.size:
        return n * (n - 1), [], 0
    hit = _pair_hits(g, f, xs[ys], xs)
    hit[np.arange(ys.size), ys[:, 0]] = False
    found = np.count_nonzero(hit, axis=1)
    for y, pairwise, counted in zip(ys[:, 0], found, counts[ys[:, 0]]):
        if pairwise != counted:
            raise AssertionError(
                f"row {y}: {pairwise} hits pair by pair, {counted} by class"
            )
    _, bad, _ = _record([(ys, xs, hit, ys.size * (n - 1))])
    return n * (n - 1), bad, int(counts.sum())


def _record(chunks) -> tuple[int, list, int]:
    """(pairs, violations, hits) over chunks (a, b, hit, pairs): hit marks
    where a classified endomorphism maps d to e, a and b broadcast to its
    shape and name each entry's pair, and the chunk covers pairs of them.
    The violations are the first MAX_RECORDED_VIOLATIONS hits as (a, b),
    in row-major order."""
    bad: list[tuple[int, int]] = []
    checked = total = 0
    for a, b, hit, pairs in chunks:
        hits = np.flatnonzero(hit)
        checked += pairs
        total += hits.size
        keep = np.unravel_index(hits[: MAX_RECORDED_VIOLATIONS - len(bad)], hit.shape)
        bad += zip(np.broadcast_to(a, hit.shape)[keep].tolist(),
                   np.broadcast_to(b, hit.shape)[keep].tolist())
    return checked, bad, total


def _tally(g: JKGroup, check: str, mode: str, sigma, scan) -> JKVerification:
    """Time scan(), which returns (pairs, violations, hits) as _record
    does, and report it."""
    start = time.perf_counter()
    checked, bad, total = scan()
    elapsed = time.perf_counter() - start
    return JKVerification(
        g.params, check, mode, sigma, checked, tuple(bad), total, elapsed
    )


def _images(g: JKGroup, function: GroupFunction) -> np.ndarray:
    """The images of a function to scan, refused unless its group has the
    order of g: they index arrays of g's elements."""
    if function.group.order != g.order:
        raise ParameterError(
            f"function is on a group of order {function.group.order}, "
            f"{g.name} has order {g.order}"
        )
    return function.images


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
    endomorphism to carry d = y^-1 x to e = f(y)^-1 f(x), so the scan checks
    that endo_reachable fails on ordered pairs: all n(n-1) in full mode
    (p = 3 only: about 4.3e7), random ones in sampled mode.  Where the
    coset half of d is not 0, the coset halves decide a pair (_coset_mask);
    elsewhere _central_hits decides it from central halves.  Sampled mode
    decides pair by pair (_pair_hits); full mode counts the first kind by
    classes of elements and decides the rest pair by pair (_affine_full).
    sigma and the function, when given, must belong to g's prime and order;
    samples and seed must be integers (a bool or a float is refused).
    """
    g.params.require_classified()
    if mode not in ("full", "sampled"):
        raise ParameterError(f"mode must be 'full' or 'sampled', got {mode!r}")
    if mode == "full" and g.p != FULL_SCAN_PRIME:
        raise CapacityError(
            f"full verification is limited to p = {FULL_SCAN_PRIME}: use "
            "mode='sampled' in Python, --mode sampled with verify-jk"
        )
    for name, value in (("samples", samples), ("seed", seed)):
        # a bool or a float is refused, not read as an int: nothing is coerced
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
    if mode == "sampled" and samples < 1:
        raise ParameterError(f"a sampled scan needs samples >= 1, got {samples}")
    if seed < 0:  # np.random.default_rng refuses it with a bare ValueError
        raise ParameterError(f"the seed must be >= 0, got {seed}")
    if sigma is None:
        sigma = singer_sigma(g.p)
    _require_modulus(g, sigma)
    # a twist built here is dropped once its images are read
    f = twist_function(g, sigma).images if function is None else _images(g, function)

    def scan():
        if mode == "full":
            return _affine_full(g, f)
        return _record(_affine_chunks(g, f, samples, seed))

    return _tally(g, "affine-agreement", mode, sigma.matrix, scan)


def jk_enapp_zero_witness(g: JKGroup) -> GroupFunction:
    """A function dodging every classified endomorphism everywhere: each
    argument is sent outside its reachable set (worst-case endomorphism
    value 0)."""
    g.params.require_classified()
    p4 = g._p4
    # central x goes to 1 (x = 1 to 2), the rest to p^4 (its coset to 2p^4)
    images = np.full(g.order, p4, dtype=g.index_type)
    images[:p4] = 1
    images[1] = 2
    images[p4 : 2 * p4] = 2 * p4
    return GroupFunction(g, images)


def verify_enapp_zero(
    g: JKGroup, function: GroupFunction | None = None
) -> JKVerification:
    """Full scan over all arguments: no classified endomorphism can agree
    with the witness at even one point."""
    g.params.require_classified()
    if function is None:
        function = jk_enapp_zero_witness(g)
    n, p4, img = g.order, g._p4, _images(g, function)

    def chunks():  # SCAN_BLOCK arguments each, masked inside the tally's timing
        for lo in range(0, n, SCAN_BLOCK):
            x = np.arange(lo, min(lo + SCAN_BLOCK, n), dtype=np.int64)
            fx = img[lo : lo + SCAN_BLOCK]
            yield x, fx, _reachable_mask(*np.divmod(x, p4), *np.divmod(fx, p4)), x.size

    return _tally(g, "endo-agreement", "full", None, lambda: _record(chunks()))


def check_classified_maps(g: JKGroup) -> int:
    """Count the failures of an exhaustive proof that the classified maps,
    phi_L = iota o L o c and x -> x * phi_L(x) for every linear L on the
    coset space, are endomorphisms (c: coset digits, iota: a digit vector
    as a central code).  They are once c adds digit-wise along every
    generator edge (x, x*s), hence on every product; central codes multiply
    digit-wise, so iota is additive; and central codes commute with every
    generator, hence with all of G.  Each fact is checked on every element,
    in SCAN_BLOCK pieces, with mul_many on decoded digits, given that G is
    a group generated by its listed generators (as ``validate`` proves).
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

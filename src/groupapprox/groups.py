"""Finite group carriers.

A group of order n lives on the index set 0..n-1 with the identity at
index 0.  Dense carriers hold an explicit Cayley table (mandatory up to
:data:`DENSE_LIMIT`); rule-based carriers compute products by formula and
are used for families too large to tabulate.  Derived facts (element
orders, the exponent, commutation and the centre) are computed in
:class:`GroupCarrier` over the vector product ``mul_many`` that every
carrier provides, and one gate, ``_dense``, refuses every dense table
over the limit before it is allocated.  Facts that are costly to derive
(the endomorphism tables and what is read off them) are memoized by
``_per_carrier`` in the one dict each carrier holds for them.

The module provides constructors for the classical small families
(cyclic, elementary abelian, dihedral, dicyclic, symmetric, alternating,
the two nonabelian groups of order p^3, direct products), plain-text
Cayley table round-tripping, one reader of spec strings behind both
``canonical_spec`` and ``build_group``, a validation routine that checks
the group axioms (associativity proved on every carrier by Light's test,
through the ``_associates`` hook each carrier provides), and a hard-coded
catalog of all isomorphism classes up to order 15.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, FormatError, GroupAxiomError, ParameterError

__all__ = [
    "DENSE_LIMIT",
    "GroupCarrier",
    "MAX_TABLE_CELLS",
    "TableGroup",
    "ValidationReport",
    "alt",
    "build_group",
    "canonical_spec",
    "catalog_up_to",
    "cyclic",
    "dicyclic",
    "dihedral",
    "direct_product",
    "elemabelian",
    "heis",
    "modmax",
    "parse_cayley",
    "serialize_cayley",
    "sym",
    "validate",
]

DENSE_LIMIT = 2048
# the one cap on the cells of a table derived from a carrier: the batch of
# the endomorphism enumeration, the affine table, each J(p, lambda) table
# (a dense Cayley table, at most DENSE_LIMIT^2 = 2^22 cells, is under it)
MAX_TABLE_CELLS = 1 << 24
# products per row block of TableGroup._associates
_LIGHT_BLOCK_CELLS = 1 << 20
# longest integer a user may type in a spec, Cayley header or CLI list
MAX_ARG_DIGITS = 30
# an integer as every reader takes it: ASCII digits with an optional sign
# (the syntax np.loadtxt reads into int64); group 1 holds the digits
_INT_TOKEN = re.compile(r"[+-]?([0-9]+)")
# deepest parenthesis nesting of a spec string; a product of nontrivial
# factors nested 12 deep is already over DENSE_LIMIT
MAX_SPEC_DEPTH = 16


def _shown(token: str) -> str:
    """A user token quoted for an error message, cut to MAX_ARG_DIGITS + 2
    characters so an overlong one cannot flood the message."""
    return repr(token[: MAX_ARG_DIGITS + 2])


def _dense(name: str, order: int | None) -> None:
    """Refuse a dense carrier of this order before its table is allocated.
    None stands for an order known to be over the limit that may be too
    large to compute or print (n! for n >= 7, _prime_power)."""
    if order is None or order > DENSE_LIMIT:
        shown = "" if order is None else f" {order}"
        raise CapacityError(f"{name} has order{shown} > {DENSE_LIMIT}")


def _prime_power(p: int, r: int) -> int | None:
    """p**r, or None when |p| > 1 and r is so large that p**r is over
    DENSE_LIMIT (2**12 > 2048); callers check p for primality after."""
    return None if abs(p) > 1 and r >= DENSE_LIMIT.bit_length() else p**r


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# --------------------------------------------------------------------------
# carriers
# --------------------------------------------------------------------------

class GroupCarrier:
    """A finite group on the index set 0..order-1, identity at index 0."""

    def __init__(self, order: int, name: str, generators):
        order = int(order)
        if order < 1:
            raise ParameterError(f"group order must be positive, got {order}")
        self.order = order
        self.name = name
        # the type of every table of elements: each index and a -1 fit in it
        self.index_type = np.min_scalar_type(-order)
        generators = list(generators)
        if not generators:
            raise ParameterError("a carrier needs at least one listed generator")
        self.generators = tuple(self._elements(generators).tolist())
        self._memo = {}  # written only by _per_carrier

    # -- operations (subclasses must provide the two vector forms) --

    def _elements(self, x) -> np.ndarray:
        """x, an index or an index array, refused with ParameterError unless
        every entry is an element index 0..order-1: the one check of the
        listed generators and the public operations that take elements
        (the vector forms stay unchecked, as the hot path)."""
        a = np.asarray(x)
        if a.dtype.kind not in "iu" or a.size and not (
            0 <= a.min() and a.max() < self.order
        ):
            raise ParameterError(
                f"element indices of {self.name} are 0..{self.order - 1}, got "
                f"{_shown(str(x))}"
            )
        return a

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_many(self._elements(a), self._elements(b)))

    def inv(self, a: int) -> int:
        return int(self.inv_many(self._elements(a)))

    def mul_many(self, a, b):
        raise NotImplementedError

    def inv_many(self, a):
        raise NotImplementedError

    def _associates(self, s: int) -> bool:
        """Whether (x s) y == x (s y) for all x and y; ``validate`` decides
        associativity by this test on a generating set."""
        raise NotImplementedError

    # -- derived helpers --

    def _powers(self, x, e: int):
        """x^e for each entry of x and e >= 0, by square-and-multiply with
        one ``mul_many`` per step."""
        power, square = np.zeros_like(x), x
        while e:
            if e & 1:
                power = self.mul_many(power, square)
            e >>= 1
            if e:
                square = self.mul_many(square, square)
        return power

    def power(self, x: int, e: int) -> int:
        x = self._elements(x)
        if e < 0:
            x, e = self.inv_many(x), -e
        return int(self._powers(x, e))

    def element_orders(self) -> list[int]:
        """The order of x is the least divisor d of the order with x^d = 1
        (Lagrange).  The divisors are tried in increasing order on the
        elements whose order is still open, each x^d by ``_powers``."""
        n = self.order
        orders = np.ones(n, dtype=np.int64)
        left = np.arange(1, n)  # the elements whose order is still open
        for d in range(2, n + 1):
            if not len(left):
                break
            if n % d:
                continue
            done = self._powers(left, d) == 0
            orders[left[done]] = d
            left = left[~done]
        return orders.tolist()

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    def _central_mask(self) -> np.ndarray:
        # central <=> commutes with every listed generator (they generate)
        x = np.arange(self.order)[:, None]
        s = np.array(self.generators)[None, :]
        return (self.mul_many(x, s) == self.mul_many(s, x)).all(axis=1)

    def is_abelian(self) -> bool:
        """Whether the listed generators commute pairwise, which decides it
        since they generate the group (``validate`` proves that)."""
        s = np.array(self.generators)[:, None]
        return bool((self.mul_many(s, s.T) == self.mul_many(s.T, s)).all())

    def center(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._central_mask()).tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} order={self.order}>"


class TableGroup(GroupCarrier):
    """Dense carrier backed by an explicit Cayley table, checked to hold
    element indices and only then copied into a read-only table of the
    carrier's index type (int8 through order 128, int16 beyond)."""

    def __init__(self, name: str, table, generators=None):
        try:
            table = np.asarray(table)
        except ValueError:  # ragged rows
            table = None
        if table is None or table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupAxiomError("multiplication table must be square")
        n = int(table.shape[0])
        if n < 1:
            raise GroupAxiomError("empty multiplication table")
        _dense(name, n)
        super().__init__(n, name, range(n) if generators is None else generators)
        if table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= n:
            raise GroupAxiomError("table entries must be element indices")
        table = table.astype(self.index_type, order="C")
        ar = np.arange(n)
        if not (table[0] == ar).all() or not (table[:, 0] == ar).all():
            raise GroupAxiomError("the identity must sit at index 0")
        is_id = table == 0
        if not (is_id.sum(axis=1) == 1).all():
            raise GroupAxiomError("every element needs exactly one right inverse")
        inv = is_id.argmax(axis=1).astype(self.index_type)
        if not (table[inv, ar] == 0).all():
            raise GroupAxiomError("left and right inverses disagree")
        table.setflags(write=False)
        self._table = table
        self._inv = inv

    @property
    def mul_table(self) -> np.ndarray:
        return self._table

    def mul_many(self, a, b):
        return self._table[np.asarray(a), np.asarray(b)]

    def inv_many(self, a):
        return self._inv[np.asarray(a)]

    def _associates(self, s: int) -> bool:
        """Compare the n^2 products (x s) y and x (s y) over row blocks of
        at most _LIGHT_BLOCK_CELLS products in the table's own dtype."""
        T, n = self._table, self.order
        step = max(1, _LIGHT_BLOCK_CELLS // n)
        right = T[s]                                  # s y for every y
        for lo in range(0, n, step):
            rows = T[lo : lo + step]
            if not (T[rows[:, s]] == np.take(rows, right, axis=1)).all():
                return False
        return True


def _per_carrier(fn):
    """Memoize fn(g) in g's memo, so a derived fact is computed once per
    carrier.  fn must return an immutable value (a tuple, a frozen record,
    a read-only array or mapping), since every caller shares it; a call
    that raises stores nothing."""

    @functools.wraps(fn)
    def memoized(g: GroupCarrier):
        memo = g._memo
        if fn not in memo:
            memo[fn] = fn(g)
        return memo[fn]

    return memoized


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def cyclic(n: int) -> TableGroup:
    """Z/nZ under addition, generator 1 (element indices are the residues)."""
    if n < 1:
        raise ParameterError(f"cyclic group order must be >= 1, got {n}")
    _dense(f"cyclic({n})", n)
    ar = np.arange(n)
    table = (ar[:, None] + ar[None, :]) % n
    gens = (1,) if n > 1 else (0,)
    return TableGroup(f"cyclic({n})", table, gens)


def elemabelian(p: int, r: int) -> TableGroup:
    """(Z/pZ)^r; index i encodes the vector of base-p digits of i (little-endian).

    The table is that of the product of r copies of Z/p: each new factor
    of :func:`direct_product` is the low base-p digit."""
    if r < 1:
        raise ParameterError(f"elemabelian rank must be >= 1, got {r}")
    name = f"elemabelian({p},{r})"
    _dense(name, _prime_power(p, r))
    if not _is_prime(p):
        raise ParameterError(f"elemabelian needs a prime, got p={p}")
    g = cyclic(p)
    for _ in range(r - 1):
        g = direct_product(g, cyclic(p))
    return TableGroup(name, g.mul_table, tuple(p**k for k in range(r)))


def dihedral(order: int) -> TableGroup:
    """Dihedral group of the given (even) order 2n: indices 0..n-1 are the
    rotations r^i, indices n..2n-1 are the reflections s r^i."""
    if order < 2 or order % 2:
        raise ParameterError(f"dihedral order must be even and >= 2, got {order}")
    _dense(f"dihedral({order})", order)
    n = order // 2
    i = np.arange(n)
    rot = (i[:, None] + i[None, :]) % n          # r^i r^j
    refl = (i[None, :] - i[:, None]) % n         # (s r^i)(s r^j) = r^{j-i}
    table = np.zeros((order, order), dtype=np.int64)
    table[:n, :n] = rot
    table[:n, n:] = n + refl                     # r^i (s r^j) = s r^{j-i}
    table[n:, :n] = n + rot                      # (s r^i) r^j = s r^{i+j}
    table[n:, n:] = refl
    gens = (1, n) if n > 1 else (1,)
    return TableGroup(f"dihedral({order})", table, gens)


def dicyclic(order: int) -> TableGroup:
    """Dicyclic group of order 4n (n >= 2): <a, b | a^{2n} = 1, b^2 = a^n,
    b a b^{-1} = a^{-1}>.  Indices 0..2n-1 are a^i, 2n..4n-1 are a^i b."""
    if order % 4 or order < 8:
        raise ParameterError(
            f"dicyclic order must be a multiple of 4 and >= 8, got {order}"
        )
    _dense(f"dicyclic({order})", order)
    m = order // 2
    n = order // 4
    i = np.arange(m)
    plus = (i[:, None] + i[None, :]) % m
    minus = (i[:, None] - i[None, :]) % m
    table = np.zeros((order, order), dtype=np.int64)
    table[:m, :m] = plus                         # a^i a^j
    table[:m, m:] = m + plus                     # a^i (a^j b) = a^{i+j} b
    table[m:, :m] = m + minus                    # (a^i b) a^j = a^{i-j} b
    table[m:, m:] = (minus + n) % m              # (a^i b)(a^j b) = a^{i-j+n}
    return TableGroup(f"dicyclic({order})", table, (1, m))


def _perm_table(perms: list[tuple[int, ...]]) -> tuple[np.ndarray, dict]:
    n = len(perms[0])
    P = np.array(perms, dtype=np.int16)
    weights = np.array([n ** (n - 1 - k) for k in range(n)], dtype=np.int64)
    codes = P @ weights                          # lex-sorted perms => ascending codes
    comp = P[:, P]                               # comp[i, j] = perm_i(perm_j(.))
    comp_codes = comp @ weights
    table = np.searchsorted(codes, comp_codes)
    index = {p: i for i, p in enumerate(perms)}
    return table, index


def sym(n: int) -> TableGroup:
    """The symmetric group on {0..n-1}; elements are the permutations in
    lexicographic order, composed left-to-right as functions (p*q maps i to
    p[q[i]])."""
    if n < 1:
        raise ParameterError(f"sym needs n >= 1, got {n}")
    _dense(f"sym({n})", math.factorial(n) if n < 7 else None)  # 7! = 5040
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    if n == 1:
        return TableGroup("sym(1)", [[0]], (0,))
    table, index = _perm_table(perms)
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    gens = (index[transposition],) if n == 2 else (index[transposition], index[cycle])
    return TableGroup(f"sym({n})", table, gens)


def _parity(p: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def alt(n: int) -> TableGroup:
    """The alternating group on {0..n-1} (even permutations, lex order)."""
    if n < 1:
        raise ParameterError(f"alt needs n >= 1, got {n}")
    # 7!/2 = 2520 is over the limit: never compute a larger factorial
    _dense(f"alt({n})", None if n >= 7 else 1 if n < 3 else math.factorial(n) // 2)
    if n < 3:
        return TableGroup(f"alt({n})", [[0]], (0,))
    perms = [
        tuple(p)
        for p in itertools.permutations(range(n))
        if _parity(tuple(p)) == 0
    ]
    table, index = _perm_table(perms)
    three_cycle = tuple([1, 2, 0] + list(range(3, n)))
    if n == 3:
        gens = (index[three_cycle],)
    elif n % 2:
        cycle = tuple(list(range(1, n)) + [0])
        gens = (index[three_cycle], index[cycle])
    else:
        cycle = tuple([0] + list(range(2, n)) + [1])
        gens = (index[three_cycle], index[cycle])
    return TableGroup(f"alt({n})", table, gens)


def heis(p: int) -> TableGroup:
    """The nonabelian group of order p^3 and exponent p (p an odd prime),
    realized as unitriangular 3x3 matrices: (a,b,c)*(a',b',c') =
    (a+a', b+b', c+c'+a*b') with index a*p^2 + b*p + c."""
    n = p**3
    _dense(f"heis({p})", n)
    if not _is_prime(p) or p == 2:
        raise ParameterError(f"heis needs an odd prime, got {p}")
    idx = np.arange(n)
    a, b, c = idx // (p * p), (idx // p) % p, idx % p
    table = (
        ((a[:, None] + a[None, :]) % p) * p * p
        + ((b[:, None] + b[None, :]) % p) * p
        + ((c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p)
    )
    return TableGroup(f"heis({p})", table, (p * p, p))


def modmax(p: int) -> TableGroup:
    """The nonabelian group of order p^3 and exponent p^2 (p an odd prime):
    <x, t | x^{p^2} = t^p = 1, t x t^{-1} = x^{1+p}>, index of x^i t^j being
    i*p + j."""
    n = p**3
    _dense(f"modmax({p})", n)
    if not _is_prime(p) or p == 2:
        raise ParameterError(f"modmax needs an odd prime, got {p}")
    p2 = p * p
    idx = np.arange(n)
    i, j = idx // p, idx % p
    pw = np.array([pow(1 + p, e, p2) for e in range(p)], dtype=np.int64)
    table = ((i[:, None] + i[None, :] * pw[j][:, None]) % p2) * p + (
        (j[:, None] + j[None, :]) % p
    )
    return TableGroup(f"modmax({p})", table, (p, 1))


def direct_product(g1: GroupCarrier, g2: GroupCarrier) -> TableGroup:
    """Direct product; the pair (a, b) is encoded as a*|G2| + b."""
    if not (isinstance(g1, TableGroup) and isinstance(g2, TableGroup)):
        raise CapacityError("direct products require dense factors")
    n1, n2 = g1.order, g2.order
    name = f"product({g1.name},{g2.name})"
    _dense(name, n1 * n2)
    T1 = np.asarray(g1.mul_table, dtype=np.int64)
    T2 = np.asarray(g2.mul_table, dtype=np.int64)
    ones1 = np.ones((n1, n1), dtype=np.int64)
    ones2 = np.ones((n2, n2), dtype=np.int64)
    table = np.kron(T1, ones2) * n2 + np.kron(ones1, T2)
    gens = tuple(g * n2 for g in g1.generators) + tuple(g2.generators)
    gens = tuple(dict.fromkeys(gens)) or (0,)
    return TableGroup(name, table, gens)


# --------------------------------------------------------------------------
# Cayley table text format
# --------------------------------------------------------------------------

def parse_cayley(text: str, name: str = "cayley") -> TableGroup:
    """Parse the plain-text Cayley format.

    Line 1 holds the order n; an optional second line "g i1 i2 ..." lists
    0-based generator indices, and the next n lines the table rows.  Every
    integer is ASCII digits with an optional sign.  The header integers go
    through ``_int_arg``, the rows through one ``np.loadtxt`` call and one
    vectorized range check.  The identity must be element 0, and the table
    must pass ``validate``.  Errors carry 1-based line numbers.
    """
    lines = text.splitlines()
    toks = lines[0].split() if lines else []
    if len(toks) != 1:
        raise FormatError("the first line must hold the group order alone", line=1)
    n = _int_arg("order", toks[0], line=1)
    if n < 1:
        raise FormatError(f"order must be positive, got {n}", line=1)
    _dense(name, n)
    pos = 1
    generators = None
    if len(lines) > 1 and lines[1].split()[:1] == ["g"]:
        gtoks = lines[1].split()[1:]
        if not gtoks:
            raise FormatError("generator line lists no generators", line=2)
        generators = tuple(_int_arg("generator index", t, line=2) for t in gtoks)
        for t, v in zip(gtoks, generators):
            if not 0 <= v < n:
                raise FormatError(f"generator index {_shown(t)} out of range", line=2)
        pos = 2
    body = lines[pos : pos + n]
    table = None
    # np.loadtxt skips blank lines, so it reads only n nonblank rows
    if len(body) == n and all(row.strip() for row in body):
        try:
            table = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
    if table is None or table.shape != (n, n) or ((table < 0) | (table >= n)).any():
        # the error path: reread the rows one by one to name the first bad one
        for r in range(n):
            row, line = (body[r] if r < len(body) else ""), pos + r + 1
            if not row.strip():
                raise FormatError(f"missing table row {r}", line=line)
            for v in _int_list(f"row {r}", row, n, sep=None, line=line):
                if not 0 <= v < n:
                    raise FormatError(f"entry {v} out of range in row {r}", line=line)
    for extra in range(pos + n, len(lines)):
        if lines[extra].split():
            raise FormatError("unexpected content after the table", line=extra + 1)
    g = TableGroup(name, table, generators)
    report = validate(g)
    if not report.passed:
        raise GroupAxiomError("; ".join(report.failures))
    return g


def serialize_cayley(g: GroupCarrier) -> str:
    if not isinstance(g, TableGroup):
        raise CapacityError("serialization requires a dense carrier")
    # one string per element value; each row indexes them with the table
    words = np.array([str(x) for x in range(g.order)], dtype=object)
    lines = [str(g.order), "g " + " ".join(str(x) for x in g.generators)]
    lines += [" ".join(words[row]) for row in g.mul_table]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# group spec strings
# --------------------------------------------------------------------------

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


def _split_args(s: str) -> list[str]:
    """The top-level comma-separated parts of the arguments s of one spec
    node, whose own parenthesis is the first level of nesting."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
            if depth >= MAX_SPEC_DEPTH:
                raise FormatError(
                    f"group spec nested deeper than {MAX_SPEC_DEPTH} levels"
                )
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormatError(f"unbalanced parentheses in {_shown(s)}")
        elif ch == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    if depth:
        raise FormatError(f"unbalanced parentheses in {_shown(s)}")
    parts.append(s[start:])
    return parts


def _int_arg(name: str, raw: str, line: int | None = None) -> int:
    """raw as an integer of at most MAX_ARG_DIGITS digits: the one reader
    of each integer a user types in a spec, a Cayley header line or a CLI
    list.  An error names name, quotes raw cut short and cites line."""
    m = _INT_TOKEN.fullmatch(raw)
    if m is None:
        raise FormatError(f"{name} expects an integer, got {_shown(raw)}", line=line)
    if len(m.group(1)) > MAX_ARG_DIGITS:
        raise FormatError(f"{name} got {_shown(raw)}, out of range: more than "
                          f"{MAX_ARG_DIGITS} digits", line=line)
    return int(raw)


def _int_list(name: str, text: str, count: int | None = None, sep=",",
              line: int | None = None) -> list[int]:
    """The integers of text split at sep (None: whitespace), each read by
    _int_arg; count is how many there must be, if given."""
    parts = text.split(sep)
    if count is not None and len(parts) != count:
        raise FormatError(f"{name} needs {count} integers, got {len(parts)}", line=line)
    return [_int_arg(name, part.strip(), line) for part in parts]


def _jk(p: int, lam1: int, lam2: int) -> GroupCarrier:
    from .jk import jk_group  # deferred: jk imports this module

    return jk_group(p, lam1, lam2)


def _read_text(path: str) -> str:
    """The text of a file a user names, the one file reader of the spec
    and the CLI; undecodable bytes become U+FFFD, which no integer holds."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {_shown(path)}: {exc.strerror}") from None


def _read_cayley(path: str) -> TableGroup:
    return parse_cayley(_read_text(path), name=f"file({path})")


# constructor -> (builder, argument kinds, error for a wrong argument list);
# kinds: "n" an integer, "g" a nested spec, "p" a nonempty path, verbatim
_GRAMMAR = {
    "cyclic": (cyclic, "n", "cyclic takes one integer, the order"),
    "elemabelian": (elemabelian, "nn", "elemabelian takes two integers (p, r)"),
    "dihedral": (dihedral, "n", "dihedral takes one integer, the order"),
    "dicyclic": (dicyclic, "n", "dicyclic takes one integer, the order"),
    "sym": (sym, "n", "sym takes one integer n"),
    "alt": (alt, "n", "alt takes one integer n"),
    "heis": (heis, "n", "heis takes one integer, the prime p"),
    "modmax": (modmax, "n", "modmax takes one integer, the prime p"),
    "jk": (_jk, "nnn", "jk takes (p, lambda1, lambda2)"),
    "product": (direct_product, "gg", "product takes exactly two group specs"),
    "file": (_read_cayley, "p", "file(...) needs a path"),
}


def _spec_tree(spec: str) -> tuple:
    """The checked tree (name, args) of a spec, the one reader of
    ``_GRAMMAR``: each argument is an int, a nested tree or a path."""
    s = spec.strip()
    if not s:
        raise FormatError("empty group spec")
    if "(" not in s and ":" in s:
        head, _, rest = s.partition(":")
        s = f"{head}({rest})"
    m = _NAME_RE.match(s)
    rest = s[m.end():].strip() if m else ""
    if not m or rest and not (rest.startswith("(") and rest.endswith(")")):
        raise FormatError(f"cannot parse group spec {_shown(spec)}")
    name = m.group(0)
    if name not in _GRAMMAR:
        raise FormatError(f"unknown group constructor {_shown(name)}")
    _, kinds, usage = _GRAMMAR[name]
    inner = rest[1:-1]
    # a path is one argument: it may hold commas and parentheses
    raw = [inner] if kinds == "p" else _split_args(inner) if rest else []
    raw = [a.strip() for a in raw]
    if len(raw) != len(kinds) or kinds == "p" and not raw[0]:
        raise FormatError(usage)
    args = (_int_arg(name, a) if k == "n" else _spec_tree(a) if k == "g" else a
            for k, a in zip(kinds, raw))
    return name, tuple(args)


def _spec_files(spec: str) -> list[str]:
    """The paths of the ``file(...)`` nodes of a spec, left to right."""
    def files(name, args):
        if name == "file":
            return list(args)
        return [f for a in args if isinstance(a, tuple) for f in files(*a)]

    return files(*_spec_tree(spec))


def canonical_spec(spec: str) -> str:
    """The spec's checked tree written with shorthand expanded and no
    whitespace: the name of the group ``build_group`` builds from it."""
    def render(name, args):
        parts = (render(*a) if isinstance(a, tuple) else str(a) for a in args)
        return f"{name}({','.join(parts)})"

    return render(*_spec_tree(spec))


def build_group(spec: str) -> GroupCarrier:
    """Build a carrier from a spec string such as ``cyclic(6)``,
    ``product(cyclic(2),cyclic(3))``, ``jk(3,0,1)`` or ``file(PATH)``,
    from the checked tree ``canonical_spec`` writes out."""
    def build(name, args):
        parts = (build(*a) if isinstance(a, tuple) else a for a in args)
        return _GRAMMAR[name][0](*parts)

    return build(*_spec_tree(spec))


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    name: str
    order: int
    identity_ok: bool
    inverses_ok: bool
    associativity_ok: bool
    triples_checked: int
    generation_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _generated(g: GroupCarrier, gens) -> np.ndarray:
    """Mask of the subgroup generated by gens: a breadth-first search from
    the identity along right multiplication by gens, one frontier per
    ``mul_many`` call, its new elements read off a mask (no sort)."""
    gens = np.array(gens, dtype=np.int64)
    seen = np.zeros(g.order, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        fresh = np.zeros_like(seen)
        fresh[g.mul_many(frontier[:, None], gens)] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return seen


def _generating_subset(g: GroupCarrier) -> tuple[int, ...]:
    """The listed generators and then every element, each kept when the
    ones kept before it do not reach it along ``_generated``; the kept set
    reaches every element.  In a group each kept element lies outside the
    subgroup reached so far, so the subgroup at least doubles (Lagrange)
    and at most floor(log2 n) elements are kept."""
    kept: list[int] = []
    seen = _generated(g, kept)
    for x in itertools.chain(g.generators, range(g.order)):
        if not seen[x]:
            kept.append(x)
            seen = _generated(g, kept)
    return tuple(kept)


def validate(g: GroupCarrier) -> ValidationReport:
    """Check the group axioms; never raises, returns a report.

    Associativity is proved by Light's test.  In any magma the elements a
    with (x a) y = x (a y) for all x and y are closed under products:
    (x (a b)) y = ((x a) b) y = (x a)(b y) = x (a (b y)) = x ((a b) y).
    A two-sided identity is such an element, so once index 0 is one, every
    element that ``_generated`` reaches from index 0 along the set S of
    :func:`_generating_subset` passes once each s in S does.  S reaches
    every element, so the carrier's ``_associates(s)`` for s in S decides
    associativity exactly (a ``TableGroup`` holds its identity at index 0
    by construction).  ``triples_checked`` is n^2 |S|, the triples the
    proof covers; each test stops at its first counterexample.

    The cut keeps an element outside the listed generators exactly when
    they fall short of the group, which is ``generation_ok``.  A table
    with an identity, two-sided inverses and associativity is a group, so
    no Latin-square check is needed.
    """
    n = g.order
    failures = []
    ar = np.arange(n)

    identity_ok = bool(
        (g.mul_many(np.zeros(n, dtype=np.int64), ar) == ar).all()
        and (g.mul_many(ar, np.zeros(n, dtype=np.int64)) == ar).all()
    )
    if not identity_ok:
        failures.append("identity law fails")

    inv_all = g.inv_many(ar)
    inverses_ok = bool(
        (g.mul_many(ar, inv_all) == 0).all() and (g.mul_many(inv_all, ar) == 0).all()
    )
    if not inverses_ok:
        failures.append("inverse law fails")

    cut = _generating_subset(g)
    associativity_ok = all(g._associates(s) for s in cut)
    if not associativity_ok:
        failures.append("associativity fails")

    generation_ok = set(cut) <= set(g.generators)
    if not generation_ok:
        failures.append("listed generators do not generate")

    return ValidationReport(
        name=g.name,
        order=n,
        identity_ok=identity_ok,
        inverses_ok=inverses_ok,
        associativity_ok=associativity_ok,
        triples_checked=n * n * len(cut),
        generation_ok=generation_ok,
        failures=tuple(failures),
    )


# --------------------------------------------------------------------------
# catalog of isomorphism classes up to order 15 (classical classification)
# --------------------------------------------------------------------------

_CATALOG = [
    "cyclic(1)",
    "cyclic(2)",
    "cyclic(3)",
    "cyclic(4)",
    "elemabelian(2,2)",
    "cyclic(5)",
    "cyclic(6)",
    "sym(3)",
    "cyclic(7)",
    "cyclic(8)",
    "product(cyclic(4),cyclic(2))",
    "elemabelian(2,3)",
    "dihedral(8)",
    "dicyclic(8)",
    "cyclic(9)",
    "elemabelian(3,2)",
    "cyclic(10)",
    "dihedral(10)",
    "cyclic(11)",
    "cyclic(12)",
    "product(cyclic(6),cyclic(2))",
    "dihedral(12)",
    "alt(4)",
    "dicyclic(12)",
    "cyclic(13)",
    "cyclic(14)",
    "dihedral(14)",
    "cyclic(15)",
]


def catalog_up_to(max_order: int) -> list[GroupCarrier]:
    """One carrier per isomorphism class of order <= max_order (max 15)."""
    if max_order < 1:
        raise ParameterError(f"max_order must be >= 1, got {max_order}")
    if max_order > 15:
        raise ParameterError(
            "the classification catalog is hard-coded up to order 15"
        )
    # listed by order, so the builds stop at the first group too large
    groups = map(build_group, _CATALOG)
    return list(itertools.takewhile(lambda g: g.order <= max_order, groups))

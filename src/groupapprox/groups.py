"""Finite group carriers.

A group of order n lives on the index set 0..n-1 with the identity at
index 0.  Dense carriers hold an explicit Cayley table (mandatory up to
:data:`DENSE_LIMIT`); rule-based carriers compute products by formula and
are used for families too large to tabulate.  Derived facts (element
orders, the exponent, commutation and the centre) are computed once in
:class:`GroupCarrier` over the vector product ``mul_many`` that every
carrier provides, and one gate, ``_dense``, refuses every dense table
over the limit before it is allocated.

The module provides constructors for the classical small families
(cyclic, elementary abelian, dihedral, dicyclic, symmetric, alternating,
the two nonabelian groups of order p^3, direct products), plain-text
Cayley table round-tripping, a spec-string parser, a validation routine
that audits the group axioms, and a hard-coded catalog of all isomorphism
classes up to order 15.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, FormatError, GroupAxiomError, ParameterError

__all__ = [
    "DENSE_LIMIT",
    "GroupCarrier",
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
# exhaustive associativity audit up to this order, sampled above it
EXHAUSTIVE_ASSOC_LIMIT = 512
SAMPLE_TRIPLES = 1_000_000
# longest integer a spec argument or a Cayley order line may spell out
MAX_ARG_DIGITS = 30
_INT_TOKEN = re.compile(rf"-?\d{{1,{MAX_ARG_DIGITS}}}")


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

    is_dense = False

    def __init__(self, order: int, name: str, generators):
        order = int(order)
        if order < 1:
            raise ParameterError(f"group order must be positive, got {order}")
        generators = tuple(int(g) for g in generators)
        if not generators:
            raise ParameterError("a carrier needs at least one listed generator")
        for g in generators:
            if not 0 <= g < order:
                raise ParameterError(f"generator index {g} out of range for order {order}")
        self.order = order
        self.name = name
        self.generators = generators

    # -- operations (subclasses must provide the two vector forms) --

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_many(a, b))

    def inv(self, a: int) -> int:
        return int(self.inv_many(a))

    def mul_many(self, a, b):
        raise NotImplementedError

    def inv_many(self, a):
        raise NotImplementedError

    # -- derived helpers --

    def power(self, x: int, e: int) -> int:
        if e < 0:
            x, e = self.inv(x), -e
        acc = 0
        while e:
            if e & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            e >>= 1
        return acc

    def element_orders(self) -> list[int]:
        # walk every power sequence x, x^2, ... at once until all hit 1
        ar = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        orders[0] = 1
        cur = ar
        k = 1
        while (orders == 0).any():
            k += 1
            cur = self.mul_many(cur, ar)
            orders[(cur == 0) & (orders == 0)] = k
        return orders.tolist()

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    def _central_mask(self) -> np.ndarray:
        # central <=> commutes with every listed generator (they generate)
        x = np.arange(self.order)[:, None]
        s = np.array(self.generators)[None, :]
        return (self.mul_many(x, s) == self.mul_many(s, x)).all(axis=1)

    def is_abelian(self) -> bool:
        return bool(self._central_mask().all())

    def center(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._central_mask()).tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} order={self.order}>"


class TableGroup(GroupCarrier):
    """Dense carrier backed by an explicit (read-only) Cayley table."""

    is_dense = True

    def __init__(self, name: str, table, generators=None):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupAxiomError("multiplication table must be square")
        n = int(table.shape[0])
        if n < 1:
            raise GroupAxiomError("empty multiplication table")
        _dense(name, n)
        if int(table.min()) < 0 or int(table.max()) >= n:
            raise GroupAxiomError("table entries must be element indices")
        ar = np.arange(n, dtype=np.int32)
        if not (table[0] == ar).all() or not (table[:, 0] == ar).all():
            raise GroupAxiomError("the identity must sit at index 0")
        is_id = table == 0
        if not (is_id.sum(axis=1) == 1).all():
            raise GroupAxiomError("every element needs exactly one right inverse")
        inv = is_id.argmax(axis=1).astype(np.int32)
        if not (table[inv, ar] == 0).all():
            raise GroupAxiomError("left and right inverses disagree")
        table.setflags(write=False)
        self._table = table
        self._inv = inv
        self._rows: list[list[int]] | None = None
        if generators is None:
            generators = tuple(range(n))
        super().__init__(n, name, generators)

    @property
    def mul_table(self) -> np.ndarray:
        return self._table

    def mul(self, a: int, b: int) -> int:
        rows = self._rows
        if rows is None:
            if self.order > 256:
                return int(self._table[a, b])
            self._rows = rows = self._table.tolist()
        return rows[a][b]

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def mul_many(self, a, b):
        return self._table[np.asarray(a), np.asarray(b)]

    def inv_many(self, a):
        return self._inv[np.asarray(a)]


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
    if not (g1.is_dense and g2.is_dense):
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
    0-based generator indices; the next n lines hold the table rows.  The
    identity must be element 0.  Errors carry 1-based line numbers.
    """
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise FormatError("expected the group order", line=1)
    toks = lines[0].split()
    if len(toks) != 1:
        raise FormatError("the first line must hold a single integer order", line=1)
    if not _INT_TOKEN.fullmatch(toks[0]):
        raise FormatError(
            f"the order must be an integer of at most {MAX_ARG_DIGITS} digits, "
            f"got {toks[0][:MAX_ARG_DIGITS + 2]!r}",
            line=1,
        )
    n = int(toks[0])
    if n < 1:
        raise FormatError(f"order must be positive, got {n}", line=1)
    _dense(name, n)
    pos = 1
    generators = None
    if pos < len(lines) and lines[pos].split()[:1] == ["g"]:
        gtoks = lines[pos].split()[1:]
        if not gtoks:
            raise FormatError("generator line lists no generators", line=pos + 1)
        try:
            generators = tuple(int(t) for t in gtoks)
        except ValueError:
            raise FormatError("generator indices must be integers", line=pos + 1) from None
        for v in generators:
            if not 0 <= v < n:
                raise FormatError(f"generator index {v} out of range", line=pos + 1)
        pos += 1
    rows = []
    for r in range(n):
        lineno = pos + r + 1
        if pos + r >= len(lines) or not lines[pos + r].split():
            raise FormatError(f"missing table row {r}", line=lineno)
        rtoks = lines[pos + r].split()
        if len(rtoks) != n:
            raise FormatError(
                f"expected {n} entries in row {r}, got {len(rtoks)}", line=lineno
            )
        try:
            row = [int(t) for t in rtoks]
        except ValueError:
            raise FormatError(f"non-integer entry in row {r}", line=lineno) from None
        for v in row:
            if not 0 <= v < n:
                raise FormatError(f"entry {v} out of range in row {r}", line=lineno)
        rows.append(row)
    for extra in range(pos + n, len(lines)):
        if lines[extra].split():
            raise FormatError("unexpected content after the table", line=extra + 1)
    g = TableGroup(name, np.array(rows, dtype=np.int64), generators)
    report = validate(g)
    if not report.passed:
        raise GroupAxiomError("; ".join(report.failures))
    if generators is not None and not report.generation_ok:
        raise FormatError("listed generators do not generate the group")
    return g


def serialize_cayley(g: GroupCarrier) -> str:
    if not g.is_dense:
        raise CapacityError("serialization requires a dense carrier")
    lines = [str(g.order)]
    lines.append("g " + " ".join(str(x) for x in g.generators))
    T = g.mul_table
    for r in range(g.order):
        lines.append(" ".join(str(int(v)) for v in T[r]))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# group spec strings
# --------------------------------------------------------------------------

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


def _split_args(s: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormatError(f"unbalanced parentheses in {s!r}")
        elif ch == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    if depth:
        raise FormatError(f"unbalanced parentheses in {s!r}")
    parts.append(s[start:])
    return parts


def _parse_node(spec: str):
    s = spec.strip()
    if not s:
        raise FormatError("empty group spec")
    if "(" not in s and ":" in s:
        head, _, rest = s.partition(":")
        s = f"{head}({rest})"
    m = _NAME_RE.match(s)
    if not m:
        raise FormatError(f"cannot parse group spec {spec!r}")
    name = m.group(0)
    rest = s[m.end():].strip()
    if not rest:
        return name, []
    if not (rest.startswith("(") and rest.endswith(")")):
        raise FormatError(f"cannot parse group spec {spec!r}")
    inner = rest[1:-1]
    if name == "file":
        return name, [inner.strip()]
    return name, [a.strip() for a in _split_args(inner)]


def _int_arg(name: str, raw: str) -> int:
    if not _INT_TOKEN.fullmatch(raw):
        raise FormatError(
            f"{name} expects integer arguments of at most {MAX_ARG_DIGITS} "
            f"digits, got {raw[:MAX_ARG_DIGITS + 2]!r}"
        )
    return int(raw)


def canonical_spec(spec: str) -> str:
    """Normalize a spec string (shorthand expansion, whitespace removal)."""
    name, args = _parse_node(spec)
    if name == "file":
        return f"file({args[0]})"
    if name == "product":
        if len(args) != 2:
            raise FormatError("product takes exactly two group specs")
        return f"product({canonical_spec(args[0])},{canonical_spec(args[1])})"
    return f"{name}({','.join(str(_int_arg(name, a)) for a in args)})"


def build_group(spec: str) -> GroupCarrier:
    """Build a carrier from a spec string such as ``cyclic(6)``,
    ``product(cyclic(2),cyclic(3))``, ``jk(3,0,1)`` or ``file(PATH)``."""
    name, args = _parse_node(spec)
    if name == "file":
        if len(args) != 1 or not args[0]:
            raise FormatError("file(...) needs a path")
        path = args[0]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise FormatError(f"cannot read {path}: {exc}") from None
        return parse_cayley(text, name=f"file({path})")
    if name == "product":
        if len(args) != 2:
            raise FormatError("product takes exactly two group specs")
        return direct_product(build_group(args[0]), build_group(args[1]))
    if name == "jk":
        if len(args) != 3:
            raise FormatError("jk takes (p, lambda1, lambda2)")
        from .jk import jk_group

        p, l1, l2 = (_int_arg("jk", a) for a in args)
        return jk_group(p, l1, l2)
    simple = {
        "cyclic": (cyclic, 1),
        "elemabelian": (elemabelian, 2),
        "dihedral": (dihedral, 1),
        "dicyclic": (dicyclic, 1),
        "sym": (sym, 1),
        "alt": (alt, 1),
        "heis": (heis, 1),
        "modmax": (modmax, 1),
    }
    if name not in simple:
        raise FormatError(f"unknown group constructor {name!r}")
    fn, arity = simple[name]
    if len(args) != arity:
        raise FormatError(f"{name} takes {arity} argument(s), got {len(args)}")
    return fn(*(_int_arg(name, a) for a in args))


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    name: str
    order: int
    identity_ok: bool
    inverses_ok: bool
    latin_ok: bool | None
    associativity_ok: bool
    associativity_exhaustive: bool
    triples_checked: int
    generation_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _generated(g: GroupCarrier, gens) -> set[int]:
    """The subgroup generated by gens: a breadth-first search from the
    identity along right multiplication by gens."""
    gens = set(gens)
    seen = {0}
    reached = [0]
    for x in reached:  # grows while it is walked
        for s in gens:
            y = g.mul(x, s)
            if y not in seen:
                seen.add(y)
                reached.append(y)
    return seen


def validate(
    g: GroupCarrier, *, sample_triples: int = SAMPLE_TRIPLES, seed: int = 0
) -> ValidationReport:
    """Audit the group axioms; never raises, returns a report."""
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

    latin_ok: bool | None = None
    if g.is_dense:
        T = g.mul_table
        sorted_rows = np.sort(T, axis=1)
        sorted_cols = np.sort(T, axis=0)
        latin_ok = bool((sorted_rows == ar).all() and (sorted_cols == ar[:, None]).all())
        if not latin_ok:
            failures.append("multiplication table is not a Latin square")

    if g.is_dense and n <= EXHAUSTIVE_ASSOC_LIMIT:
        T = np.asarray(g.mul_table, dtype=np.int64)
        associativity_ok = True
        chunk = max(1, (1 << 24) // max(1, n * n))
        for lo in range(0, n, chunk):
            block = T[lo : lo + chunk]              # rows (a*b) for a in the chunk
            left = T[block]                         # (a*b)*c
            right = block[:, T]                     # a*(b*c)
            if not (left == right).all():
                associativity_ok = False
                break
        associativity_exhaustive = True
        triples = n**3
    else:
        rng = np.random.default_rng(seed)
        triples = int(sample_triples)
        a = rng.integers(0, n, size=triples)
        b = rng.integers(0, n, size=triples)
        c = rng.integers(0, n, size=triples)
        lhs = g.mul_many(g.mul_many(a, b), c)
        rhs = g.mul_many(a, g.mul_many(b, c))
        associativity_ok = bool((lhs == rhs).all())
        associativity_exhaustive = False
    if not associativity_ok:
        failures.append("associativity fails")

    generation_ok = len(_generated(g, g.generators)) == n
    if not generation_ok:
        failures.append("listed generators do not generate")

    return ValidationReport(
        name=g.name,
        order=n,
        identity_ok=identity_ok,
        inverses_ok=inverses_ok,
        latin_ok=latin_ok,
        associativity_ok=associativity_ok,
        associativity_exhaustive=associativity_exhaustive,
        triples_checked=triples,
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
    groups = [build_group(spec) for spec in _CATALOG]
    return [g for g in groups if g.order <= max_order]

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupapprox import groups
from groupapprox import (
    CapacityError,
    FormatError,
    GroupAxiomError,
    ParameterError,
    TableGroup,
    alt,
    build_group,
    canonical_spec,
    catalog_up_to,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elemabelian,
    heis,
    modmax,
    parse_cayley,
    serialize_cayley,
    sym,
    validate,
)
from groupapprox.groups import DENSE_LIMIT

from _oracles import cached_group, cayley_text_per_cell, cube_associative, table_of
from make_golden import LARGE_FAMILY_GROUPS


# --------------------------------------------------------------------------
# constructors and their defining relations
# --------------------------------------------------------------------------

def test_cyclic_is_modular_addition():
    g = cyclic(6)
    assert g.order == 6
    for a in range(6):
        for b in range(6):
            assert g.mul(a, b) == (a + b) % 6
        assert g.inv(a) == (-a) % 6
    assert g.element_orders() == [1, 6, 3, 2, 3, 6]
    assert g.exponent() == 6
    assert g.is_abelian()


def test_scalar_operations_refuse_non_elements():
    g = cyclic(6)
    for x in (-1, 6, 2**70, 1.0):
        for call in (lambda: g.mul(x, 0), lambda: g.mul(0, x), lambda: g.inv(x),
                     lambda: g.power(x, 2), lambda: g.power(x, 0)):
            with pytest.raises(ParameterError):
                call()
    assert g.power(5, -1) == 1 and g.power(2, 0) == 0


def test_cyclic_trivial_group():
    g = cyclic(1)
    assert g.order == 1
    assert g.mul(0, 0) == 0
    assert g.generators == (0,)


def test_elemabelian_every_element_involutive():
    g = elemabelian(2, 3)
    assert g.order == 8
    assert g.exponent() == 2
    assert sorted(g.element_orders()) == [1] + [2] * 7
    # componentwise xor in the digit encoding
    for a in range(8):
        for b in range(8):
            assert g.mul(a, b) == a ^ b


def test_elemabelian_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        elemabelian(4, 2)
    with pytest.raises(ParameterError):
        elemabelian(3, 0)


def test_dihedral_reflection_conjugates_rotation_to_inverse():
    for order in (6, 8, 10, 12):
        g = dihedral(order)
        n = order // 2
        r, s = 1, n
        assert g.mul(s, s) == 0
        assert g.mul(g.mul(s, r), s) == g.inv(r)
        assert not g.is_abelian()
    with pytest.raises(ParameterError):
        dihedral(7)


def test_dicyclic_is_quaternion_at_order_8():
    g = dicyclic(8)
    a, b = 1, 4
    assert g.power(b, 2) == g.power(a, 2)       # b^2 = a^n
    assert g.mul(g.mul(b, a), g.inv(b)) == g.inv(a)
    assert sorted(g.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert g.center() == (0, 2)
    with pytest.raises(ParameterError):
        dicyclic(6)


def test_sym3_and_dihedral6_share_order_statistics():
    assert sorted(sym(3).element_orders()) == sorted(dihedral(6).element_orders())
    assert sym(3).center() == (0,)


def test_sym_composition_convention():
    g = sym(3)
    # elements are lex-ordered permutations; p*q maps i to p[q[i]]
    import itertools

    perms = [tuple(p) for p in itertools.permutations(range(3))]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[x]] for x in range(3))
            assert perms[g.mul(i, j)] == comp


def test_alt4_structure():
    g = alt(4)
    assert g.order == 12
    assert sorted(g.element_orders()) == [1, 2, 2, 2] + [3] * 8
    assert g.center() == (0,)


def test_heis_has_exponent_p():
    g = heis(3)
    assert g.order == 27
    assert not g.is_abelian()
    assert g.exponent() == 3
    assert g.center() == (0, 1, 2)


def test_modmax_has_exponent_p_squared():
    g = modmax(3)
    assert g.order == 27
    assert not g.is_abelian()
    assert g.exponent() == 9
    assert sorted(set(g.element_orders())) == [1, 3, 9]
    assert g.center() == (0, 9, 18)


def test_p_cubed_constructors_reject_even_primes():
    for ctor in (heis, modmax):
        with pytest.raises(ParameterError):
            ctor(2)
        with pytest.raises(ParameterError):
            ctor(9)


def test_direct_product_encoding():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert g.element_orders() == [1, 3, 3, 2, 6, 6]
    for a1 in range(2):
        for b1 in range(3):
            for a2 in range(2):
                for b2 in range(3):
                    x = a1 * 3 + b1
                    y = a2 * 3 + b2
                    assert g.mul(x, y) == ((a1 + a2) % 2) * 3 + (b1 + b2) % 3


def test_direct_product_capacity():
    with pytest.raises(CapacityError):
        direct_product(cyclic(64), cyclic(33))


def test_dense_capacity_limit():
    with pytest.raises(CapacityError):
        cyclic(DENSE_LIMIT + 1)


@pytest.mark.parametrize(
    "ctor,args",
    [
        pytest.param(cyclic, (10**9,), id="cyclic"),
        pytest.param(elemabelian, (2, 40), id="elemabelian"),
        pytest.param(dihedral, (10**9,), id="dihedral"),
        pytest.param(dicyclic, (4 * 10**8,), id="dicyclic"),
        pytest.param(sym, (13,), id="sym"),
        pytest.param(alt, (13,), id="alt"),
        pytest.param(heis, (10007,), id="heis"),
        pytest.param(modmax, (10007,), id="modmax"),
        pytest.param(direct_product, ("cyclic(2048)", "sym(6)"), id="direct_product"),
    ],
)
def test_oversize_requests_are_refused_before_allocating(ctor, args):
    # factors given as specs are built before tracing starts
    args = tuple(build_group(a) if isinstance(a, str) else a for a in args)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            ctor(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_power_and_element_order():
    g = cyclic(12)
    assert g.element_orders()[2] == 6
    assert g.power(5, 0) == 0
    assert g.power(2, -1) == 10
    assert g.power(7, 25) == (7 * 25) % 12


# --------------------------------------------------------------------------
# derived facts against the Cayley table
# --------------------------------------------------------------------------

ELEMABELIAN_SHAPES = [(2, r) for r in range(1, 6)] + [(3, r) for r in range(1, 4)]
ELEMABELIAN_SHAPES += [(5, 1), (5, 2), (7, 2)]
JK_SPECS = ("jk(3,0,1)", "jk(3,1,0)")
FACT_SPECS = list(
    dict.fromkeys(
        [g.name for g in catalog_up_to(15)]
        + list(LARGE_FAMILY_GROUPS)
        + ["heis(5)", "modmax(5)", "alt(5)"]
        + [f"elemabelian({p},{r})" for p, r in ELEMABELIAN_SHAPES]
        + list(JK_SPECS)
    )
)


@pytest.mark.parametrize("spec", FACT_SPECS)
def test_derived_facts_match_the_table(spec):
    g = build_group(spec)
    if spec in JK_SPECS:
        assert g.center() == tuple(range(81))
        assert not g.is_abelian()
        assert g.exponent() == 9
        return
    T = np.asarray(g.mul_table)
    rows = T.tolist()
    orders = []
    for x in range(g.order):
        acc, k = x, 1
        while acc:
            acc, k = rows[acc][x], k + 1
        orders.append(k)
    assert g.element_orders() == orders
    assert g.exponent() == math.lcm(*orders)
    assert g.is_abelian() == bool((T == T.T).all())
    assert g.center() == tuple(z for z in range(g.order) if (T[z] == T[:, z]).all())
    if spec.startswith("elemabelian("):
        p, r = (int(a) for a in spec[len("elemabelian(") : -1].split(","))
        x = np.arange(g.order)
        digit_sum = sum(
            (x[:, None] // p**k + x // p**k) % p * p**k for k in range(r)
        )
        assert (T == digit_sum).all()
        assert g.generators == tuple(p**k for k in range(r))


# --------------------------------------------------------------------------
# table carrier and axiom auditing
# --------------------------------------------------------------------------

def test_table_group_rejects_malformed_tables():
    with pytest.raises(GroupAxiomError):
        TableGroup("bad", [[0, 1], [1, 0], [0, 1]])
    with pytest.raises(GroupAxiomError, match="square"):
        TableGroup("bad", [[0, 1], [1]])  # ragged rows
    with pytest.raises(GroupAxiomError):
        TableGroup("bad", [[1, 0], [0, 1]])
    with pytest.raises(GroupAxiomError):
        TableGroup("bad", [[0, 1], [1, 2]])
    with pytest.raises(GroupAxiomError):
        TableGroup("bad", [[0, 1], [1, 1]])


@pytest.mark.parametrize("table", [
    [[0, 1.5], [1.0, 0]],                                  # floats
    [["0", "1"], ["1", "0"]],                              # strings
    [[False, True], [True, False]],                        # bools
    np.array([[0, 2**32 + 1], [1, 0]], dtype=np.int64),    # wraps to 1 in int32
    [[0, 2**70], [1, 0]],                                  # past every integer type
], ids=["float", "str", "bool", "int64-past-int32", "python-int-past-int64"])
def test_table_group_refuses_entries_that_are_not_element_indices(table):
    # each would read as the table of cyclic(2) if cast before the check
    with pytest.raises(GroupAxiomError, match="table entries must be element indices"):
        TableGroup("t", table)


def test_listed_generators_must_be_element_indices():
    table = cyclic(4).mul_table
    for generators in ((1.5,), ("1",), (True,)):
        with pytest.raises(ParameterError):
            TableGroup("c4", table, generators)
    assert TableGroup("c4", table, (np.int64(1),)).generators == (1,)


def test_cayley_table_is_held_in_the_index_type():
    g = build_group("cyclic(2048)")
    assert g.index_type == g.mul_table.dtype == np.int16
    assert g.mul_table.nbytes == 8 << 20
    assert cyclic(128).mul_table.dtype == np.int8


def test_validate_flags_associativity_only_on_nonassociative_loop():
    # a Latin square with two-sided identity and inverses that is not a group
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    g = TableGroup("loop5", loop)
    report = validate(g)
    assert not report.passed
    assert report.failures == ("associativity fails",)
    assert report.identity_ok
    assert report.inverses_ok
    assert not cube_associative(loop)
    # Light's test on the cut {1, 2}: 5^2 products each
    assert groups._generating_subset(g) == (1, 2)
    assert report.triples_checked == 50


def test_validate_passes_on_real_groups():
    for g in (cyclic(9), dihedral(12), dicyclic(12), heis(3)):
        report = validate(g)
        assert report.passed
        assert report.generation_ok


def _intercalates(T: np.ndarray) -> np.ndarray:
    """Every 2x2 subsquare (rows a < b, columns c < d) of T off row and
    column 0 whose two symbols are nonzero, as rows (a, b, c, d):
    swapping its symbols keeps a Latin square with identity and inverses."""
    n = len(T)
    col = np.argsort(T, axis=1)                   # col[b, v]: v's column in row b
    a, b, c = (x.ravel() for x in np.indices((n - 1,) * 3) + 1)
    d = col[b, T[a, c]]
    keep = (a < b) & (c < d) & (T[a, d] == T[b, c])
    keep &= (T[a, c] != 0) & (T[a, d] != 0)
    return np.stack([a, b, c, d], axis=1)[keep]


def _swap(T: np.ndarray, quad) -> np.ndarray:
    a, b, c, d = quad
    rows, cols = [a, a, b, b], [c, d, c, d]
    T = T.copy()
    T[rows, cols] = T[rows, [d, c, d, c]]
    return T


# constructor groups up to order 32; the odd orders have no intercalate
_SMALL_SPECS = (
    "cyclic(1)", "cyclic(2)", "cyclic(4)", "elemabelian(2,2)", "sym(3)",
    "cyclic(8)", "product(cyclic(4),cyclic(2))", "elemabelian(2,3)",
    "dihedral(8)", "dicyclic(8)", "elemabelian(3,2)", "cyclic(12)",
    "product(cyclic(6),cyclic(2))", "alt(4)", "dicyclic(12)",
    "elemabelian(2,4)", "dihedral(16)", "dicyclic(16)",
    "product(dihedral(8),cyclic(2))", "sym(4)", "dicyclic(24)", "heis(3)",
    "modmax(3)", "cyclic(32)", "dihedral(32)", "elemabelian(2,5)",
    "product(cyclic(4),cyclic(8))",
)


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from(_SMALL_SPECS),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_light_verdict_matches_the_cube(spec, swaps, seed, listed):
    g = cached_group(spec)
    T = table_of(g)
    rng = np.random.default_rng(seed)
    for _ in range(swaps):
        quads = _intercalates(T)
        if len(quads):
            T = _swap(T, quads[rng.integers(len(quads))])
    h = TableGroup(spec, T, g.generators if listed else None)
    report = validate(h)
    assert report.associativity_ok == cube_associative(T)
    assert report.triples_checked == h.order**2 * len(groups._generating_subset(h))


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from(_SMALL_SPECS[2:]),  # order 4 and up
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_one_overwritten_cell_is_refuted(spec, seed):
    # a nonzero cell off row and column 0 set to another nonzero symbol:
    # identity and inverses stay, the row repeats a symbol, so it is no group
    T = table_of(cached_group(spec))
    rng = np.random.default_rng(seed)
    a, b = rng.integers(1, len(T), size=2)
    while T[a, b] == 0:
        a, b = rng.integers(1, len(T), size=2)
    T[a, b] = rng.choice(np.setdiff1d(np.arange(1, len(T)), [T[a, b]]))
    h = TableGroup(spec, T)
    report = validate(h)
    assert not cube_associative(T)
    assert not report.associativity_ok
    assert report.failures == ("associativity fails",)


def test_light_test_refutes_one_intercalate_at_order_600():
    # C2 x C300 with the symbols 3 and 303 swapped on rows 1, 301 and
    # columns 2, 302: still Latin, with identity and inverses, and too
    # large for the n^3 reference
    g = direct_product(cyclic(2), cyclic(300))
    T = table_of(g)
    assert T[1, 2] == T[301, 302] == 3 and T[1, 302] == T[301, 2] == 303
    h = TableGroup("swapped", _swap(T, (1, 301, 2, 302)), g.generators)
    report = validate(h)
    assert report.failures == ("associativity fails",)
    assert report.identity_ok and report.inverses_ok
    assert report.triples_checked == 600**2 * len(groups._generating_subset(h))
    with pytest.raises(GroupAxiomError, match="associativity fails"):
        parse_cayley(serialize_cayley(h))


def test_validate_cuts_at_most_log2_n_generators():
    carriers = [
        *catalog_up_to(15),
        *map(cached_group, LARGE_FAMILY_GROUPS),
        direct_product(cyclic(16), cyclic(32)),
    ]
    for g in carriers:
        order_line, _, rows = serialize_cayley(g).split("\n", 2)
        parsed = parse_cayley(f"{order_line}\n{rows}")  # every element listed
        assert parsed.generators == tuple(range(g.order))
        for h in (g, parsed):
            cut = groups._generating_subset(h)
            assert groups._generated(h, cut).all(), h.name
            assert len(cut) <= h.order.bit_length() - 1, h.name
            report = validate(h)
            assert report.passed
            assert report.triples_checked == h.order**2 * len(cut), h.name


def test_generation_verdict_matches_a_walk_from_the_listed_generators():
    carriers = [*catalog_up_to(15), *map(cached_group, LARGE_FAMILY_GROUPS)]
    for g in carriers:
        order_line, _, rows = serialize_cayley(g).split("\n", 2)
        parsed = parse_cayley(f"{order_line}\n{rows}")  # every element listed
        # the first listed generator alone falls short on the noncyclic groups
        first = TableGroup(g.name, g.mul_table, g.generators[:1])
        for h in (g, parsed, first):
            walked = bool(groups._generated(h, h.generators).all())
            report = validate(h)
            assert report.generation_ok == walked, h.name
            assert report.passed == walked, h.name


def test_mul_table_is_read_only():
    g = cyclic(4)
    with pytest.raises(ValueError):
        g.mul_table[0, 0] = 1


# --------------------------------------------------------------------------
# Cayley text round trip
# --------------------------------------------------------------------------

def test_serialize_cayley_matches_the_per_cell_form():
    big = direct_product(cyclic(64), cyclic(32))
    for g in (*catalog_up_to(15), big):
        assert serialize_cayley(g) == cayley_text_per_cell(g), g.name
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        serialize_cayley(big)
        elapsed.append(time.perf_counter() - start)
    # ~0.2 s on a shared 2-core host; the per-cell form takes 1.2-1.8 s
    assert min(elapsed) < 0.6, elapsed


def test_cayley_round_trip():
    g = sym(3)
    text = serialize_cayley(g)
    h = parse_cayley(text)
    assert h.order == g.order
    assert (h.mul_table == g.mul_table).all()
    assert h.generators == g.generators


def test_cayley_round_trip_without_generator_line():
    text = "3\n0 1 2\n1 2 0\n2 0 1\n"
    g = parse_cayley(text)
    assert (g.mul_table == table_of(cyclic(3))).all()
    assert g.generators == (0, 1, 2)


def test_cayley_errors_carry_line_numbers():
    cases = [
        ("", 1),
        ("x\n", 1),
        ("2 3\n", 1),
        ("0\n", 1),
        ("2\ng\n0 1\n1 0\n", 2),
        ("2\ng 5\n0 1\n1 0\n", 2),
        ("2\n0 1\n1\n", 3),
        ("3\n0 1 2\n1 2 0\n", 4),
        ("1\n0\njunk\n", 3),
        ("2\n0 1\n1 z\n", 3),
    ]
    for text, line in cases:
        with pytest.raises(FormatError) as err:
            parse_cayley(text)
        assert err.value.line == line


def test_cayley_rejects_non_groups():
    with pytest.raises(GroupAxiomError):
        parse_cayley("2\n0 1\n1 1\n")
    # Latin square with identity but no associativity
    with pytest.raises(GroupAxiomError):
        parse_cayley(
            "5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"
        )


def test_cayley_rejects_non_generating_generator_line():
    # the table itself is a fine group; the generator claim is what fails
    text = "4\ng 2\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"
    with pytest.raises(GroupAxiomError, match="generate"):
        parse_cayley(text)


def test_cayley_integer_syntax():
    # every integer of the format is ASCII digits with an optional sign
    g = parse_cayley("+2\ng +1\n0 +1\n1 -0\n")
    assert g.generators == (1,) and g.mul_table.tolist() == [[0, 1], [1, 0]]
    for text, line in (
        ("2\n0 1\n1 1_0\n", 3),          # an underscore, which int() took
        ("2\n0 1\n1 \u0660\n", 3),       # a non-ASCII digit, ditto
        ("2\n0 1\n1 0.0\n", 3),
        ("2\ng 1_0\n0 1\n1 0\n", 2),
        ("\u0662\n0 1\n1 0\n", 1),
    ):
        with pytest.raises(FormatError) as err:
            parse_cayley(text)
        assert err.value.line == line, text


def test_cayley_row_faults_are_reported_in_row_order():
    # the rows are read at once; a fault is still reported at the first
    # faulty row, and as blank, count, syntax or range in that order
    cases = [
        ("3\n0 1 2\n\n2 0 1\n", 3, "missing table row 1"),
        ("3\n0 1 2\n1 2 0 3\n\n", 3, "row 1 needs 3 integers, got 4"),
        ("3\n0 1 2\n1 2 x\n2 0 9\n", 3, "row 1 expects an integer, got 'x'"),
        ("3\n0 1 5\n1 2 x\n2 0 1\n", 2, "entry 5 out of range in row 0"),
        ("3\n0 1 2\n1 2 -1\n2 0 1\n", 3, "entry -1 out of range in row 1"),
        (f"2\n0 1\n1 {'9' * 19}\n", 3, f"entry {'9' * 19} out of range"),
        (f"2\n0 1\n1 {'9' * 31}\n", 3, "out of range: more than 30 digits"),
        ("2\n0 1\n1 0000000000000000000000\n", None, None),  # zero, read
    ]
    for text, line, message in cases:
        if line is None:
            assert parse_cayley(text).order == 2
            continue
        with pytest.raises(FormatError) as err:
            parse_cayley(text)
        assert err.value.line == line and message in str(err.value), text


# --------------------------------------------------------------------------
# spec strings
# --------------------------------------------------------------------------

def test_canonical_spec_normalizes():
    assert canonical_spec("cyclic:6") == "cyclic(6)"
    assert canonical_spec(" cyclic( 6 ) ") == "cyclic(6)"
    assert canonical_spec("elemabelian( 2 , 3 )") == "elemabelian(2,3)"
    assert (
        canonical_spec("product( cyclic(2) , cyclic(3) )")
        == "product(cyclic(2),cyclic(3))"
    )
    assert canonical_spec("product(cyclic:2,sym:3)") == "product(cyclic(2),sym(3))"
    assert canonical_spec("jk(3, 0, 1)") == "jk(3,0,1)"


def test_canonical_spec_rejects_garbage():
    for bad in ("", "   ", "cyclic(", "cyclic(2))", "cyclic(x)", "3drome(2)"):
        with pytest.raises(FormatError):
            canonical_spec(bad)


def test_one_spec_reader_checks_names_and_arguments():
    # canonical_spec reads the same checked tree build_group builds from,
    # so it refuses every spec build_group refuses for its text
    for bad in ("frobnicate(3)", "sym(3,2)", "jk(3,0)", "product(cyclic(2))",
                "cyclic", "file", "file()", "file:", "cyclic(\u0666)",
                f"cyclic({'9' * 31})"):
        with pytest.raises(FormatError):
            canonical_spec(bad)
        with pytest.raises(FormatError):
            build_group(bad)
    assert canonical_spec("cyclic(+6)") == "cyclic(6)"
    assert canonical_spec("product(file( a(b),c ),cyclic:2)") == (
        "product(file(a(b),c),cyclic(2))"
    )
    assert groups._spec_files("product(file(a),product(cyclic(2),file:b))") == [
        "a", "b",
    ]
    assert groups._spec_files("product(cyclic(2),sym(3))") == []


def test_build_group_dispatch():
    assert build_group("cyclic(5)").name == "cyclic(5)"
    assert build_group("sym:3").order == 6
    g = build_group("product(cyclic(2),cyclic(3))")
    assert g.order == 6
    with pytest.raises(FormatError):
        build_group("frobnicate(3)")
    with pytest.raises(FormatError):
        build_group("sym(3,2)")
    with pytest.raises(FormatError):
        build_group("jk(3,0)")
    with pytest.raises(FormatError):
        build_group("product(cyclic(2))")


def test_build_group_from_file(tmp_path):
    path = tmp_path / "group.cayley"
    path.write_text(serialize_cayley(dihedral(8)), encoding="utf-8")
    g = build_group(f"file({path})")
    assert g.order == 8
    assert (g.mul_table == table_of(dihedral(8))).all()
    with pytest.raises(FormatError):
        build_group(f"file({tmp_path / 'missing.cayley'})")


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def test_catalog_counts_per_order():
    groups = catalog_up_to(15)
    assert len(groups) == 28
    counts = [sum(1 for g in groups if g.order == n) for n in range(1, 16)]
    assert counts == [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1]
    orders = [g.order for g in groups]
    assert orders == sorted(orders)


def test_catalog_members_are_valid_and_nonisomorphic():
    groups = catalog_up_to(15)
    for g in groups:
        assert validate(g).passed
    # within each order the (abelianness, order statistics) invariant
    # separates all catalog members, certifying pairwise non-isomorphism
    by_order: dict[int, list] = {}
    for g in groups:
        by_order.setdefault(g.order, []).append(
            (g.is_abelian(), tuple(sorted(g.element_orders())))
        )
    for invs in by_order.values():
        assert len(set(invs)) == len(invs)


def test_catalog_bounds():
    assert [g.name for g in catalog_up_to(1)] == ["cyclic(1)"]
    assert len(catalog_up_to(7)) == 9
    with pytest.raises(ParameterError):
        catalog_up_to(0)
    with pytest.raises(ParameterError):
        catalog_up_to(16)


def test_catalog_stops_building_past_max_order(monkeypatch):
    built = []

    def recording(spec):
        built.append(spec)
        return build_group(spec)

    monkeypatch.setattr(groups, "build_group", recording)
    assert [g.order for g in catalog_up_to(4)] == [1, 2, 3, 4, 4]
    # the catalog is listed by order: one order-5 build ends the walk
    assert built[-1] == "cyclic(5)" and len(built) == 6

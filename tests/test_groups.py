from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

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

from _oracles import table_of
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
    with pytest.raises(GroupAxiomError):
        TableGroup("bad", [[1, 0], [0, 1]])
    with pytest.raises(GroupAxiomError):
        TableGroup("bad", [[0, 1], [1, 2]])
    with pytest.raises(GroupAxiomError):
        TableGroup("bad", [[0, 1], [1, 1]])


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
    assert report.latin_ok
    assert report.associativity_exhaustive
    assert report.triples_checked == 125


def test_validate_passes_on_real_groups():
    for g in (cyclic(9), dihedral(12), dicyclic(12), heis(3)):
        report = validate(g)
        assert report.passed
        assert report.associativity_exhaustive
        assert report.generation_ok


def test_mul_table_is_read_only():
    g = cyclic(4)
    with pytest.raises(ValueError):
        g.mul_table[0, 0] = 1


# --------------------------------------------------------------------------
# Cayley text round trip
# --------------------------------------------------------------------------

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

from __future__ import annotations

import gc
import itertools
import weakref

import numpy as np
import pytest

from groupapprox import (
    GroupFunction,
    ParameterError,
    approximability,
    automorphism_orbits,
    catalog_up_to,
    cyclic,
    difference_criterion,
    dihedral,
    enapp_zero_witness,
    find_universal_tuple,
    lower_bound_certificates,
    universal_elements,
    worst_case_value,
)
from groupapprox.morphisms import affine_tables, endomorphism_tables
from groupapprox.search import family_tables

from _oracles import (
    brute_affine,
    brute_endomorphisms,
    brute_worst_case,
    cached_group,
    max_agreement,
    table_of,
)


def _oracle_family(g, metric):
    endos = brute_endomorphisms(table_of(g))
    if metric == "endo":
        return endos
    return brute_affine(table_of(g), endos)


# --------------------------------------------------------------------------
# approximability of individual functions
# --------------------------------------------------------------------------

def test_approximability_matches_oracle_on_random_functions():
    rng = np.random.default_rng(7)
    for spec in ("cyclic(4)", "elemabelian(2,2)", "cyclic(6)", "sym(3)"):
        g = cached_group(spec)
        n = g.order
        for metric in ("endo", "affine"):
            fam = _oracle_family(g, metric)
            for _ in range(25):
                images = tuple(int(v) for v in rng.integers(0, n, size=n))
                f = GroupFunction(g, images)
                value, member = approximability(f, metric)
                assert value == max_agreement(images, fam)
                assert sum(a == b for a, b in zip(member.images, images)) == value


def test_family_tables_rejects_unknown_metric():
    with pytest.raises(ParameterError):
        family_tables(cached_group("cyclic(4)"), "linear")


def test_group_function_validation():
    g = cached_group("cyclic(4)")
    with pytest.raises(ParameterError):
        GroupFunction(g, (0, 1, 2))
    with pytest.raises(ParameterError):
        GroupFunction(g, (0, 1, 2, 4))
    # values that are not element indices, and a string of digits
    for images in ((0, 1.5, 2, 3), np.array([0, 1.5, 2, 3]), (0, 1, 2, 3.0), "0123"):
        with pytest.raises(ParameterError):
            GroupFunction(g, images)


# --------------------------------------------------------------------------
# universal elements and tuples
# --------------------------------------------------------------------------

def test_universal_elements_pins():
    assert universal_elements(cached_group("cyclic(6)")) == (1, 5)
    assert universal_elements(cached_group("elemabelian(2,2)")) == (1, 2, 3)
    assert universal_elements(cached_group("sym(3)")) == ()
    assert universal_elements(cached_group("alt(4)")) == ()
    assert universal_elements(cached_group("heis(3)")) == tuple(range(3, 27))
    assert universal_elements(cached_group("modmax(3)")) == tuple(
        list(range(3, 9)) + list(range(12, 18)) + list(range(21, 27))
    )


def test_find_universal_tuple_pins():
    assert find_universal_tuple(cached_group("cyclic(5)"), 1) == (1,)
    assert find_universal_tuple(cached_group("cyclic(5)"), 2) is None
    assert find_universal_tuple(cached_group("elemabelian(2,2)"), 2) == (1, 2)
    assert find_universal_tuple(cached_group("elemabelian(2,2)"), 3) is None
    assert find_universal_tuple(cached_group("elemabelian(2,3)"), 3) == (1, 2, 4)
    assert find_universal_tuple(cached_group("heis(3)"), 2) == (3, 9)
    assert find_universal_tuple(cached_group("sym(3)"), 1) is None
    assert find_universal_tuple(cached_group("cyclic(1)"), 2) == (0, 0)
    with pytest.raises(ParameterError):
        find_universal_tuple(cached_group("cyclic(4)"), 0)


def _universal_tuple_by_scan(g, l):
    """Every candidate tuple in lexicographic order: an orbit representative
    first, universal elements after it, one full code count per tuple."""
    tables = endomorphism_tables(g)
    m, n = tables.shape
    if n**l > m:
        return None
    univ = universal_elements(g)
    reps = {orb[0] for orb in automorphism_orbits(g)}
    weights = n ** np.arange(l, dtype=np.int64)
    for u1 in (u for u in univ if u in reps):
        for rest in itertools.product(univ, repeat=l - 1):
            tup = (u1,) + rest
            codes = tables[:, tup].astype(np.int64) @ weights
            if len(np.unique(codes)) == n**l:
                return tup
    return None


def test_find_universal_tuple_matches_exhaustive_scan():
    for g in catalog_up_to(15):
        m, n = endomorphism_tables(g).shape
        l = 1
        while n**l <= m and l <= n:
            assert find_universal_tuple(g, l) == _universal_tuple_by_scan(g, l), (
                g.name,
                l,
            )
            l += 1


def test_find_universal_tuple_large_pins():
    assert find_universal_tuple(cached_group("elemabelian(2,4)"), 4) == (1, 2, 4, 8)
    assert find_universal_tuple(cached_group("elemabelian(3,3)"), 3) == (1, 3, 9)


def test_universal_tuple_really_is_onto():
    g = cached_group("elemabelian(2,2)")
    tup = find_universal_tuple(g, 2)
    endos = brute_endomorphisms(table_of(g))
    images = {(int(row[tup[0]]), int(row[tup[1]])) for row in endos}
    assert len(images) == 16


# --------------------------------------------------------------------------
# lower-bound certificates
# --------------------------------------------------------------------------

def test_lower_bound_certificates_trivial_group():
    lbs = lower_bound_certificates(cached_group("cyclic(1)"))
    assert lbs["endo"].value == 1 and lbs["endo"].kind == "trivial-group"
    assert lbs["affine"].value == 1 and lbs["affine"].kind == "trivial-group"


def test_lower_bound_certificates_cyclic():
    lbs = lower_bound_certificates(cached_group("cyclic(6)"))
    assert lbs["endo"].value == 1
    assert lbs["endo"].kind == "universal-tuple"
    assert lbs["endo"].evidence == (1,)
    assert lbs["affine"].value == 2
    assert lbs["affine"].kind == "universal-tuple"


def test_lower_bound_certificates_elementary_abelian():
    lbs = lower_bound_certificates(cached_group("elemabelian(2,2)"))
    assert lbs["endo"].value == 2 and lbs["endo"].evidence == (1, 2)
    assert lbs["affine"].value == 3
    lbs = lower_bound_certificates(cached_group("elemabelian(2,3)"))
    assert lbs["endo"].value == 3 and lbs["affine"].value == 4


def test_lower_bound_certificates_dominating_orbit():
    lbs = lower_bound_certificates(cached_group("sym(3)"))
    assert lbs["endo"].value == 0 and lbs["endo"].kind == "none"
    assert lbs["affine"].value == 2
    assert lbs["affine"].kind == "dominating-orbit"
    assert lbs["affine"].evidence == (1, 2, 5)
    lbs = lower_bound_certificates(cached_group("alt(4)"))
    assert lbs["affine"].kind == "dominating-orbit"
    assert len(lbs["affine"].evidence) == 8


def test_lower_bound_certificates_capacity_fallback():
    lbs = lower_bound_certificates(cyclic(100))
    assert lbs["endo"].value == 1 and lbs["endo"].kind == "abelian"
    assert lbs["affine"].value == 2 and lbs["affine"].kind == "abelian"
    lbs = lower_bound_certificates(dihedral(70))
    assert lbs["endo"].value == 0 and lbs["endo"].kind == "none"
    assert lbs["affine"].value == 1 and lbs["affine"].kind == "constants"


# --------------------------------------------------------------------------
# the worst-case search against full enumeration
# --------------------------------------------------------------------------

def test_worst_case_value_matches_brute_force():
    specs = [
        "cyclic(1)",
        "cyclic(2)",
        "cyclic(3)",
        "cyclic(4)",
        "elemabelian(2,2)",
        "cyclic(5)",
        "cyclic(6)",
        "sym(3)",
    ]
    for spec in specs:
        g = cached_group(spec)
        for metric in ("endo", "affine"):
            cert = worst_case_value(g, metric)
            assert cert.exact, (spec, metric)
            expected = brute_worst_case(g.order, _oracle_family(g, metric))
            assert cert.value == expected, (spec, metric)
            assert cert.lower == cert.upper == cert.value
            # the witness achieves the minimum
            value, _ = approximability(cert.witness, metric)
            assert value == cert.value
            assert cert.value >= cert.lower_bound.value


def test_worst_case_value_order_eight_pins():
    expected = {
        "cyclic(8)": (1, 2),
        "product(cyclic(4),cyclic(2))": (1, 2),
        "dihedral(8)": (1, 2),
        "dicyclic(8)": (1, 3),
        "elemabelian(2,3)": (3, 4),
    }
    for spec, (enapp, affapp) in expected.items():
        g = cached_group(spec)
        assert worst_case_value(g, "endo").value == enapp, spec
        assert worst_case_value(g, "affine").value == affapp, spec


def test_worst_case_value_alt4():
    g = cached_group("alt(4)")
    assert worst_case_value(g, "endo").value == 0
    cert = worst_case_value(g, "affine")
    assert cert.value == 3
    value, _ = approximability(cert.witness, "affine")
    assert value == 3


def test_budget_exhaustion_yields_bracket():
    cert = worst_case_value(cached_group("alt(4)"), "affine", budget=100)
    assert not cert.exact
    assert cert.value is None
    assert cert.witness is None
    assert cert.lower == 2
    assert cert.upper == 12
    assert cert.stats.thresholds == (2,)
    assert cert.stats.nodes == 100


def test_branching_order_pins():
    # node counts and thresholds follow from the branching order alone
    cert = worst_case_value(cached_group("product(cyclic(6),cyclic(2))"), "affine")
    assert cert.value == 3
    assert cert.stats.nodes == 121_162
    assert cert.stats.thresholds == (2, 3)
    for spec, lower, upper in (("elemabelian(2,4)", 5, 16),
                               ("elemabelian(3,3)", 4, 22)):
        cert = worst_case_value(cached_group(spec), "affine", budget=2_000)
        assert not cert.exact
        assert (cert.lower, cert.upper) == (lower, upper)
        assert cert.stats.thresholds == (lower,)
        assert cert.stats.nodes == 2_000


def test_worst_case_search_statistics():
    cert = worst_case_value(cached_group("sym(3)"), "affine")
    assert cert.stats.nodes > 0
    assert cert.stats.elapsed >= 0
    assert cert.stats.thresholds[0] == cert.lower_bound.value
    assert cert.stats.thresholds[-1] == cert.value


# --------------------------------------------------------------------------
# agreement on subsets
# --------------------------------------------------------------------------

def test_difference_criterion_matches_full_scan():
    rng = np.random.default_rng(11)
    for spec in ("cyclic(6)", "sym(3)"):
        g = cached_group(spec)
        n = g.order
        tables = affine_tables(g)
        for _ in range(200):
            images = tuple(int(v) for v in rng.integers(0, n, size=n))
            f = GroupFunction(g, images)
            size = int(rng.integers(1, n + 1))
            xs = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            amap = difference_criterion(f, xs)
            scan = (
                (tables[:, xs] == np.array(images)[xs][None, :]).all(axis=1).any()
            )
            assert (amap is not None) == bool(scan)
            if amap is not None:
                assert all(amap.images[x] == images[x] for x in xs)


def test_difference_criterion_recovers_affine_maps():
    g = cached_group("cyclic(4)")
    images = tuple(g.mul(3, (2 * x) % 4) for x in range(4))
    f = GroupFunction(g, images)
    amap = difference_criterion(f, range(4))
    assert amap is not None
    assert amap.images.tolist() == list(images)


def test_maps_built_for_a_caller_do_not_keep_the_carrier_alive():
    # without the cycle collector, a map object cached on the carrier (and
    # pointing back to it) would keep the carrier alive after its last use
    gc.disable()
    try:
        g = cyclic(6)
        ref = weakref.ref(g)
        f = GroupFunction(g, (3, 1, 4, 1, 5, 0))
        approximability(f, "affine")
        difference_criterion(f, [0, 2, 4])
        del f, g
        assert ref() is None
    finally:
        gc.enable()


def test_difference_criterion_input_validation():
    g = cached_group("cyclic(4)")
    f = GroupFunction(g, (0, 0, 0, 0))
    with pytest.raises(ParameterError):
        difference_criterion(f, [])
    with pytest.raises(ParameterError):
        difference_criterion(f, [4])


# --------------------------------------------------------------------------
# dodging witnesses
# --------------------------------------------------------------------------

def test_enapp_zero_witness_exists_iff_no_universal_element():
    from groupapprox import catalog_up_to

    for g in catalog_up_to(15):
        witness = enapp_zero_witness(g)
        if universal_elements(g):
            assert witness is None, g.name
        else:
            assert witness is not None, g.name
            value, _ = approximability(witness, "endo")
            assert value == 0, g.name
            # each argument goes to the least value no endomorphism reaches
            tables = endomorphism_tables(g)
            least = tuple(
                min(set(range(g.order)) - set(tables[:, x].tolist()))
                for x in range(g.order)
            )
            assert witness.images.tolist() == list(least), g.name


def test_enapp_zero_witness_pins():
    assert enapp_zero_witness(cached_group("cyclic(6)")) is None
    assert enapp_zero_witness(cached_group("elemabelian(2,2)")) is None
    for spec in ("sym(3)", "alt(4)"):
        w = enapp_zero_witness(cached_group(spec))
        assert w is not None
        assert approximability(w, "endo")[0] == 0

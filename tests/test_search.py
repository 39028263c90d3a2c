from __future__ import annotations

import gc
import itertools
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from groupapprox import (
    CapacityError,
    GroupFunction,
    ParameterError,
    approximability,
    automorphism_orbits,
    build_group,
    catalog_up_to,
    cyclic,
    difference_criterion,
    dihedral,
    enapp_zero_witness,
    find_universal_tuple,
    lower_bound_certificates,
    prime_square_witness,
    universal_elements,
    worst_case_value,
)
from groupapprox import morphisms
from groupapprox.bounds import _min_max, _Rows
from groupapprox.jk import jk_group
from groupapprox.morphisms import (
    AffinePairs,
    automorphism_tables,
    endomorphism_tables,
)
from groupapprox.search import (
    DEFAULT_BUDGET,
    METRICS,
    _universal_tuples,
    bounds_certificate,
    family_tables,
)

from _oracles import (
    brute_affine,
    brute_endomorphisms,
    brute_worst_case,
    cached_group,
    enapp_zero_witness_per_column,
    image_sets_per_column,
    max_agreement,
    table_of,
    universal_elements_per_element,
    universal_tuples_restarted,
)
from make_golden import PATH, ops, record


def _oracle_family(g, metric):
    endos = brute_endomorphisms(table_of(g), g.generators)
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


@pytest.mark.parametrize("spec", [
    *(spec for spec, _ in ops()), "product(cyclic(4),dihedral(8))",
])
def test_lower_bounds_match_the_per_length_searches(spec):
    # one column per automorphism orbit against one per element, and the
    # one search's first tuple of each length against a search restarted
    # for that length; the trivial group has a tuple of every length.
    # C4 x D8 has 1-tuples but no 2-tuple though |End| >= 32^2, so the
    # search refutes later 1-tuples after the first
    g = cached_group(spec)
    sets = morphisms.image_sets(g)
    assert not sets.flags.writeable
    assert np.array_equal(sets, image_sets_per_column(g))
    assert universal_elements(g) == universal_elements_per_element(g)
    witness = enapp_zero_witness(g)
    assert (None if witness is None else witness.images.tolist()) == (
        enapp_zero_witness_per_column(g)
    )
    most = 3 if g.order == 1 else g.order
    tuples = universal_tuples_restarted(g, most)
    assert list(itertools.islice(_universal_tuples(g), most)) == tuples
    for l, tup in enumerate(tuples, start=1):
        assert find_universal_tuple(g, l) == tup, l
    if g.order == 1:
        return
    assert find_universal_tuple(g, len(tuples) + 1) is None
    if tuples:
        lbs = lower_bound_certificates(g)
        assert lbs["endo"].evidence == lbs["affine"].evidence == tuples[-1]
        assert (lbs["endo"].value, lbs["affine"].value) == (
            len(tuples), len(tuples) + 1
        )


def test_universal_tuples_skip_the_prefix_subgroup(monkeypatch):
    # a candidate in the subgroup of the prefix is refuted without a count:
    # elemabelian(2,4) counts codes once per coordinate of (1, 2, 4, 8), not
    # once per universal element tried
    g = cached_group("elemabelian(2,4)")
    universal_elements(g)
    counted = []
    count = np.bincount

    def counting(*args, **kwargs):
        counted.append(kwargs.get("minlength"))
        return count(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    assert list(_universal_tuples(g))[-1] == (1, 2, 4, 8)
    assert counted == [16, 16**2, 16**3, 16**4]


def test_universal_tuple_really_is_onto():
    g = cached_group("elemabelian(2,2)")
    tup = find_universal_tuple(g, 2)
    endos = brute_endomorphisms(table_of(g), g.generators)
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
    lbs = lower_bound_certificates(cached_group("elemabelian(2,7)"))
    assert lbs["endo"].value == 1 and lbs["endo"].kind == "abelian"
    assert lbs["affine"].value == 2 and lbs["affine"].kind == "abelian"
    for g in (dihedral(1024), jk_group(5, 0, 1, allow_large=True)):
        lbs = lower_bound_certificates(g)
        assert lbs["endo"].value == 0 and lbs["endo"].kind == "none"
        assert lbs["affine"].value == 1 and lbs["affine"].kind == "constants"


def test_cayley_table_past_the_cap_is_refused_before_it_is_built():
    # jk(3,0,1) has order 6,561, so its Cayley table would hold 43M cells
    g = jk_group(3, 0, 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="Cayley table"):
            endomorphism_tables(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_bounds_certificate_brackets_without_a_search():
    # two dense groups, one of order over 64: the lower bound, and
    # the closed-form upper bound floored (at most the order)
    brackets = {
        ("alt(4)", "endo"): (0, 11), ("alt(4)", "affine"): (2, 12),
        ("cyclic(70)", "endo"): (1, 30), ("cyclic(70)", "affine"): (2, 34),
    }
    for (spec, metric), bracket in brackets.items():
        g = cached_group(spec)
        cert = bounds_certificate(g, metric)
        assert (cert.lower, cert.upper) == bracket
        assert cert.lower_bound == lower_bound_certificates(g)[metric]
        assert not cert.exact and cert.witness is None
        assert cert.stats.nodes == 0 and cert.stats.thresholds == ()
        assert cert.stats.symmetries == 1


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


def test_orbit_pruning_matches_brute_force_unpinned():
    # no pin and no lower bound: the pruning acts from the first position,
    # with automorphisms and families both from the oracle
    for spec in ("cyclic(4)", "elemabelian(2,2)", "cyclic(5)", "cyclic(6)", "sym(3)"):
        g = cached_group(spec)
        endos = brute_endomorphisms(table_of(g), g.generators)
        auts = endos[(np.sort(endos, axis=1) == np.arange(g.order)).all(axis=1)]
        for metric in METRICS:
            fam = _oracle_family(g, metric)
            k, images, _, _, symmetries = _min_max(
                _Rows(fam), g.order, 0, perms=auts
            )
            assert k == brute_worst_case(g.order, fam), (spec, metric)
            assert max_agreement(images, fam) == k, (spec, metric)
            assert symmetries == len(auts)


@pytest.mark.parametrize("metric", METRICS)
def test_orbit_pruning_keeps_values_and_witnesses(metric):
    # the pruned search returns the unpruned one's least g, in fewer nodes
    for g in catalog_up_to(15):
        g = cached_group(g.name)
        tables = family_tables(g, metric)
        start = lower_bound_certificates(g)[metric].value
        pinned = {0: 0} if metric == "affine" and g.order > 1 else None
        auts = automorphism_tables(g)
        k, images, nodes, thresholds, symmetries = _min_max(
            _Rows(tables), g.order, start, pinned=pinned, perms=auts
        )
        plain = _min_max(_Rows(tables), g.order, start, pinned=pinned)
        assert (k, images, thresholds) == (plain[0], plain[1], plain[3]), g.name
        assert nodes <= plain[2], g.name
        assert plain[4] == 1
        assert symmetries == len(auts), g.name  # every automorphism fixes 1


TRANSLATION_SPECS = (
    *(g.name for g in catalog_up_to(15)),
    "dicyclic(16)",
    "dihedral(16)",
    "product(dihedral(8),cyclic(2))",
)


def test_translation_pruning_keeps_values_and_witnesses():
    # the translations reject only duplicates: the affine search returns
    # the least g it returns without them, in no more nodes
    fewer = 0
    for spec in TRANSLATION_SPECS:
        g = cached_group(spec)
        if g.order == 1:
            continue
        family = AffinePairs(g)
        start = lower_bound_certificates(g)["affine"].value
        common = dict(pinned={0: 0}, perms=automorphism_tables(g))
        k, images, nodes, thresholds, _ = _min_max(
            family, g.order, start, translations=family.translations(), **common
        )
        plain = _min_max(family, g.order, start, **common)
        assert (k, images, thresholds) == (plain[0], plain[1], plain[3]), spec
        assert nodes <= plain[2], spec
        fewer += nodes < plain[2]
        if g.order <= 6:
            assert k == brute_worst_case(g.order, _oracle_family(g, "affine")), spec
    assert fewer >= 8


def test_q8_times_c2_affine_closes_at_three():
    g = cached_group("product(dicyclic(8),cyclic(2))")
    cert = worst_case_value(g, "affine")
    assert cert.exact and cert.value == 3
    assert cert.stats.thresholds == (2, 3)
    assert cert.stats.nodes == 937_656
    assert cert.stats.symmetries == 192
    value, _ = approximability(cert.witness, "affine")
    assert value == 3


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


def test_worst_case_value_past_order_64_pins():
    # no order cap: these enapp values are exact, each re-measured; the
    # search on cyclic(1024) goes 1,024 positions deep
    expected = {
        "dihedral(66)": 0, "sym(5)": 0, "alt(5)": 0, "cyclic(1024)": 1,
    }
    for spec, enapp in expected.items():
        cert = worst_case_value(cached_group(spec), "endo")
        assert cert.exact and cert.value == enapp, spec
        assert approximability(cert.witness, "endo")[0] == enapp, spec
        if spec == "cyclic(1024)":
            assert cert.stats.nodes == 2_047


def test_deep_search_memory_stays_within_its_tables():
    # 1,024 positions deep: every depth shares one buffer of rows at the
    # threshold and holds one byte per value, so the search stays within a
    # few copies of the 2 MiB endomorphism table
    g = cached_group("cyclic(1024)")
    family_tables(g, "endo"), automorphism_tables(g), lower_bound_certificates(g)
    tracemalloc.start()
    try:
        cert = worst_case_value(g, "endo")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.exact and cert.value == 1
    assert peak < 8 << 20, peak


def test_negative_budget_is_refused():
    # a budget of 0 is a valid empty search; below 0 there is no contract
    for metric in METRICS:
        with pytest.raises(ParameterError, match="budget"):
            worst_case_value(cyclic(6), metric, budget=-5)
    assert worst_case_value(cyclic(6), "endo", budget=0).stats.nodes == 0


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
    # node counts and thresholds follow from the branching order and the
    # symmetry pruning alone
    cert = worst_case_value(cached_group("product(cyclic(6),cyclic(2))"), "affine")
    assert cert.value == 3
    assert cert.stats.nodes == 8_364
    assert cert.stats.thresholds == (2, 3)
    for spec, lower, upper in (("elemabelian(2,4)", 5, 16),
                               ("elemabelian(3,3)", 4, 22)):
        cert = worst_case_value(cached_group(spec), "affine", budget=2_000)
        assert not cert.exact
        assert (cert.lower, cert.upper) == (lower, upper)
        assert cert.stats.thresholds == (lower,)
        assert cert.stats.nodes == 2_000


def test_capped_large_search_runs_in_bounded_memory():
    g = cached_group("elemabelian(2,4)")
    endomorphism_tables(g), automorphism_tables(g), lower_bound_certificates(g)
    tracemalloc.start()
    try:
        cert = worst_case_value(g, "affine", budget=2_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.lower, cert.upper, cert.stats.nodes) == (5, 16, 2_000)
    # 2^20 rows, counted along the search path: the search's index buffers
    # and the values of the rows at the threshold (2.8 MiB); an intp row
    # list of every value at every position would alone hold 128 MiB
    assert peak < 6 << 20, peak


def test_capped_large_search_reads_the_family_columns_in_place():
    g = cached_group("elemabelian(2,4)")
    tables = family_tables(g, "affine")
    automorphism_tables(g), lower_bound_certificates(g)
    assert tables.flags.f_contiguous
    tracemalloc.start()
    try:
        cert = worst_case_value(g, "affine", budget=2_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.lower, cert.upper, cert.stats.nodes) == (5, 16, 2_000)
    # the search reads the (constant, endomorphism) pairs, not this table:
    # ~2.8 MiB of buffers, as it counts the pairs along its path and reads
    # no column; a contiguous copy of each free table column would add
    # 15 MiB (2^20 int8 rows, 15 free positions)
    assert peak < 6 << 20, peak


def test_capped_large_search_builds_no_affine_table():
    # a fresh carrier with its endomorphisms, automorphisms and lower
    # bounds but no affine table: building the 16 MiB table inside the
    # search read 54.9 MiB, the pairs counted along the path with a column
    # per depth ~12 MiB, and with no column ~2.8 MiB
    g = build_group("elemabelian(2,4)")
    endomorphism_tables(g), automorphism_tables(g), lower_bound_certificates(g)
    tracemalloc.start()
    try:
        cert = worst_case_value(g, "affine", budget=2_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.lower, cert.upper, cert.stats.nodes) == (5, 16, 2_000)
    assert peak < 6 << 20, peak


def test_path_counted_search_takes_no_column():
    # the values the rows in ``full`` block are read row by row, so the
    # n x n table that every column is gathered from is never built
    g = cached_group("elemabelian(2,4)")
    family = AffinePairs(g)
    assert family.reaching is not None
    k, images, nodes, thresholds, _ = _min_max(
        family, g.order, lower_bound_certificates(g)["affine"].value,
        budget=2_000, pinned={0: 0}, perms=automorphism_tables(g),
        translations=family.translations(),
    )
    assert (k, images, nodes, thresholds) == (5, None, 2_000, (5,))
    assert "right" not in vars(family)


@pytest.mark.parametrize("spec, budget", [
    *((g.name, DEFAULT_BUDGET) for g in catalog_up_to(15)),
    ("elemabelian(2,4)", 2_000),
    ("elemabelian(3,3)", 2_000),
    ("heis(3)", 2_000),
])
def test_affine_pairs_search_matches_the_built_table(spec, budget):
    # the plain search over the built table is the oracle: both number
    # pair (c, phi_i) as i * n + c, the table's buckets are found by
    # flatnonzero and the pairs' by ldiv, and nothing may differ; both
    # prune by the same translations
    g = cached_group(spec)
    start = lower_bound_certificates(g)["affine"].value
    pinned = translations = None
    if g.order > 1:
        pinned, translations = {0: 0}, AffinePairs(g).translations()
    k, images, nodes, thresholds, _ = _min_max(
        _Rows(family_tables(g, "affine")), g.order, start, budget=budget,
        pinned=pinned, perms=automorphism_tables(g), translations=translations,
    )
    cert = worst_case_value(g, "affine", budget=budget)
    assert (cert.lower, cert.stats.nodes, cert.stats.thresholds) == (
        k, nodes, thresholds
    ), spec
    if images is None:
        assert cert.witness is None and not cert.exact, spec
    else:
        assert cert.witness.images.tolist() == list(images), spec


GOLDEN = json.loads(PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("spec, budget", list(ops()))
def test_affine_searches_counted_along_the_path_match_golden(spec, budget,
                                                             monkeypatch):
    # with the gate at 0 every affine family is counted along the search
    # path, so the catalog's exact nonabelian witnesses go through it too:
    # bracket, witness, nodes and thresholds must be the counters' records
    monkeypatch.setattr(morphisms, "PATH_COUNT_ENDOS", 0)
    g = cached_group(spec)
    assert AffinePairs(g).reaching is not None
    assert record(g, "affine", budget) == GOLDEN[f"{spec}:affine"]


def test_affine_approximability_holds_no_column_table():
    # x -> x^2 on cyclic(2039) against its 2039^2 pairs: the counters and
    # the bucket table ldiv take 8 MiB each; the column table, which only
    # a search or a built table reads, would add 8 MiB more
    f = prime_square_witness(2039)
    endomorphism_tables(f.group)
    tracemalloc.start()
    try:
        value, _ = approximability(f, "affine")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 2
    assert peak < 20 << 20, peak


def test_affine_approximability_matches_the_built_table():
    # agreement and map, the first best in the built table's row order
    rng = np.random.default_rng(3)
    for spec in ("elemabelian(2,4)", "elemabelian(3,3)", "dihedral(12)", "alt(4)"):
        g = cached_group(spec)
        tables = family_tables(g, "affine")
        for _ in range(5):
            f = GroupFunction(g, rng.integers(0, g.order, size=g.order))
            agree = (tables == f.images).sum(axis=1)
            value, member = approximability(f, "affine")
            j = int(np.argmax(agree))
            assert value == agree[j], spec
            assert member.images.tolist() == tables[j].tolist(), spec


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
        tables = family_tables(g, "affine")
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


def test_difference_criterion_reads_x_set_as_element_indices():
    # int(x) used to read 1.5 and '1' as the element 1 and return a map
    g = cached_group("cyclic(4)")
    f = GroupFunction(g, (0, 0, 0, 0))
    for x_set in ([1.5], ["1"], [0, 2.0]):
        with pytest.raises(ParameterError, match="element indices"):
            difference_criterion(f, x_set)
    # any iterable of indices, repeats and order aside
    for x_set in ({3, 1}, (1, 3, 1), np.array([3, 1], dtype=np.uint8)):
        assert difference_criterion(f, x_set).images.tolist() == [0] * 4


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

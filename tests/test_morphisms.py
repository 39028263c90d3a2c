from __future__ import annotations

import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from groupapprox import (
    CapacityError,
    GroupFunction,
    ParameterError,
    TableGroup,
    approximability,
    automorphism_orbits,
    catalog_up_to,
    cyclic,
    difference_criterion,
    elemabelian,
    enumerate_endomorphisms,
    lower_bound_certificates,
    twist_function,
    universal_elements,
    worst_case_value,
)
from groupapprox import morphisms
from groupapprox.bounds import _Rows
from groupapprox.morphisms import (
    PATH_COUNT_ENDOS,
    AffinePairs,
    _bijective,
    automorphism_tables,
    endomorphism_tables,
    image_sets,
)
from groupapprox.search import family_tables

from _oracles import (
    bijective_by_sort,
    brute_affine,
    brute_automorphisms,
    brute_endomorphisms,
    cached_group,
    endomorphism_tables_by_rows,
    orbits_by_unique,
    orbits_under,
    table_of,
)
from make_golden import LARGE_FAMILY_GROUPS


# --------------------------------------------------------------------------
# enumeration against the brute-force oracle
# --------------------------------------------------------------------------

SMALL_SPECS = [
    "cyclic(1)",
    "cyclic(2)",
    "cyclic(3)",
    "cyclic(4)",
    "elemabelian(2,2)",
    "cyclic(5)",
    "cyclic(6)",
    "sym(3)",
    "product(cyclic(2),cyclic(3))",
]


def test_endomorphisms_match_brute_force_filter():
    for spec in SMALL_SPECS:
        g = cached_group(spec)
        endos = brute_endomorphisms(table_of(g), g.generators)
        expected = sorted(tuple(row) for row in endos)
        got = [tuple(m.images.tolist()) for m in enumerate_endomorphisms(g)]
        assert got == expected, spec


def test_affine_tables_match_brute_force():
    for spec in ("cyclic(4)", "sym(3)"):
        g = cached_group(spec)
        endos = brute_endomorphisms(table_of(g), g.generators)
        expected = brute_affine(table_of(g), endos)
        got = family_tables(g, "affine")
        assert sorted(map(tuple, expected)) == sorted(map(tuple, got)), spec


def test_every_enumerated_map_satisfies_the_homomorphism_law():
    g = cached_group("sym(3)")
    for m in enumerate_endomorphisms(g):
        for x in range(6):
            for y in range(6):
                assert m.images[g.mul(x, y)] == g.mul(m.images[x], m.images[y])
        assert m.images[0] == 0


# --------------------------------------------------------------------------
# counts on known groups
# --------------------------------------------------------------------------

def test_endomorphism_counts():
    expected = {
        "sym(3)": 10,
        "dihedral(6)": 10,
        "elemabelian(2,2)": 16,
        "alt(4)": 33,
        "heis(3)": 729,
        "modmax(3)": 135,
    }
    for spec, count in expected.items():
        assert len(enumerate_endomorphisms(cached_group(spec))) == count, spec


def test_automorphism_counts():
    expected = {
        "cyclic(12)": 4,
        "sym(3)": 6,
        "elemabelian(2,2)": 6,
        "alt(4)": 24,
        "heis(3)": 432,
    }
    for spec, count in expected.items():
        g = cached_group(spec)
        rows = endomorphism_tables(g).tolist()
        assert sum(len(set(row)) == g.order for row in rows) == count, spec


def test_cyclic_endomorphisms_are_the_scalar_maps():
    g = cached_group("cyclic(5)")
    tables = endomorphism_tables(g)
    expected = np.array([[(a * x) % 5 for x in range(5)] for a in range(5)])
    assert (tables == expected).all()


# --------------------------------------------------------------------------
# ordering, caching, capacity
# --------------------------------------------------------------------------

def _sort_forcing_carriers():
    """Carriers whose generators are not each the least element outside the
    subgroup before it, so their batch comes out of lexicographic order."""
    return [
        TableGroup("elemabelian(2,4) by 8,4,2,1",
                   cached_group("elemabelian(2,4)").mul_table, (8, 4, 2, 1)),
        TableGroup("cyclic(12) by 5", cached_group("cyclic(12)").mul_table, (5,)),
    ]


def test_enumeration_is_lexicographic_with_zero_map_first():
    # in order by construction (each generator the least element not yet
    # reached) or by a sort (the two carriers listed out of that order)
    specs = [g.name for g in catalog_up_to(15)] + list(LARGE_FAMILY_GROUPS)
    for g in [cached_group(spec) for spec in specs] + _sort_forcing_carriers():
        got = endomorphism_tables(g)
        want = brute_endomorphisms(table_of(g), g.generators)
        assert np.array_equal(got, want), (g.name, g.generators)
        assert not got[0].any(), g.name


def test_affine_maps_are_endomorphism_major():
    g = cached_group("sym(3)")
    endos = endomorphism_tables(g).tolist()
    tables = family_tables(g, "affine").tolist()
    assert len(tables) == g.order * len(endos)
    for c in range(g.order):
        for i, row in enumerate(endos):
            assert tables[i * g.order + c] == [g.mul(c, v) for v in row]
    # distinct (constant, endomorphism) pairs give distinct maps
    assert len({tuple(t) for t in tables}) == len(tables)


def _rows_in_reader_order(g, metric):
    """The family's rows from the oracles, in the readers' numbering."""
    n = g.order
    endos = brute_endomorphisms(table_of(g), g.generators)
    if metric == "endo":
        return endos
    # brute_affine is constant-major, c * |End| + i; pair j = i * n + c
    affine = brute_affine(table_of(g), endos)
    return affine.reshape(n, len(endos), n).swapaxes(0, 1).reshape(-1, n)


READER_SPECS = ("cyclic(4)", "sym(3)", "dicyclic(8)", "elemabelian(2,3)")


@pytest.mark.parametrize("metric", ("endo", "affine"))
@pytest.mark.parametrize("spec", READER_SPECS)
def test_family_readers_match_the_oracles(spec, metric, monkeypatch):
    # the table of rows, and the affine pairs in both modes: with counters,
    # where at reads the columns the reader keeps, and counted along the
    # path (the gate at 0), where it reads single rows
    g = cached_group(spec)
    n = g.order
    oracle = _rows_in_reader_order(g, metric)
    if metric == "endo":
        readers = [_Rows(endomorphism_tables(g))]
    else:
        readers = [AffinePairs(g)]
        monkeypatch.setattr(morphisms, "PATH_COUNT_ENDOS", 0)
        readers.append(AffinePairs(g))
        assert readers[0].reaching is None and readers[1].reaching is not None
    rng = np.random.default_rng(17)
    every = np.arange(len(oracle))
    for family in readers:
        assert (family.maps, family.m1) == oracle.shape
        # at on every row, then on seeded rows (repeats and none included),
        # each pass over the positions in a seeded order, so that a value
        # kept for one position and read back at another shows
        for x in rng.permutation(n).tolist():
            assert family.at(every, x).tolist() == oracle[:, x].tolist(), x
        for x in rng.permutation(n).tolist():
            rows = rng.integers(0, family.maps, size=int(rng.integers(0, 50)))
            assert family.at(rows, x).tolist() == oracle[rows, x].tolist(), x
        for x in range(n):
            col = oracle[:, x]
            taken = np.zeros(n, dtype=bool)
            taken[family.values(x)] = True
            assert np.flatnonzero(taken).tolist() == np.unique(col).tolist(), x
            for v in range(n):
                expected = np.flatnonzero(col == v).tolist()
                assert family.rows(x, v).tolist() == expected, (x, v)
        for j in range(family.maps):
            assert family.row(j).tolist() == oracle[j].tolist(), j


PATH_SPECS = ("sym(3)", "dihedral(8)", "dicyclic(8)", "alt(4)", "heis(3)",
              "elemabelian(2,3)")


@pytest.mark.parametrize("spec", PATH_SPECS)
def test_affine_path_rows_match_an_explicit_count(spec):
    # the rows taking v at x that agree with a path g(xs) = gs, pin first
    # and (x, v) on it, at k or more points, counted over the built
    # table's rows; the nonabelian groups tell x^-1 y from y x^-1 and
    # v^-1 g(y) from g(y) v^-1.  Half the paths follow a map of the family
    # with some values changed, so that rows agree at many points
    g = cached_group(spec)
    n = g.order
    tables = family_tables(g, "affine")
    family = AffinePairs(g)
    rng = np.random.default_rng(11)
    for trial in range(24):
        length = int(rng.integers(2, n + 1))
        xs = np.concatenate(([0], 1 + rng.permutation(n - 1)[:length - 1]))
        gs = rng.integers(0, n, size=length)
        if trial % 2:  # a map with constant 1, so that it keeps the pin
            near = tables[n * rng.integers(len(tables) // n)][xs]
            gs = np.where(rng.random(length) < 0.8, near, gs)
        gs[0] = 0
        t = int(rng.integers(length))
        x, v = int(xs[t]), int(gs[t])
        bucket = np.flatnonzero(tables[:, x] == v)
        agree = (tables[bucket][:, xs] == gs).sum(axis=1)
        for k in range(1, length + 1):
            expected = bucket[agree >= k].tolist()
            got = family.path_rows(x, v, xs, gs, k).tolist()
            assert got == expected, (trial, k)


@pytest.mark.parametrize("spec", ("sym(3)", "dicyclic(8)", "heis(3)",
                                  "elemabelian(2,3)"))
def test_affine_at_reads_the_column_entries(spec, monkeypatch):
    # the values of random rows, repeats and no rows included, in both
    # modes: counted along the path (the gate at 0) they are read without
    # the column; the nonabelian groups tell c * phi(x) from phi(x) * c
    g = cached_group(spec)
    counters = AffinePairs(g)
    monkeypatch.setattr(morphisms, "PATH_COUNT_ENDOS", 0)
    path = AffinePairs(g)
    rng = np.random.default_rng(13)
    for x in range(g.order):
        rows = rng.integers(0, counters.maps, size=int(rng.integers(0, 200)))
        want = counters.column(x)[rows].tolist()
        assert path.at(rows, x).tolist() == want, x
        assert counters.at(rows, x).tolist() == want, x
    assert "right" not in vars(path)


def test_affine_counter_search_refuses_a_capped_family():
    # cyclic(257) has 257 endomorphisms, below PATH_COUNT_ENDOS: its search
    # keeps counters, and at reads columns, so the first column it reads
    # refuses the 257^3 cells, before any column is kept (the budget only
    # bounds a search that would go on)
    g = cached_group("cyclic(257)")
    refused = "would fill 16974593 table cells"
    with pytest.raises(CapacityError, match=refused):
        worst_case_value(g, "affine", budget=1_000)
    family = AffinePairs(g)
    assert family.reaching is None
    with pytest.raises(CapacityError, match=refused):
        family.at(np.arange(0), 0)
    assert family.columns == [None] * 257


def test_affine_path_rows_count_past_a_byte():
    # a map of the family on all 257 points of cyclic(257) agrees with
    # itself 257 times: a uint8 count would wrap to 1 and miss it, and two
    # affine maps of a group of prime order agree at most once
    g = cached_group("cyclic(257)")
    family = AffinePairs(g)
    j = 12_345
    gs = family.row(j)
    xs = np.arange(257)
    for x in (0, 100):
        assert family.path_rows(x, int(gs[x]), xs, gs, 257).tolist() == [j]
        assert len(family.path_rows(x, int(gs[x]), xs, gs, 2)) == 1
        assert len(family.path_rows(x, int(gs[x]), xs, gs, 1)) == 257


def test_only_big_affine_families_are_counted_along_the_path():
    # the search lists rows along its path for |End(G)| >= PATH_COUNT_ENDOS
    # (2^12) and keeps counters below it and for every table of rows
    assert _Rows(endomorphism_tables(cached_group("sym(3)"))).reaching is None
    assert AffinePairs(cached_group("product(elemabelian(2,2),cyclic(8))")).reaching is None
    big = AffinePairs(cached_group("product(cyclic(8),cyclic(8))"))
    assert len(big.endo) == PATH_COUNT_ENDOS == 2**12
    assert big.reaching == big.path_rows


@pytest.mark.parametrize("spec", (*READER_SPECS, "dihedral(12)", "alt(4)"))
def test_affine_translations_are_the_left_translations(spec):
    # every x -> a x but the identity, once each, anchored at rho(1) = a;
    # the search's translation pruning rests on the family being closed
    # under f -> f o rho and f -> f(rho(1))^-1 f(rho(.)) for each of them
    g = cached_group(spec)
    n = g.order
    table = table_of(g)
    inverse = table.argmin(axis=1)
    maps, quotient = AffinePairs(g).translations()
    assert quotient.tolist() == table[inverse].tolist()
    assert maps.tolist() == table[1:].tolist()
    anchors = maps[:, 0]
    assert anchors.tolist() == list(range(1, n))
    family = _rows_in_reader_order(g, "affine")
    rows = {tuple(f) for f in family.tolist()}
    for rho, anchor in zip(maps, anchors):
        assert {tuple(f) for f in family[:, rho].tolist()} == rows, rho.tolist()
        moved = table[inverse[family[:, anchor]][:, None], family[:, rho]]
        assert {tuple(f) for f in moved.tolist()} <= rows, rho.tolist()


@pytest.mark.parametrize("metric", ("endo", "affine"))
@pytest.mark.parametrize("spec", READER_SPECS)
def test_approximability_returns_the_first_best_in_family_order(spec, metric):
    g = cached_group(spec)
    oracle = _rows_in_reader_order(g, metric)
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = GroupFunction(g, rng.integers(0, g.order, size=g.order))
        agree = (oracle == f.images).sum(axis=1)
        value, member = approximability(f, metric)
        assert value == agree.max()
        assert member.images.tolist() == oracle[np.argmax(agree)].tolist()


def test_results_are_cached_on_the_carrier():
    g = cyclic(6)
    attributes = set(vars(g))
    for fact in (endomorphism_tables, automorphism_tables, image_sets):
        assert fact(g) is fact(g), fact.__name__
        with pytest.raises(ValueError):
            fact(g)[0, 0] = 1
    for fact in (automorphism_orbits, universal_elements):
        assert fact(g) is fact(g), fact.__name__
        assert isinstance(fact(g), tuple), fact.__name__
    bounds = lower_bound_certificates(g)
    assert bounds is lower_bound_certificates(g)
    with pytest.raises(TypeError):
        bounds["endo"] = bounds["affine"]
    with pytest.raises(FrozenInstanceError):
        bounds["endo"].value = 0
    # the carrier's one memo holds them all: no attribute was added
    assert set(vars(g)) == attributes


def test_enumeration_capacity_limit():
    # the candidate batch is the one limit, at any order: elemabelian(2,5)
    # (2^25 maps) and dihedral(1024) exceed it, cyclic(65) does not
    with pytest.raises(CapacityError):
        endomorphism_tables(cached_group("dihedral(1024)"))
    assert len(enumerate_endomorphisms(cyclic(64))) == 64
    assert len(enumerate_endomorphisms(cyclic(65))) == 65
    with pytest.raises(CapacityError):
        endomorphism_tables(elemabelian(2, 5))


def test_affine_table_capacity_limit():
    # n * |End| * n cells: C2 x C4 x C8 has 16,384 endomorphisms and 2^26
    # affine cells.  Its reader refuses its first column, so a built table
    # is refused before it holds one; its search is counted along the path
    # and takes no column, and buckets and rows have no cap, so the search
    # and the agreement counts still answer
    g = cached_group("product(cyclic(2),product(cyclic(4),cyclic(8)))")
    assert endomorphism_tables(g).shape == (16_384, 64)
    refused = "would fill 67108864 table cells"
    with pytest.raises(CapacityError, match=refused):
        AffinePairs(g).column(0)
    cert = worst_case_value(g, "affine", budget=2_000)
    assert (cert.lower, cert.upper, cert.exact) == (2, 33, False)
    assert (cert.stats.nodes, cert.stats.thresholds) == (2_000, (2,))
    with pytest.raises(CapacityError, match=refused):
        family_tables(g, "affine")
    f = GroupFunction(g, AffinePairs(g).row(12_345))
    value, member = approximability(f, "affine")
    assert value == 64 and member.images.tolist() == f.images.tolist()
    amap = difference_criterion(f, range(0, 64, 3))
    assert amap is not None and amap.images.tolist() == f.images.tolist()
    f = GroupFunction(g, np.random.default_rng(7).integers(0, 64, size=64))
    value, member = approximability(f, "affine")
    assert value == np.count_nonzero(member.images == f.images) >= 1
    # elemabelian(2,4) fills exactly 2^24 cells: its table is built, and
    # nothing that size is kept on the carrier
    h = cached_group("elemabelian(2,4)")
    tables = family_tables(h, "affine")
    assert tables.shape == (2**20, 16)
    assert all(getattr(fact, "shape", None) != tables.shape
               for fact in h._memo.values())


def test_automorphism_flags():
    g = cached_group("cyclic(6)")
    auts = [
        m for m in enumerate_endomorphisms(g) if len(set(m.images.tolist())) == 6
    ]
    assert len(auts) == 2
    for m in auts:
        assert sorted(m.images.tolist()) == list(range(6))


# --------------------------------------------------------------------------
# orbits
# --------------------------------------------------------------------------

def test_automorphism_orbits_pins():
    assert automorphism_orbits(cached_group("sym(3)")) == ((0,), (1, 2, 5), (3, 4))
    assert automorphism_orbits(cached_group("cyclic(6)")) == (
        (0,),
        (1, 5),
        (2, 4),
        (3,),
    )
    def sizes(g):
        return sorted(len(o) for o in automorphism_orbits(g))

    assert sizes(cached_group("alt(4)")) == [1, 3, 8]
    assert sizes(cached_group("heis(3)")) == [1, 2, 24]
    assert sizes(cached_group("modmax(3)")) == [1, 2, 3, 3, 18]


def test_automorphism_facts_match_their_sorting_references():
    # no zero past the identity's column and the column minima give what a
    # sort of every row and one np.unique per element gave; the automorphism
    # table is column-major
    specs = [g.name for g in catalog_up_to(15)] + list(LARGE_FAMILY_GROUPS)
    for spec in specs:
        g = cached_group(spec)
        endos = endomorphism_tables(g)
        assert np.array_equal(_bijective(endos), bijective_by_sort(endos)), spec
        auts = automorphism_tables(g)
        assert auts.flags.f_contiguous and not auts.flags.writeable, spec
        assert automorphism_orbits(g) == orbits_by_unique(auts), spec


def test_order_27_orbits_against_generator_oracle():
    # heis(3) = 3^{1+2}_+: Aut maps onto GL(2,3) on G/Z (order 48, 9 central
    # automorphisms), transitive on the 24 non-central elements; det -1
    # swaps the two non-trivial central elements.  modmax(3) has 18 elements
    # of order 9 outside the centre.
    expected = {"heis(3)": (432, [1, 2, 24]), "modmax(3)": (54, [1, 2, 3, 3, 18])}
    for spec, (count, sizes) in expected.items():
        g = cached_group(spec)
        auts = brute_automorphisms(table_of(g), g.generators)
        orbits = orbits_under(auts)
        assert len(auts) == count, spec
        assert sorted(len(o) for o in orbits) == sizes, spec
        assert orbits == {frozenset(o) for o in automorphism_orbits(g)}, spec


def test_automorphism_tables_match_generator_oracle():
    expected = {"sym(3)": 6, "dicyclic(8)": 24, "elemabelian(2,3)": 168,
                "heis(3)": 432}
    for spec, count in expected.items():
        g = cached_group(spec)
        auts = automorphism_tables(g)
        assert auts is automorphism_tables(g), spec
        assert not auts.flags.writeable, spec
        assert len(auts) == count, spec
        oracle = brute_automorphisms(table_of(g), g.generators)
        assert sorted(auts.tolist()) == sorted(oracle.tolist()), spec


def test_automorphisms_permute_the_family_rows():
    # the search's orbit pruning rests on this: for every automorphism a
    # and family row phi, a o phi is again a family row.  Rows are compared
    # as exact base-n codes, which fit 64 bits up to order 16.
    groups = [cached_group(g.name) for g in catalog_up_to(15)]
    groups.append(cached_group("product(dicyclic(8),cyclic(2))"))
    for g in groups:
        n = g.order
        weights = np.uint64(n) ** np.arange(n, dtype=np.uint64)
        for metric in ("endo", "affine"):
            tables = family_tables(g, metric)
            codes = np.sort(tables.astype(np.uint64) @ weights)
            assert (np.diff(codes) > 0).all(), (g.name, metric)
            for a in automorphism_tables(g):
                moved = np.sort(a[tables].astype(np.uint64) @ weights)
                assert np.array_equal(moved, codes), (g.name, metric)


def test_orbits_partition_the_group():
    for spec in ("cyclic(12)", "sym(3)", "alt(4)", "modmax(3)"):
        g = cached_group(spec)
        orbits = automorphism_orbits(g)
        flat = [x for orb in orbits for x in orb]
        assert sorted(flat) == list(range(g.order))
        assert orbits[0] == (0,)
        # orbits are closed under every automorphism (bijective row)
        for row in endomorphism_tables(g).tolist():
            if len(set(row)) == g.order:
                for orb in orbits:
                    assert {row[x] for x in orb} == set(orb)


# --------------------------------------------------------------------------
# enumeration along the listed generators
# --------------------------------------------------------------------------

LARGE_FAMILY_SPECS = (
    "elemabelian(2,4)",
    "elemabelian(3,3)",
    "heis(3)",
    "elemabelian(5,2)",
    "product(dihedral(8),cyclic(2))",
    "dihedral(32)",
    "cyclic(64)",
    "sym(4)",
)


def test_file_style_carriers_give_the_constructors_tables():
    # a Cayley table without a generator line lists every element as a
    # generator, so the enumeration extends along other generators
    specs = [g.name for g in catalog_up_to(15)] + list(LARGE_FAMILY_SPECS)
    for spec in specs:
        g = cached_group(spec)
        listed = TableGroup(spec, table_of(g))
        assert listed.generators == tuple(range(g.order)), spec
        assert np.array_equal(endomorphism_tables(listed), endomorphism_tables(g)), spec


def test_enumeration_matches_the_row_major_reference():
    # values, dtype, layout and row order, along the constructors'
    # generators, along every element, and along generators listed out of
    # index order with one already reached (10 = 9 + 1 in elemabelian(3,3))
    specs = [g.name for g in catalog_up_to(15)] + list(LARGE_FAMILY_SPECS)
    carriers = []
    for spec in specs:
        g = cached_group(spec)
        carriers += [g, TableGroup(spec, table_of(g))]
    for spec, gens in (("elemabelian(3,3)", (9, 1, 10, 3)), ("sym(4)", (9, 6))):
        carriers.append(TableGroup(spec, cached_group(spec).mul_table, gens))
    carriers += _sort_forcing_carriers()
    for g in carriers:
        got, want = endomorphism_tables(g), endomorphism_tables_by_rows(g)
        assert got.dtype == want.dtype == g.index_type, g.name
        assert got.flags.f_contiguous and want.flags.f_contiguous, g.name
        assert not got.flags.writeable, g.name
        assert np.array_equal(got, want), (g.name, g.generators)


def test_enumeration_of_elemabelian_2_4_stays_within_its_memory():
    # 2^16 maps: the table is 1 MiB and the last round's batch as much
    g = elemabelian(2, 4)
    tracemalloc.start()
    try:
        endomorphism_tables(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


def test_listed_generators_must_generate():
    g = TableGroup("cyclic(4) by 2", cached_group("cyclic(4)").mul_table, (2,))
    with pytest.raises(ParameterError):
        endomorphism_tables(g)


def test_family_tables_are_read_only_image_rows():
    # the tables hold rows in the carrier's index type (int8 through order
    # 128), and the family tables are column-major
    for spec in ("cyclic(6)", "sym(4)", "elemabelian(2,4)", "cyclic(64)"):
        g = cached_group(spec)
        tables = [family_tables(g, m) for m in ("endo", "affine")]
        assert all(t.flags.f_contiguous for t in tables), spec
        for t in tables + [automorphism_tables(g)]:
            assert t.dtype == np.min_scalar_type(-g.order) == g.index_type, spec
            assert not t.flags.writeable, spec


def test_maps_are_read_only_narrow_image_rows():
    g = cached_group("cyclic(4)")
    f = GroupFunction(g, (3, 1, 0, 2))
    assert f.images.dtype == np.int8
    assert twist_function(cached_group("jk(3,0,1)")).images.dtype == np.int16
    with pytest.raises(ValueError):
        f.images[0] = 1
    for metric in ("endo", "affine"):
        tables = family_tables(g, metric)
        best = tables[np.argmax((tables == f.images).sum(axis=1))]
        assert approximability(f, metric)[1].images.tolist() == best.tolist()
    amap = difference_criterion(f, [0, 1])
    assert amap is not None
    assert amap.images.tolist() in family_tables(g, "affine").tolist()


def test_maps_take_over_only_an_owned_array_of_the_image_type():
    g = cached_group("cyclic(4)")
    owned = np.array([3, 1, 0, 2], dtype=np.int8)
    assert GroupFunction(g, owned).images is owned  # taken over, not copied
    with pytest.raises(ValueError):
        owned[0] = 1
    wider = np.array([3, 1, 0, 2])
    view = np.array([3, 1, 0, 2, 0], dtype=np.int8)[:4]
    for images in (wider, view, [3, 1, 0, 2]):
        f = GroupFunction(g, images)
        images[0] = 1  # the caller's array stays writable; the map has a copy
        assert f.images.tolist() == [3, 1, 0, 2]

from __future__ import annotations

import numpy as np
import pytest

from groupapprox import (
    CapacityError,
    GroupFunction,
    approximability,
    automorphism_orbits,
    cyclic,
    difference_criterion,
    elemabelian,
    enumerate_endomorphisms,
    sym,
    twist_function,
)
from groupapprox.morphisms import (
    affine_tables,
    endomorphism_tables,
    minimal_generating_sequence,
)
from groupapprox.search import family_tables

from _oracles import (
    brute_affine,
    brute_automorphisms,
    brute_endomorphisms,
    cached_group,
    orbits_under,
    table_of,
)


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
        expected = sorted(tuple(row) for row in brute_endomorphisms(table_of(g)))
        got = [tuple(m.images.tolist()) for m in enumerate_endomorphisms(g)]
        assert got == expected, spec


def test_affine_tables_match_brute_force():
    for spec in ("cyclic(4)", "sym(3)"):
        g = cached_group(spec)
        expected = brute_affine(table_of(g), brute_endomorphisms(table_of(g)))
        got = affine_tables(g)
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

def test_enumeration_is_lexicographic_with_zero_map_first():
    for spec in ("cyclic(6)", "sym(3)", "alt(4)"):
        g = cached_group(spec)
        images = [m.images.tolist() for m in enumerate_endomorphisms(g)]
        assert images == sorted(images)
        assert images[0] == [0] * g.order


def test_affine_maps_are_constant_major():
    g = cached_group("sym(3)")
    endos = endomorphism_tables(g).tolist()
    tables = affine_tables(g).tolist()
    assert len(tables) == g.order * len(endos)
    for c in range(g.order):
        for i, row in enumerate(endos):
            assert tables[c * len(endos) + i] == [g.mul(c, v) for v in row]
    # distinct (constant, endomorphism) pairs give distinct maps
    assert len({tuple(t) for t in tables}) == len(tables)


def test_results_are_cached_on_the_carrier():
    g = cyclic(6)
    assert endomorphism_tables(g) is endomorphism_tables(g)
    assert affine_tables(g) is affine_tables(g)
    with pytest.raises(ValueError):
        endomorphism_tables(g)[0, 0] = 1


def test_enumeration_capacity_limit():
    with pytest.raises(CapacityError):
        enumerate_endomorphisms(cyclic(65))
    assert len(enumerate_endomorphisms(cyclic(64))) == 64
    # order 32 passes the order limit, but its 2^25 maps exceed the batch
    with pytest.raises(CapacityError):
        endomorphism_tables(elemabelian(2, 5))


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
# generating sequences
# --------------------------------------------------------------------------

def test_minimal_generating_sequence_generates():
    for spec in ("cyclic(12)", "elemabelian(2,3)", "sym(3)", "alt(4)", "modmax(3)"):
        g = cached_group(spec)
        seq = minimal_generating_sequence(g)
        closure = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in list(closure):
                for b in seq:
                    for prod in (g.mul(a, b), g.mul(b, a)):
                        if prod not in closure:
                            closure.add(prod)
                            nxt.append(prod)
            frontier = nxt
        assert closure == set(range(g.order)), spec


def test_minimal_generating_sequence_lengths():
    assert len(minimal_generating_sequence(cached_group("cyclic(12)"))) == 1
    assert len(minimal_generating_sequence(cached_group("elemabelian(2,3)"))) == 3
    assert len(minimal_generating_sequence(cached_group("sym(3)"))) == 2


# the greedy sequences fix the order in which endomorphism_tables extends
# its rows; the catalog up to order 15, then the large-family groups
MGS_PINS = {
    "cyclic(1)": (),
    "cyclic(2)": (1,),
    "cyclic(3)": (1,),
    "cyclic(4)": (1,),
    "elemabelian(2,2)": (1, 2),
    "cyclic(5)": (1,),
    "cyclic(6)": (1,),
    "sym(3)": (3, 1),
    "cyclic(7)": (1,),
    "cyclic(8)": (1,),
    "product(cyclic(4),cyclic(2))": (2, 1),
    "elemabelian(2,3)": (1, 2, 4),
    "dihedral(8)": (1, 4),
    "dicyclic(8)": (1, 4),
    "cyclic(9)": (1,),
    "elemabelian(3,2)": (1, 3),
    "cyclic(10)": (1,),
    "dihedral(10)": (1, 5),
    "cyclic(11)": (1,),
    "cyclic(12)": (1,),
    "product(cyclic(6),cyclic(2))": (2, 1),
    "dihedral(12)": (1, 6),
    "alt(4)": (1, 3),
    "dicyclic(12)": (1, 6),
    "cyclic(13)": (1,),
    "cyclic(14)": (1,),
    "dihedral(14)": (1, 7),
    "cyclic(15)": (1,),
    "elemabelian(2,4)": (1, 2, 4, 8),
    "elemabelian(3,3)": (1, 3, 9),
    "heis(3)": (1, 3, 9),
    "elemabelian(5,2)": (1, 5),
    "product(dihedral(8),cyclic(2))": (2, 1, 8),
    "dihedral(32)": (1, 16),
    "cyclic(64)": (1,),
    "sym(4)": (9, 1),
}


def test_minimal_generating_sequence_pins():
    for spec, seq in MGS_PINS.items():
        assert minimal_generating_sequence(cached_group(spec)) == seq, spec


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
    assert amap.images.tolist() in affine_tables(g).tolist()

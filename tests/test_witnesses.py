from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupapprox import (
    ParameterError,
    approximability,
    build_avoiding_permutation,
    catalog_up_to,
    cyclic_enapp_witness,
    find_aoa_permutation,
    prime_square_witness,
    rem_quot_witness,
    small_group_witnesses,
)
from groupapprox.morphisms import automorphism_orbits

from _oracles import (
    all_set_partitions,
    avoiding_exists_brute,
    cached_group,
    perm_avoids,
)


# --------------------------------------------------------------------------
# measured hardness of the hand-built functions
# --------------------------------------------------------------------------

def test_cyclic_witness_measures_one_for_small_orders():
    for n in range(1, 13):
        f = cyclic_enapp_witness(n)
        assert f.group.order == n
        assert approximability(f, "endo")[0] == 1
    with pytest.raises(ParameterError):
        cyclic_enapp_witness(0)


def test_prime_square_witness_measures_two():
    for p in (2, 3, 5, 7):
        f = prime_square_witness(p)
        assert f.images.tolist() == [(x * x) % p for x in range(p)]
        assert approximability(f, "affine")[0] == 2
    with pytest.raises(ParameterError):
        prime_square_witness(4)
    with pytest.raises(ParameterError):
        prime_square_witness(1)


def test_rem_quot_witness_measurements():
    expected = {(2, 2): 2, (2, 3): 2, (3, 2): 3}
    for (p, k), value in expected.items():
        f = rem_quot_witness(p, k)
        assert f.group.order == p**k
        measured = approximability(f, "affine")[0]
        assert measured == value
        assert measured <= p
    with pytest.raises(ParameterError):
        rem_quot_witness(4, 2)
    with pytest.raises(ParameterError):
        rem_quot_witness(2, 0)


def test_small_group_witnesses_measure_two():
    table = small_group_witnesses()
    assert set(table) == {"z6-swap", "klein", "sym3"}
    assert table["z6-swap"].group.order == 6
    assert table["klein"].group.order == 4
    assert table["sym3"].group.order == 6
    # the klein table is itself affine, so its metric is the endo family
    metrics = {"z6-swap": "affine", "klein": "endo", "sym3": "affine"}
    for name, f in table.items():
        assert approximability(f, metrics[name])[0] == 2, name


# --------------------------------------------------------------------------
# avoiding permutations for partitions
# --------------------------------------------------------------------------

def test_avoiding_permutation_exhaustive_up_to_six_points():
    for m in range(0, 7):
        for classes in all_set_partitions(m):
            perm = build_avoiding_permutation(classes)
            feasible = avoiding_exists_brute(classes)
            threshold = not classes or 2 * max(len(c) for c in classes) <= m
            assert feasible == threshold
            assert (perm is not None) == feasible, classes
            if perm is not None:
                assert sorted(perm) == list(range(m))
                assert perm_avoids(classes, perm)


def test_avoiding_permutation_is_deterministic():
    classes = [[0, 3], [1, 4, 5], [2]]
    first = build_avoiding_permutation(classes)
    assert first == build_avoiding_permutation(classes)
    assert perm_avoids(classes, first)


def test_avoiding_permutation_edge_cases():
    assert build_avoiding_permutation([]) == ()
    assert build_avoiding_permutation([[0]]) is None
    assert build_avoiding_permutation([[0], [1]]) == (1, 0)
    # a class holding more than half the points is a pigeonhole obstruction
    assert build_avoiding_permutation([[0, 1, 2, 3], [4, 5, 6]]) is None


def test_avoiding_permutation_input_validation():
    with pytest.raises(ParameterError):
        build_avoiding_permutation([[0, 1], [1, 2]])
    with pytest.raises(ParameterError):
        build_avoiding_permutation([[1, 2]])
    with pytest.raises(ParameterError):
        build_avoiding_permutation([[0, 2]])
    with pytest.raises(ParameterError):
        build_avoiding_permutation([[0], []])


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_avoiding_permutation_on_random_size_profiles(sizes):
    classes = []
    start = 0
    for s in sizes:
        classes.append(list(range(start, start + s)))
        start += s
    m = start
    perm = build_avoiding_permutation(classes)
    if 2 * max(sizes) > m:
        assert perm is None
    else:
        assert perm is not None
        assert sorted(perm) == list(range(m))
        assert perm_avoids(classes, perm)


def test_recursive_peeling_path_on_larger_ground_sets():
    # ground sets beyond five points, with ties among the largest classes
    for sizes in ((3, 3), (2, 2, 2), (4, 4), (3, 3, 2), (1,) * 7, (5, 5, 4)):
        classes = []
        start = 0
        for s in sizes:
            classes.append(list(range(start, start + s)))
            start += s
        perm = build_avoiding_permutation(classes)
        assert perm is not None
        assert sorted(perm) == list(range(start))
        assert perm_avoids(classes, perm)


# --------------------------------------------------------------------------
# orbit-avoiding bijections
# --------------------------------------------------------------------------

def test_aoa_exists_for_cyclic_groups():
    for spec in ("cyclic(6)", "cyclic(12)"):
        g = cached_group(spec)
        f = find_aoa_permutation(g)
        assert f is not None
        assert f.images[0] == 0
        assert sorted(f.images) == list(range(g.order))
        orbit_of = {}
        for orb in automorphism_orbits(g):
            for x in orb:
                orbit_of[x] = orb
        for x in range(1, g.order):
            assert f.images[x] not in orbit_of[x]


def test_aoa_blocked_by_dominating_orbits():
    for spec in ("sym(3)", "alt(4)", "elemabelian(2,2)", "heis(3)", "modmax(3)"):
        assert find_aoa_permutation(cached_group(spec)) is None, spec


def test_aoa_trivial_group():
    f = find_aoa_permutation(cached_group("cyclic(1)"))
    assert f is not None and f.images.tolist() == [0]


def test_aoa_existence_matches_dominating_orbit_criterion():
    for g in catalog_up_to(15):
        orbits = [o for o in automorphism_orbits(g) if o != (0,)]
        dominated = any(2 * len(o) > g.order - 1 for o in orbits)
        assert (find_aoa_permutation(g) is None) == dominated, g.name

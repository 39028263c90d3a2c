from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from groupapprox import (
    CapacityError,
    ParameterError,
    agreement_bounds,
    brute_force_app,
    catalog_up_to,
    endo_count_bound,
    enumerate_endomorphisms,
    worst_case_upper_bounds,
)
from groupapprox.bounds import _min_max, _Rows, ball_size, circle_size

from _oracles import brute_app_tiny, max_agreement


# --------------------------------------------------------------------------
# counting
# --------------------------------------------------------------------------

def test_circle_and_ball_pins():
    assert circle_size(5, 3, 0) == 1
    assert circle_size(5, 3, 2) == 40
    assert ball_size(5, 3, 5) == 3**5
    assert ball_size(4, 2, 1) == 5
    assert (circle_size(5, 3, 2), ball_size(5, 3, 2)) == (40, 1 + 10 + 40)
    assert circle_size(3, 1, 0) == 1 and circle_size(3, 1, 2) == 0


def test_circle_size_validation():
    with pytest.raises(ParameterError):
        circle_size(0, 2, 0)
    with pytest.raises(ParameterError):
        circle_size(3, 2, 4)
    with pytest.raises(ParameterError):
        ball_size(3, 2, -1)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=5))
def test_circles_partition_the_function_space(m1, m2):
    sizes = [circle_size(m1, m2, k) for k in range(m1 + 1)]
    assert sum(sizes) == m2**m1
    assert ball_size(m1, m2, m1) == m2**m1


# --------------------------------------------------------------------------
# two-sided agreement bounds
# --------------------------------------------------------------------------

def test_agreement_bounds_fiber_branch():
    report = agreement_bounds(8, 2, 3.0)
    assert report.upper_branch == "e2-fiber"
    assert abs(report.upper - 29.556224395722598) < 1e-9
    assert report.lower == 4
    assert report.gamma[0] == 1 and len(report.gamma) == 9
    assert report.nu[-1] == 2**8


def test_agreement_bounds_entropy_branch():
    report = agreement_bounds(4, 16, 1.0)
    assert report.upper_branch == "entropy"
    assert abs(report.upper - 4.1588830833596715) < 1e-9
    assert report.lower == 1
    assert abs(report.log_ratio - math.log(4) / math.log(16)) < 1e-12


def test_agreement_bounds_validation():
    with pytest.raises(ParameterError):
        agreement_bounds(1, 2, 1.0)
    with pytest.raises(ParameterError):
        agreement_bounds(4, 1, 1.0)
    with pytest.raises(ParameterError):
        agreement_bounds(4, 2, 0.0)


# --------------------------------------------------------------------------
# order-level bounds
# --------------------------------------------------------------------------

def test_worst_case_upper_bounds_pins():
    endo, affine = worst_case_upper_bounds(8)
    assert abs(endo - 8.317766166719343) < 1e-9
    assert abs(affine - 10.397207708399177) < 1e-9
    assert worst_case_upper_bounds(2)[0] == pytest.approx(2 * math.log(2))
    with pytest.raises(ParameterError):
        worst_case_upper_bounds(1)


def test_worst_case_upper_bounds_monotone_gap():
    for n in range(2, 200):
        endo, affine = worst_case_upper_bounds(n)
        assert affine - endo == pytest.approx(math.log(n))


def test_endo_count_bound_pins():
    assert endo_count_bound(1) == 1.0
    assert endo_count_bound(8) == 512.0
    with pytest.raises(ParameterError):
        endo_count_bound(0)


def test_endo_count_bound_dominates_actual_counts():
    for g in catalog_up_to(12):
        count = len(enumerate_endomorphisms(g))
        assert count <= endo_count_bound(g.order) + 1e-9, g.name


# --------------------------------------------------------------------------
# brute force on tiny shapes
# --------------------------------------------------------------------------

def test_brute_force_app_matches_pure_python_oracle():
    rng = np.random.default_rng(13)
    for m1, m2 in ((2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 2)):
        constants = [[c] * m1 for c in range(m2)]
        randoms = [
            [int(v) for v in rng.integers(0, m2, size=m1)] for _ in range(3)
        ]
        family = constants + randoms
        assert brute_force_app(m1, m2, family) == brute_app_tiny(m1, m2, family)


def test_brute_force_app_on_constant_families():
    # against constants alone, the best dodge leaves ceil(m1/m2) agreements
    for m1, m2 in ((5, 2), (6, 3), (7, 3), (4, 4)):
        constants = [[c] * m1 for c in range(m2)]
        assert brute_force_app(m1, m2, constants) == -(-m1 // m2)
    assert brute_force_app(3, 1, [[0, 0, 0]]) == 3


def test_brute_force_app_deeper_than_the_recursion_limit():
    # m2 = 1 passes the m2^m1 cap at any m1, and the search keeps its
    # depths on its own stack, so Python's recursion limit does not bind
    m1 = sys.getrecursionlimit() + 200
    assert brute_force_app(m1, 1, [[0] * m1]) == m1


@st.composite
def _families_missing_a_constant(draw):
    """Small shapes with a family lacking some constant map; for m2 = 1 the
    only map is the constant, so that shape keeps it."""
    m1 = draw(st.integers(min_value=1, max_value=5))
    m2 = draw(st.integers(min_value=1, max_value=3))
    row = st.lists(st.integers(0, m2 - 1), min_size=m1, max_size=m1)
    family = draw(st.lists(row, min_size=1, max_size=6))
    if m2 > 1:
        missing = [draw(st.integers(0, m2 - 1))] * m1
        family = [f for f in family if f != missing]
        assume(family)
    return m1, m2, family


@given(_families_missing_a_constant())
def test_brute_force_app_without_all_constants_matches_oracle(case):
    m1, m2, family = case
    assert brute_force_app(m1, m2, family) == brute_app_tiny(m1, m2, family)


def test_brute_force_app_wide_codomain():
    # m2 > 2^16: each depth marks its blocked values in a mask of all m2,
    # and a bucket is listed only for a value tried
    m2 = 70_000
    constants = [[c] for c in range(m2)]
    assert brute_force_app(1, m2, constants) == 1
    assert brute_force_app(1, m2, constants[:65_536] + constants[65_537:]) == 0
    # with two positions the rows at k decide the witness: the rows (c, c)
    # and (c, c+1) block 0 and 1 at the second position once the first is
    # 0, and passing down the rows of another value would not
    family = [[c, c] for c in range(m2)] + [[c, (c + 1) % m2] for c in range(m2)]
    k, images, _, thresholds, _ = _min_max(_Rows(np.array(family)), m2, 0)
    assert (k, images, thresholds) == (1, (0, 2), (0, 1))


def test_counters_hold_the_domain_size():
    # the one row agrees everywhere, so k reaches 300: a uint8 counter
    # would wrap to 0 and end the search early, at k = 256
    k, images, nodes, thresholds, _ = _min_max(
        _Rows(np.zeros((1, 300), dtype=np.int64)), 1, 0
    )
    assert (k, nodes, thresholds) == (300, 45_450, tuple(range(301)))
    assert images == (0,) * 300


@pytest.mark.parametrize("seed, shape, m2, start, pinned, expected", [
    (1, (60, 7), 3, 0, None,
     (4, (0, 0, 0, 0, 0, 1, 2), 355, (0, 1, 2, 3, 4))),
    # a pin and a start of 0: the deepening starts at the pinned count 1
    (3, (80, 6), 4, 0, {2: 1}, (3, (0, 0, 1, 3, 0, 0), 56, (1, 2, 3))),
    # two pins and a start of 1: some rows agree on both, so it starts at 2
    (4, (120, 7), 3, 1, {0: 0, 5: 2},
     (4, (0, 0, 0, 0, 2, 2, 2), 36, (2, 3, 4))),
    (5, (3000, 4), 300, 0, None, (1, (0, 0, 2, 0), 306, (0, 1))),
])
def test_brute_force_family_pins(seed, shape, m2, start, pinned, expected):
    # seeded families without perms; node counts follow from the branching
    # order and the skip rule alone
    family = np.random.default_rng(seed).integers(0, m2, size=shape)
    k, images, nodes, thresholds, symmetries = _min_max(
        _Rows(family), m2, start, pinned=pinned
    )
    assert (k, images, nodes, thresholds) == expected
    assert symmetries == 1
    assert max_agreement(images, family) == k


def test_the_deepening_starts_at_the_largest_pinned_count():
    # a row that agrees on the pins needs k at least that count: started
    # below it, the search returned k = 0 for both
    rows = _Rows(np.array([[0, 0], [1, 1]]))
    assert _min_max(rows, 3, 0, pinned={0: 0}) == (1, (0, 1), 2, (1,), 1)
    # every position pinned: no node, and k is the one row's agreement
    rows = _Rows(np.array([[0, 1]]))
    assert _min_max(rows, 2, 0, pinned={0: 0, 1: 1}) == (2, (0, 1), 0, (2,), 1)


def test_positions_taking_more_values_go_first():
    # position 1 takes three values and position 0 one, so position 1 is
    # assigned first: 3 + 3 nodes, where index order would take 9 + 6
    family = _Rows(np.array([[0, 0], [0, 1], [0, 2]]))
    assert _min_max(family, 3, 0) == (1, (1, 0), 6, (0, 1), 1)


def test_brute_force_app_refuses_maps_that_are_not_integer_arrays():
    # floats and strings used to be coerced to int (1.5 read as 1), and
    # ragged rows raised a bare ValueError
    for family in (
        [[0, 1.5], [1, 1], [0, 0]],
        [["0", "1"], [1, 1], [0, 0]],
        [["0", "1"], ["1", "1"], ["0", "0"]],
        [[0, 1], [1], [0, 0]],
    ):
        with pytest.raises(ParameterError):
            brute_force_app(2, 2, family)
    for dtype in (np.uint8, np.int16, np.int64):
        family = np.array([[0, 1], [1, 1], [0, 0]], dtype=dtype)
        assert brute_force_app(2, 2, family) == 1


def test_brute_force_app_validation():
    with pytest.raises(CapacityError):
        brute_force_app(30, 2, [[0] * 30])
    with pytest.raises(ParameterError):
        brute_force_app(3, 2, [])
    with pytest.raises(ParameterError):
        brute_force_app(3, 2, [[0, 1]])
    with pytest.raises(ParameterError):
        brute_force_app(3, 2, [[0, 1, 2]])
    with pytest.raises(ParameterError):
        brute_force_app(0, 2, [[0]])

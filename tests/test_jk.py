from __future__ import annotations

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupapprox import (
    CapacityError,
    GroupFunction,
    JKParams,
    ParameterError,
    ScopeError,
    SigmaMap,
    build_group,
    endo_reachable,
    jk_enapp_zero_witness,
    jk_group,
    jk_pth_power,
    make_sigma,
    singer_sigma,
    twist_function,
    validate,
    verify_affapp_one,
    verify_enapp_zero,
)
from groupapprox import jk
from groupapprox.jk import (
    SCAN_BLOCK,
    SCAN_CHUNK,
    _affine_chunks,
    _central_rows,
    _coset_quotient,
    _pair_hits,
    _reachable_mask,
    check_classified_maps,
)

from _oracles import (
    affine_row_blocks,
    affine_scan_by_rows,
    jk_tables_on_eight_axes,
    sampled_pairs_int64,
    singer_sigma_per_candidate,
)


@pytest.fixture(scope="module")
def g01():
    return jk_group(3, 0, 1)


@pytest.fixture(scope="module")
def g11():
    return jk_group(3, 1, 1)


# --------------------------------------------------------------------------
# parameters and gating
# --------------------------------------------------------------------------

def test_params_validation():
    for p in (2, 4):
        with pytest.raises(ParameterError):
            JKParams(p, 0, 1)
    with pytest.raises(CapacityError):  # 9**8 table cells, sized before primality
        JKParams(9, 0, 1)
    with pytest.raises(ParameterError):
        JKParams(3, 3, 1)
    with pytest.raises(ParameterError):
        JKParams(3, 0, -1)
    with pytest.raises(ParameterError):
        JKParams(3, 0, 0)
    with pytest.raises(ParameterError):
        JKParams(3, 2, 0)
    JKParams(3, 1, 0)  # the one admissible pair with second entry != 1
    JKParams(3, 2, 1)


def test_unclassified_parameters_are_scope_gated():
    g = jk_group(3, 1, 0)
    assert g.order == 3**8
    with pytest.raises(ScopeError):
        twist_function(g)
    with pytest.raises(ScopeError):
        jk_enapp_zero_witness(g)
    with pytest.raises(ScopeError):
        verify_enapp_zero(g)
    with pytest.raises(ScopeError):
        endo_reachable(g, 1, 1)
    with pytest.raises(ScopeError):
        check_classified_maps(g)


def test_large_prime_gate():
    with pytest.raises(CapacityError):
        jk_group(5, 0, 1)
    g = jk_group(5, 0, 1, allow_large=True)
    assert g.order == 5**8
    x = 123_456
    assert g.mul(x, g.inv(x)) == 0
    assert g.mul(g.inv(x), x) == 0
    acc = 0
    for _ in range(5):
        acc = g.mul(acc, x)
    assert jk_pth_power(g, x) == acc


def test_primes_past_the_table_cell_limit_are_refused_before_allocating():
    tracemalloc.start()
    try:
        for p in (11, 101, 2**61 - 1):  # the last one would stall trial division
            with pytest.raises(CapacityError):
                jk_group(p, 0, 1, allow_large=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert jk_group(7, 0, 1, allow_large=True).order == 7**8


def test_params_refuse_a_huge_p_before_trial_division():
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        JKParams(2**61 - 1, 0, 1)
    assert time.perf_counter() - start < 1.0


def test_operations_refuse_non_elements(g01):
    for x in (-1, 6561, np.array([0, 6561]), 2**70):
        with pytest.raises(ParameterError):
            jk_pth_power(g01, x)
        with pytest.raises(ParameterError):
            endo_reachable(g01, x, 0)
        with pytest.raises(ParameterError):
            endo_reachable(g01, 0, x)
        with pytest.raises(ParameterError):
            g01.mul(x, 0)
        with pytest.raises(ParameterError):
            g01.coset(x)


def test_build_group_spec_integration(g11):
    g = build_group("jk(3,1,1)")
    assert g.order == 6561
    assert g.name == "jk(3,1,1)"
    assert g.mul(5, 7) == g11.mul(5, 7)


# --------------------------------------------------------------------------
# group structure
# --------------------------------------------------------------------------

def test_codec_round_trip(g01):
    rng = np.random.default_rng(0)
    xs = rng.integers(0, g01.order, size=500)
    assert (g01.encode(g01.decode(xs)) == xs).all()
    octs = g01.decode(np.arange(g01.order))
    assert octs.shape == (6561, 8)
    assert (octs >= 0).all() and (octs < 3).all()


def test_axioms_hold(g01, g11):
    for g in (g01, g11):
        report = validate(g)
        assert report.passed
        assert report.triples_checked == g.order**2 * 4
        idx = np.arange(g.order)
        assert (g.mul_many(idx, g.inv_many(idx)) == 0).all()
        assert (g.mul_many(g.inv_many(idx), idx) == 0).all()


@pytest.mark.parametrize("lam", [(0, 1), (1, 0), (1, 1), (2, 1)])
def test_validate_proves_every_small_member(lam):
    g = jk_group(3, *lam)
    report = validate(g)
    assert report.passed, report.failures
    assert report.triples_checked == g.order**2 * 4  # the listed generators


def test_validate_proves_jk_5():
    g = jk_group(5, 0, 1, allow_large=True)
    report = validate(g)
    assert report.passed, report.failures
    assert report.triples_checked == g.order**2 * 4


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=80))
def test_validate_refutes_one_changed_cocycle_entry(q, r):
    # c(q, r) with q, r != 0, so the identity law still holds
    g = jk_group(3, 0, 1)
    cocycle = g._cocycle.copy()
    cell = q * 81 + r
    cocycle[cell] = (cocycle[cell] + 1) % 81
    g._cocycle = cocycle
    report = validate(g)
    assert report.identity_ok
    assert "associativity fails" in report.failures


@pytest.mark.parametrize("zero_cocycle", [False, True])
def test_validate_refutes_two_swapped_addition_entries(zero_cocycle):
    g = jk_group(3, 0, 1)
    if zero_cocycle:  # (Z/3)^8, where the cocycle identity holds on any _add
        g._cocycle = np.zeros_like(g._cocycle)
    assert validate(g).associativity_ok
    add = g._add.copy()
    add[[82, 83]] = add[[83, 82]]                 # the codes 1 + 1 and 1 + 2
    g._add = add
    x, s = 2 * 81, 81                             # the cosets 2 and 1
    assert g.mul(g.mul(x, s), s) != g.mul(x, g.mul(s, s))
    report = validate(g)
    assert report.identity_ok and not report.associativity_ok


def test_center_is_exactly_the_low_indices(g01):
    g = g01
    assert g.center() == tuple(range(81))
    idx = np.arange(g.order)
    commutes = np.ones(g.order, dtype=bool)
    for gen in g.generators:
        commutes &= g.mul_many(idx, gen) == g.mul_many(gen, idx)
    assert (commutes == (idx < 81)).all()
    assert g.coset(80) == 0
    assert g.coset(81) == 1


def test_generator_commutators_span_the_center(g01):
    g = g01
    a1, a2, b1, b2 = g.generators

    def comm(x, y):
        return g.mul(g.mul(g.inv(x), g.inv(y)), g.mul(x, y))

    # the two k-generators commute, as do the two l-generators
    assert comm(a1, a2) == 0
    assert comm(b1, b2) == 0
    # mixed commutators are nontrivial, central, and independent
    mixed = [comm(a, b) for a in (a1, a2) for b in (b1, b2)]
    assert all(0 < c < 81 for c in mixed)
    digit_matrix = np.array([g.decode(c)[4:8] for c in mixed])
    from groupapprox.jk import _linear_codes

    assert np.unique(_linear_codes(3, digit_matrix.T)).size == 81


def test_generator_cubes_match_the_carry_table(g01, g11):
    for g in (g01, g11):
        lam1, lam2 = g.params.lam1, g.params.lam2
        expected_digits = [
            (1, 0, 0, 0),
            (lam1, lam2, 0, 0),
            (0, 0, 1, 1),
            (0, 0, 0, 1),
        ]
        for gen, digits in zip(g.generators, expected_digits):
            cube = g.power(gen, 3)
            oct_ = tuple(int(v) for v in g.decode(cube))
            assert oct_ == (0, 0, 0, 0) + digits


def test_exponent_is_p_squared(g01):
    rng = np.random.default_rng(1)
    for x in rng.integers(1, g01.order, size=20):
        assert g01.power(int(x), 9) == 0
    assert g01.power(g01.generators[0], 3) != 0


def test_pth_power_formula_matches_repeated_multiplication(g01, g11):
    rng = np.random.default_rng(2)
    for g in (g01, g11):
        xs = rng.integers(0, g.order, size=300)
        cubes = g.mul_many(g.mul_many(xs, xs), xs)
        assert (jk_pth_power(g, xs) == cubes).all()
    assert jk_pth_power(g01, 5) == g01.mul(5, g01.mul(5, 5))


def test_pth_power_bijectivity_depends_on_lambda2(g01):
    coset_reps = np.arange(81) * 81
    assert len(np.unique(jk_pth_power(g01, coset_reps))) == 81
    g10 = jk_group(3, 1, 0)
    assert len(np.unique(jk_pth_power(g10, coset_reps))) == 27


# --------------------------------------------------------------------------
# twists
# --------------------------------------------------------------------------

def test_singer_sigma_pins():
    sigma = singer_sigma(3)
    assert sigma.matrix == ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 2))
    # a Singer element: the orbit of a basis vector walks every nonzero vector
    M = np.array(sigma.matrix)
    v = np.array([1, 0, 0, 0])
    seen = set()
    for _ in range(80):
        v = (M @ v) % 3
        seen.add(tuple(int(t) for t in v))
    assert len(seen) == 80
    assert (0, 0, 0, 0) not in seen
    assert singer_sigma(5).matrix == (
        (0, 0, 0, 3), (1, 0, 0, 0), (0, 1, 0, 3), (0, 0, 1, 4)
    )
    assert singer_sigma(7).matrix == (
        (0, 0, 0, 4), (1, 0, 0, 0), (0, 1, 0, 6), (0, 0, 1, 6)
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_singer_sigma_matches_the_per_candidate_search(p):
    assert singer_sigma(p) == SigmaMap(p, singer_sigma_per_candidate(p))


def test_sigma_is_fixed_point_free_on_all_vectors():
    sigma = singer_sigma(3)
    vecs = np.array(np.meshgrid(*[range(3)] * 4, indexing="ij")).reshape(4, -1).T
    fixed = (vecs @ np.array(sigma.matrix).T % 3 == vecs).all(axis=1)
    assert fixed.sum() == 1  # only the zero vector


def test_make_sigma_validation():
    assert make_sigma(3, 2 * np.eye(4, dtype=int)).matrix[0] == (2, 0, 0, 0)
    with pytest.raises(ParameterError):
        make_sigma(3, np.eye(4, dtype=int))  # has eigenvalue 1
    with pytest.raises(ParameterError):
        make_sigma(3, np.diag([1, 2, 2, 2]))
    with pytest.raises(ParameterError):
        make_sigma(3, np.zeros((4, 4), dtype=int))  # singular
    with pytest.raises(ParameterError):
        make_sigma(3, np.eye(3, dtype=int))


def test_make_sigma_refuses_a_modulus_without_a_carrier():
    # det = 2 mod 4 is nonzero but no unit: v -> M v takes 256 vectors onto 128
    with pytest.raises(ParameterError):
        make_sigma(4, ((1, 1, 1, 3), (0, 1, 0, 1), (3, 2, 1, 3), (2, 3, 0, 1)))
    with pytest.raises(ParameterError):
        make_sigma(0, 2 * np.eye(4, dtype=int))
    with pytest.raises(CapacityError):  # 11**8 cells: refused before any search
        singer_sigma(11)


def test_sigma_builders_refuse_p_2():
    # x^4 + x + 1 is primitive over F_2, but there is no J(2, lambda) to twist
    companion = np.eye(4, k=-1, dtype=int)
    companion[:, 3] = (1, 1, 0, 0)
    with pytest.raises(ParameterError):
        make_sigma(2, companion)
    with pytest.raises(ParameterError):
        singer_sigma(2)


def test_twist_function_is_a_bijection_fixing_only_zero(g01):
    f = twist_function(g01)
    assert sorted(f.images) == list(range(6561))
    fixed = [x for x in range(6561) if f.images[x] == x]
    assert fixed == [0]
    with pytest.raises(ParameterError):
        twist_function(g01, singer_sigma(5))


# --------------------------------------------------------------------------
# reachability under the classified endomorphisms
# --------------------------------------------------------------------------

def test_reachable_set_sizes(g01):
    g = g01
    es = np.arange(g.order)
    assert endo_reachable(g, 0, 0) and not endo_reachable(g, 0, 1)
    for d in (1, 5, 80):  # central arguments reach {0, d}
        mask = _reachable_mask(*divmod(d, 81), *np.divmod(es, 81))
        assert int(mask.sum()) == 2
        assert endo_reachable(g, d, 0) and endo_reachable(g, d, d)
    for d in (81, 4000, 6560):  # noncentral arguments reach center + coset
        mask = _reachable_mask(*divmod(d, 81), *np.divmod(es, 81))
        assert int(mask.sum()) == 162
        scalar = np.array([endo_reachable(g, d, int(e)) for e in range(0, 6561, 37)])
        assert (scalar == mask[::37]).all()


def test_reachable_mask_on_halves_matches_the_reachable_sets(g01):
    es = np.arange(g01.order)
    center = set(range(81))
    rng = np.random.default_rng(4)
    noncentral = rng.choice(np.arange(81, g01.order), size=160, replace=False)
    for d in [0, *range(1, 81, 2), *noncentral.tolist()]:
        if d == 0:
            want = {0}
        elif d in center:
            want = {0, d}
        else:
            want = center | {x for x in range(g01.order) if x // 81 == d // 81}
        mask = _reachable_mask(*np.divmod(np.full(es.size, d), 81), *np.divmod(es, 81))
        assert set(np.flatnonzero(mask).tolist()) == want, d


def test_reachability_is_witnessed_by_constructed_endomorphisms(g01):
    """Each claimed-reachable target is hit by an explicit endomorphism:
    a linear map on the coset space embedded centrally, optionally
    multiplied by the identity."""
    g = g01
    p = 3
    weights4 = 3 ** np.arange(3, -1, -1)
    rng = np.random.default_rng(3)
    for d in (81, 3333, 6560):
        u = g.decode(d)[0:4]
        j = int(np.flatnonzero(u)[0])
        inv_uj = pow(int(u[j]), -1, p)

        central_hits = set()
        coset_hits = set()
        for t_index in range(81):
            t = g.decode(t_index)[4:8]
            L = np.zeros((4, 4), dtype=np.int64)
            L[:, j] = (t * inv_uj) % p

            def phi(v: int) -> int:
                return int(((g.decode(v)[0:4] @ L.T) % p) @ weights4)

            # phi is a genuine endomorphism ...
            for x, y in rng.integers(0, g.order, size=(5, 2)):
                x, y = int(x), int(y)
                assert phi(g.mul(x, y)) == g.mul(phi(x), phi(y))
            # ... and so is x -> x * phi(x)
            central_hits.add(phi(d))
            coset_hits.add(g.mul(d, phi(d)))
        assert central_hits == set(range(81))
        assert coset_hits == set(range((d // 81) * 81, (d // 81 + 1) * 81))


def test_classified_maps_satisfy_homomorphism_law(g01, g11):
    assert check_classified_maps(g01) == 0
    assert check_classified_maps(g11) == 0
    assert check_classified_maps(jk_group(3, 2, 1)) == 0
    assert check_classified_maps(jk_group(5, 0, 1, allow_large=True)) == 0


def test_classified_maps_check_catches_a_tampered_product():
    g = jk_group(3, 0, 1)  # a fresh carrier: the module fixtures stay intact
    assert check_classified_maps(g) == 0
    g._add[1] = 2  # the digit-wise sum 0 + 1 of the last digit now reads 2
    assert check_classified_maps(g) == 166


def test_classified_maps_check_runs_in_bounded_memory():
    g = jk_group(5, 0, 1, allow_large=True)
    tracemalloc.start()
    try:
        assert check_classified_maps(g) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of the element range, not order-length (5^8) arrays
    assert peak < 4 << 20, peak


def test_carrier_builds_in_its_table_width():
    tracemalloc.start()
    try:
        g = jk_group(5, 0, 1, allow_large=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g._add.dtype == g._cocycle.dtype == np.int16
    # the two int16 tables (1.5 MiB) and int64 sums of at most 5^5 cells; a
    # single int64 array of 5^8 cells would add 3 MiB
    assert peak < 3 << 20, peak


@pytest.mark.parametrize(
    "params", [(3, 0, 1), (3, 1, 1), (3, 2, 1), (3, 1, 0), (5, 0, 1), (7, 0, 1)]
)
def test_carrier_tables_match_the_eight_axis_construction(params):
    g = jk_group(*params, allow_large=True)
    for table, ref in zip((g._add, g._cocycle, g._neg),
                          jk_tables_on_eight_axes(*params)):
        assert table.dtype == ref.dtype
        assert table.tobytes() == ref.tobytes()


# --------------------------------------------------------------------------
# verification scans
# --------------------------------------------------------------------------

def test_sampled_affine_scan_passes(g01):
    report = verify_affapp_one(g01, mode="sampled", samples=20_000, seed=1)
    assert report.passed
    assert report.pairs_checked == 20_000
    assert report.violations == ()
    assert report.check == "affine-agreement"
    assert report.mode == "sampled"
    assert report.sigma == singer_sigma(3).matrix


IDENTITY_SIGMA = SigmaMap(
    3, tuple(tuple(int(v) for v in row) for row in np.eye(4, dtype=int))
)


def test_sampled_scan_with_degenerate_sigma_reports_violations(g01):
    # the identity twist makes f the identity, which every pair agrees with
    report = verify_affapp_one(
        g01, IDENTITY_SIGMA, mode="sampled", samples=5_000, seed=2
    )
    assert not report.passed
    assert report.pairs_checked == report.violations_total == 5_000
    assert report.violations == (
        (5495, 682), (1716, 5307), (717, 3558), (1958, 3804), (2715, 5379),
        (5342, 1205), (2960, 3419), (603, 4402), (2197, 3831), (3937, 1861),
        (5335, 4479), (4780, 4941), (6514, 3768), (1232, 1882), (5775, 3344),
        (361, 5683), (3662, 262), (1804, 4303), (1321, 2868), (4313, 4534),
    )


def test_full_scan_with_degenerate_sigma_records_pairs_in_order(g01):
    report = verify_affapp_one(g01, IDENTITY_SIGMA, mode="full")
    assert report.pairs_checked == report.violations_total == 6561 * 6560
    assert report.violations == tuple((0, x) for x in range(1, 21))


@pytest.fixture(scope="module")
def tampered_twist(g01):
    # one value copied inside its coset: four ordered pairs off row 0, next
    # to the diagonal, now agree with an affine map
    images = list(twist_function(g01).images)
    images[4000] = images[3976]
    return GroupFunction(g01, tuple(images))


def test_full_scan_records_scattered_violations_in_order(g01, tampered_twist):
    report = verify_affapp_one(g01, mode="full", function=tampered_twist)
    assert report.pairs_checked == 6561 * 6560
    assert report.violations_total == 4
    assert report.violations == (
        (3976, 4000), (4000, 3976), (4000, 4012), (4012, 4000),
    )


def test_sampled_scan_records_scattered_violations(g01, tampered_twist):
    report = verify_affapp_one(
        g01, mode="sampled", samples=10**6, seed=6, function=tampered_twist
    )
    assert report.pairs_checked == 10**6
    assert report.violations_total == 1
    assert report.violations == ((3976, 4000),)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sampled_draws_are_the_int64_pair_sequence(p, request):
    g = request.getfixturevalue("g7") if p == 7 else jk_group(p, 0, 1, allow_large=True)
    f = np.zeros(g.order, dtype=g.index_type)  # the pairs do not depend on f
    for samples in (1, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1):
        chunks = list(_affine_chunks(g, f, samples, p))
        reference = list(sampled_pairs_int64(g.order, samples, p))
        assert len(chunks) == len(reference)
        for (ys, xs, hit, pairs), (ref_ys, ref_xs) in zip(chunks, reference):
            assert ys.dtype == xs.dtype == g.index_type
            assert pairs == hit.size == ref_ys.size
            assert (ys == ref_ys).all() and (xs == ref_xs).all()


def test_the_index_type_holds_every_sampled_sum(g7):
    admitted = []
    for p in range(12):  # from 11 on, p^8 exceeds the table cell limit
        try:
            jk._jk_prime(p)
        except (CapacityError, ParameterError):
            continue
        admitted.append(p)
    assert admitted == [3, 5, 7]
    for g in (jk_group(3, 0, 1), jk_group(5, 0, 1, allow_large=True), g7):
        # _affine_chunks forms y + (x - y) <= 2n - 2 before it wraps
        assert np.iinfo(g.index_type).max >= 2 * g.order - 2


@pytest.mark.parametrize(
    "option, value",
    [("samples", 2.5), ("samples", "10"), ("samples", True),
     ("seed", 1.5), ("seed", True)],
)
def test_affine_scan_refuses_samples_and_seeds_that_are_not_integers(
    g01, option, value
):
    # 2.5 and "10" raised a bare TypeError, 1.5 one from SeedSequence, and
    # True was read as 1; nothing is coerced
    with pytest.raises(ParameterError, match=f"{option} must be an integer"):
        verify_affapp_one(g01, mode="sampled", **{option: value})


def test_affine_scan_takes_numpy_integers_for_samples_and_seed(g01):
    report = verify_affapp_one(
        g01, mode="sampled", samples=np.int64(10), seed=np.uint8(1)
    )
    assert report.passed and report.pairs_checked == 10


def _full_scan(g, f):
    report = verify_affapp_one(g, mode="full", function=f)
    return report.pairs_checked, report.violations_total, report.violations


def _whole_element_hits(g, f, ys, xs):
    # every pair decided on whole-element products, without the pairs (y, y)
    d = g.mul_many(g.inv_many(ys), xs)
    e = g.mul_many(g.inv_many(f[ys]), f[xs])
    p4 = g._p4
    return _reachable_mask(*np.divmod(d, p4), *np.divmod(e, p4)) & (ys != xs)


@pytest.mark.parametrize("tampered", [False, True])
def test_affine_scan_hits_match_the_per_pair_formula(tampered):
    g = jk_group(3, 0, 1)  # a fresh carrier: the module fixtures stay intact
    if tampered:
        # 0 + 1 in the last coset digit now reads 0: y^-1 x has coset code 0
        # for y in coset 0 and x in coset 1 without being central
        g._add[1] = 0
    # images in three cosets, so qe meets both 0 and qd often
    rng = np.random.default_rng(0)
    f = GroupFunction(g, rng.integers(0, 3 * 81, size=g.order)).images
    # the class-counted full scan equals the reference, whose first row
    # blocks hold coset 0 and the diagonal
    assert _full_scan(g, GroupFunction(g, f)) == affine_scan_by_rows(g, f)
    full = list(itertools.islice(affine_row_blocks(g, f), 12))
    assert any((ys == xs).any() for ys, xs, _, _ in full)
    sampled = list(_affine_chunks(g, f, SCAN_CHUNK, 5))
    for ys, xs, hit, _ in full + sampled:
        ys, xs = np.broadcast_arrays(ys, xs)
        assert hit.shape == ys.shape
        assert (hit == _whole_element_hits(g, f, ys, xs)).all()


def _random_function(g):
    return GroupFunction(g, np.random.default_rng(1).integers(0, g.order, g.order))


@pytest.mark.parametrize("case", ["twist", "tampered", "identity", "random"])
def test_full_scan_matches_the_row_block_reference(g01, tampered_twist, case):
    f = {
        "twist": twist_function(g01),
        "tampered": tampered_twist,
        "identity": GroupFunction(g01, np.arange(g01.order)),
        "random": _random_function(g01),
    }[case]
    assert _full_scan(g01, f) == affine_scan_by_rows(g01, f.images)


@pytest.mark.parametrize("lam1", [1, 2])
def test_full_scan_of_the_other_twists_matches_the_row_block_reference(lam1):
    g = jk_group(3, lam1, 1)
    f = twist_function(g)
    assert _full_scan(g, f) == affine_scan_by_rows(g, f.images)


def _central_reference(g, f, qy, qx, zy):
    # the central pass's row counts of a block, decided pair by pair
    y = (qy[:, None] * g._p4 + zy)[:, :, None]
    x = (qx[:, None] * g._p4 + np.arange(g._p4))[:, None, :]
    return np.count_nonzero(_whole_element_hits(g, f, y, x), axis=2)


def _central_block(g, f, qy, qx, zy):
    # the central pass's own row counts of the same block
    fq, fz = np.divmod(f.reshape(g._p4, g._p4), g._p4)
    return _central_rows(g, fq, fz, qy, qx, zy)


@pytest.mark.parametrize("function", ["identity", "random"])
def test_central_pass_keeps_the_pairs_of_a_moved_coset_pair(function):
    g = jk_group(3, 0, 1)  # a fresh carrier: the module fixtures stay intact
    # 0 + 1 in the last coset digit now reads 0: the coset pair (0, 1)
    # has quotient code 0, so it joins the central pass without a diagonal
    g._add[1] = 0
    codes = np.arange(81)
    qy, qx = np.nonzero(_coset_quotient(g, codes[:, None], codes) == 0)
    assert (0, 1) in zip(qy.tolist(), qx.tolist())
    f = {
        # e = d on every pair: all 81 x of a row's block are hits
        "identity": np.arange(g.order),
        "random": np.random.default_rng(2).integers(0, 3 * 81, size=g.order),
    }[function]
    f = GroupFunction(g, f)
    block = np.array([0]), np.array([1]), codes
    counts = _central_block(g, f.images, *block)
    assert (counts == _central_reference(g, f.images, *block)).all()
    if function == "identity":
        assert (counts == 81).all()
    assert _full_scan(g, f) == affine_scan_by_rows(g, f.images)


@pytest.mark.parametrize("tampered_add", [False, True])
def test_central_rows_at_p5_match_the_pair_by_pair_decision(tampered_add):
    g = jk_group(5, 0, 1, allow_large=True)  # fresh: it may be tampered
    if tampered_add:
        g._add[1] = 0  # the coset pair (0, 1) now reads quotient 0
    images = np.array(twist_function(g).images)
    images[: 16 * 625] = np.arange(16 * 625)  # the identity on 16 cosets
    codes = np.arange(625)
    qy, qx = np.nonzero(_coset_quotient(g, codes[:, None], codes) == 0)
    pick = [0, 1, 3, 400]  # with right tables (0, 0), (1, 1), (3, 3), (400, 400)
    qy, qx = qy[pick], qx[pick]
    assert (qy == qx).any() and (qy != qx).any() == tampered_add
    for zy in (codes[:52], codes[-52:]):  # row slices, as the pass takes them
        counts = _central_block(g, images, qy, qx, zy)
        assert (counts == _central_reference(g, images, qy, qx, zy)).all()
        assert counts.any() and not counts.all()


def test_full_scan_drops_the_diagonal_where_the_tables_move_it():
    g = jk_group(3, 0, 1)  # a fresh carrier: the module fixtures stay intact
    # 0 + 0 reads 1: y^-1 y has coset code 1 for y in coset 0, so the pairs
    # (y, y) fall into class pairs, which must still leave them out
    g._add[0] = 1
    f = GroupFunction(g, np.arange(g.order))  # the identity: every qe is qd
    assert _full_scan(g, f) == affine_scan_by_rows(g, f.images)


@settings(deadline=None, max_examples=6)
@given(
    st.sampled_from(["_cocycle", "_neg"]),
    st.integers(min_value=0, max_value=6560),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_central_pairs_read_tampered_cocycle_and_negation_tables(
    table, entry, code, seed
):
    g = jk_group(3, 0, 1)  # a fresh carrier: the module fixtures stay intact
    tampered = getattr(g, table)
    tampered[entry % tampered.size] = code
    rng = np.random.default_rng(seed)
    # images in three cosets, so qe meets both 0 and qd often
    f = rng.integers(0, 3 * 81, size=g.order)
    codes = np.arange(81)
    quotient = _coset_quotient(g, codes[:, None], codes)
    # half the pairs in the coset pair whose computed quotient reads 0
    ys = rng.integers(0, g.order, size=4096)
    qx = np.argmax(quotient[ys // 81] == 0, axis=1)
    xs = np.where(np.arange(ys.size) % 2 == 0, qx * 81 + rng.integers(0, 81, ys.size),
                  rng.integers(0, g.order, ys.size))
    assert (quotient[ys // 81, xs // 81] == 0).mean() >= 0.5
    hit = _pair_hits(g, f, ys, xs) & (ys != xs)
    assert (hit == _whole_element_hits(g, f, ys, xs)).all()
    assert _full_scan(g, GroupFunction(g, f)) == affine_scan_by_rows(g, f)


def test_full_scan_of_a_random_function_runs_in_bounded_memory(g01):
    f = _random_function(g01)  # 4174 of the 6561 element classes occupied
    tracemalloc.start()
    try:
        report = verify_affapp_one(g01, mode="full", function=f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.passed
    # one block of class pairs or of coset pairs at a time; the 6561 x 6561
    # class pairs at once would take 41 MiB of int8 codes
    assert peak < 4 << 20, peak


def test_full_scan_fails_loudly_when_a_row_disagrees(g01, monkeypatch):
    # the rows re-scanned pair by pair to name their hits must match the
    # class counts; here they find none where the counts hold 6560
    monkeypatch.setattr(
        jk, "_pair_hits",
        lambda g, f, ys, xs: np.zeros(np.broadcast_shapes(ys.shape, xs.shape), bool),
    )
    with pytest.raises(AssertionError, match="row 0"):
        verify_affapp_one(g01, IDENTITY_SIGMA, mode="full")


def test_sampled_scan_of_a_tampered_twist_at_p5_is_pinned():
    g = jk_group(5, 0, 1, allow_large=True)
    images = np.array(twist_function(g).images)
    images[: 16 * 625] = np.arange(16 * 625)  # the identity on 16 cosets
    report = verify_affapp_one(
        g, mode="sampled", samples=10**6, seed=0, function=GroupFunction(g, images)
    )
    # seed 0 draws the pairs: the count and the recorded pairs follow
    assert report.pairs_checked == 10**6
    assert report.violations_total == 715
    assert report.violations == (
        (8738, 9551), (6979, 2085), (3313, 3749), (519, 9838), (5445, 2461),
        (644, 6169), (1639, 1871), (9614, 2453), (548, 9461), (6809, 1699),
        (5761, 8075), (3857, 1426), (2612, 4893), (6350, 4760), (6360, 8938),
        (3737, 4447), (3487, 5261), (4014, 7383), (4475, 8490), (5959, 4507),
    )


def test_sampled_certificate_at_p7_runs_in_bounded_memory():
    g = jk_group(7, 0, 1, allow_large=True)
    tracemalloc.start()
    try:
        report = verify_affapp_one(g, mode="sampled", samples=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.pairs_checked == 10**5
    # the twist built inside the call (an int32 outer sum and its 22 MiB
    # copy) and block temporaries; order-length half arrays would add
    # 11 MiB each, an int64 outer sum 44 MiB
    assert peak < 64 << 20, peak


@pytest.fixture(scope="module")
def g7():
    return jk_group(7, 0, 1, allow_large=True)


def test_sampled_certificate_at_p7_holds_one_twist(g7):
    tracemalloc.start()
    try:
        report = verify_affapp_one(g7, mode="sampled", samples=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    # the twist's int32 images (22 MiB), taken over by the map uncopied,
    # and block temporaries; a copy of the images would add 22 MiB
    assert peak < 32 << 20, peak


def test_enapp_zero_scan_at_p7_runs_in_element_blocks(g7):
    tracemalloc.start()
    try:
        report = verify_enapp_zero(g7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.pairs_checked == 7**8
    # the witness's int32 images (22 MiB) and SCAN_BLOCK temporaries; one
    # int64 array over all 7^8 elements would add 44 MiB
    assert peak < 48 << 20, peak


def test_full_scan_is_gated_to_small_primes():
    g = jk_group(5, 0, 1, allow_large=True)
    with pytest.raises(CapacityError):
        verify_affapp_one(g, mode="full")
    report = verify_affapp_one(g, mode="sampled", samples=2_000, seed=3)
    assert report.passed
    with pytest.raises(ParameterError):
        verify_affapp_one(jk_group(3, 0, 1), mode="quick")
    for samples in (0, -7):  # an empty scan would pass vacuously
        with pytest.raises(ParameterError):
            verify_affapp_one(jk_group(3, 0, 1), mode="sampled", samples=samples)


def test_affine_scans_refuse_a_sigma_of_another_prime(g01):
    # with or without a function, the report never carries a mod-5 sigma
    for function in (None, twist_function(g01)):
        for mode in ("full", "sampled"):
            with pytest.raises(ParameterError, match="sigma is mod 5, group needs mod 3"):
                verify_affapp_one(
                    g01, singer_sigma(5), mode=mode, samples=10, function=function
                )


def test_scans_refuse_a_function_of_another_order(g01):
    f = GroupFunction(build_group("cyclic(5)"), range(5))
    for mode in ("full", "sampled"):
        with pytest.raises(ParameterError, match="order 5, jk.3,0,1. has order 6561"):
            verify_affapp_one(g01, mode=mode, samples=10, function=f)
    with pytest.raises(ParameterError, match="order 5"):
        verify_enapp_zero(g01, f)


def test_enapp_zero_scan(g01):
    report = verify_enapp_zero(g01)
    assert report.passed
    assert report.pairs_checked == 6561
    assert report.check == "endo-agreement"
    assert report.sigma is None
    f = jk_enapp_zero_witness(g01)
    scalar = [endo_reachable(g01, x, f.images[x]) for x in range(0, 6561, 41)]
    assert not any(scalar)


def test_enapp_zero_scan_catches_tampering(g01):
    f = jk_enapp_zero_witness(g01)
    images = list(f.images)
    images[5] = 5  # reachable: central arguments can stay put
    report = verify_enapp_zero(g01, GroupFunction(g01, tuple(images)))
    assert not report.passed
    assert report.violations_total == 1
    assert report.violations == ((5, 5),)


def test_enapp_zero_scan_records_violations_across_blocks():
    g = jk_group(5, 0, 1, allow_large=True)
    images = jk_enapp_zero_witness(g).images.copy()
    xs = [5, SCAN_BLOCK - 1, SCAN_BLOCK, 3 * SCAN_BLOCK + 7]
    images[xs] = 0  # the identity is reachable from every argument
    report = verify_enapp_zero(g, GroupFunction(g, images))
    assert report.pairs_checked == 5**8 and report.violations_total == 4
    assert report.violations == tuple((x, 0) for x in xs)

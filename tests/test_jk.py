from __future__ import annotations

import numpy as np
import pytest

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
from groupapprox.jk import _reachable_mask, sample_check_classification


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
    for p in (2, 4, 9):
        with pytest.raises(ParameterError):
            JKParams(p, 0, 1)
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
        report = validate(g, sample_triples=20_000)
        assert report.passed
        assert not report.associativity_exhaustive
        idx = np.arange(g.order)
        assert (g.mul_many(idx, g.inv_many(idx)) == 0).all()
        assert (g.mul_many(g.inv_many(idx), idx) == 0).all()


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
    from groupapprox.jk import _det_mod

    assert _det_mod(digit_matrix, 3) != 0


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


def test_sigma_is_fixed_point_free_on_all_vectors():
    sigma = singer_sigma(3)
    vecs = np.array(np.meshgrid(*[range(3)] * 4, indexing="ij")).reshape(4, -1).T
    fixed = (sigma.apply(vecs) == vecs).all(axis=1)
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
        mask = _reachable_mask(81, np.full(g.order, d), es)
        assert int(mask.sum()) == 2
        assert endo_reachable(g, d, 0) and endo_reachable(g, d, d)
    for d in (81, 4000, 6560):  # noncentral arguments reach center + coset
        mask = _reachable_mask(81, np.full(g.order, d), es)
        assert int(mask.sum()) == 162
        scalar = np.array([endo_reachable(g, d, int(e)) for e in range(0, 6561, 37)])
        assert (scalar == mask[::37]).all()


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


def test_classified_maps_satisfy_homomorphism_law(g01):
    assert sample_check_classification(g01, samples=300, seed=5) == 0


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


def test_full_scan_is_gated_to_small_primes():
    g = jk_group(5, 0, 1, allow_large=True)
    with pytest.raises(CapacityError):
        verify_affapp_one(g, mode="full")
    report = verify_affapp_one(g, mode="sampled", samples=2_000, seed=3)
    assert report.passed
    with pytest.raises(ParameterError):
        verify_affapp_one(jk_group(3, 0, 1), mode="quick")


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

"""One check for every integer argument of the public API
(``errors._integer``): only what ``operator.index`` accepts, except a
bool, is an integer, and nothing is coerced."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from groupapprox import (
    ApproxCertificate,
    GroupCarrier,
    GroupFunction,
    JKParams,
    JKVerification,
    ParameterError,
    agreement_bounds,
    alt,
    brute_force_app,
    build_avoiding_permutation,
    catalog_up_to,
    cyclic,
    cyclic_enapp_witness,
    dicyclic,
    dihedral,
    elemabelian,
    endo_count_bound,
    find_universal_tuple,
    heis,
    jk_group,
    make_sigma,
    modmax,
    prime_square_witness,
    rem_quot_witness,
    singer_sigma,
    sym,
    verify_affapp_one,
    worst_case_upper_bounds,
    worst_case_value,
)
from groupapprox.bounds import ball_size, circle_size
from groupapprox.errors import _integer
from groupapprox.reporting import document_bytes, verify_document

SIGMA = ((0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
FAMILY = [[0, 0], [1, 1], [0, 1]]

# name -> (call of one integer argument, a value it takes)
ARGUMENTS = {
    "circle_size m1": (lambda v: circle_size(v, 3, 2), 4),
    "circle_size m2": (lambda v: circle_size(4, v, 2), 3),
    "circle_size k": (lambda v: circle_size(4, 3, v), 2),
    "ball_size m1": (lambda v: ball_size(v, 3, 2), 4),
    "ball_size m2": (lambda v: ball_size(4, v, 2), 3),
    "ball_size k": (lambda v: ball_size(4, 3, v), 2),
    "agreement_bounds m1": (lambda v: agreement_bounds(v, 3, 1.5), 4),
    "agreement_bounds m2": (lambda v: agreement_bounds(4, v, 1.5), 3),
    "endo_count_bound": (endo_count_bound, 6),
    "worst_case_upper_bounds": (worst_case_upper_bounds, 6),
    "brute_force_app m1": (lambda v: brute_force_app(v, 2, FAMILY), 2),
    "brute_force_app m2": (lambda v: brute_force_app(2, v, FAMILY), 2),
    "GroupCarrier order": (lambda v: GroupCarrier(v, "g", [0]).order, 3),
    "GroupCarrier.power": (lambda v: cyclic(6).power(1, v), 5),
    "cyclic": (cyclic, 6),
    "elemabelian p": (lambda v: elemabelian(v, 2), 3),
    "elemabelian r": (lambda v: elemabelian(2, v), 2),
    "dihedral": (dihedral, 6),
    "dicyclic": (dicyclic, 8),
    "sym": (sym, 3),
    "alt": (alt, 4),
    "heis": (heis, 3),
    "modmax": (modmax, 3),
    "catalog_up_to": (catalog_up_to, 4),
    "JKParams p": (lambda v: JKParams(v, 0, 1), 3),
    "JKParams lam1": (lambda v: JKParams(3, v, 1), 2),
    "JKParams lam2": (lambda v: JKParams(3, 0, v), 1),
    "jk_group p": (lambda v: jk_group(v, 0, 1), 3),
    "jk_group lam1": (lambda v: jk_group(3, v, 1), 1),
    "jk_group lam2": (lambda v: jk_group(3, 1, v), 0),
    "make_sigma": (lambda v: make_sigma(v, SIGMA), 3),
    "singer_sigma": (singer_sigma, 3),
    "verify_affapp_one samples": (
        lambda v: verify_affapp_one(jk_group(3, 0, 1), mode="sampled", samples=v),
        100,
    ),
    "verify_affapp_one seed": (
        lambda v: verify_affapp_one(
            jk_group(3, 0, 1), mode="sampled", samples=100, seed=v
        ),
        7,
    ),
    "find_universal_tuple": (lambda v: find_universal_tuple(cyclic(6), v), 1),
    "worst_case_value budget": (
        lambda v: worst_case_value(cyclic(6), "endo", budget=v), 100
    ),
    "cyclic_enapp_witness": (cyclic_enapp_witness, 5),
    "prime_square_witness": (prime_square_witness, 5),
    "rem_quot_witness p": (lambda v: rem_quot_witness(v, 2), 2),
    "rem_quot_witness k": (lambda v: rem_quot_witness(2, v), 2),
    "build_avoiding_permutation": (
        lambda v: build_avoiding_permutation([[0, v], [2, 3], [4, 5]]), 1
    ),
}


def _key(result):
    """A result in a form == compares: carriers by their tables, functions
    by their images, scans and searches without their timings."""
    if isinstance(result, list):
        return [_key(r) for r in result]
    if isinstance(result, GroupCarrier):
        table = getattr(result, "mul_table", None)
        return (type(result), result.name, result.order, result.generators,
                None if table is None else table.tobytes())
    if isinstance(result, GroupFunction):
        return _key(result.group), result.images.tobytes()
    if isinstance(result, JKVerification):
        return dataclasses.replace(result, elapsed=0.0)
    if isinstance(result, ApproxCertificate):
        return (result.metric, result.exact, result.lower, result.upper,
                _key(result.witness), result.lower_bound,
                result.stats.nodes, result.stats.thresholds)
    return result


@pytest.mark.parametrize("value", [True, 2.5, float("nan"), "3"],
                         ids=["True", "2.5", "nan", "'3'"])
@pytest.mark.parametrize("name", ARGUMENTS)
def test_an_integer_argument_refuses_what_is_not_an_integer(name, value):
    call, _ = ARGUMENTS[name]
    with pytest.raises(ParameterError, match="must be an integer, got"):
        call(value)


@pytest.mark.parametrize("kind", [np.int64, np.int8])
@pytest.mark.parametrize("name", ARGUMENTS)
def test_an_integer_argument_takes_numpy_integers(name, kind):
    # repr, not ==: np.int64(5) == 5, but a result must hold plain ints
    call, value = ARGUMENTS[name]
    assert repr(_key(call(kind(value)))) == repr(_key(call(value)))


@pytest.mark.parametrize("call", [
    lambda: jk_group(3.9, 0, 1),
    lambda: jk_group(3, True, 1),
    lambda: worst_case_value(cyclic(6), "endo", budget=float("nan")),
    lambda: worst_case_value(cyclic(6), "endo", budget=2.5),
    lambda: worst_case_value(cyclic(6), "endo", budget="5"),
    lambda: cyclic(True),
    lambda: cyclic(2.5),
    lambda: dihedral(6.0),
    lambda: sym(3.0),
    lambda: circle_size(4.5, 2, 1),
    lambda: catalog_up_to(7.5),
    lambda: find_universal_tuple(cyclic(6), 1.5),
    lambda: GroupCarrier.power(cyclic(6), 1, 2.5),
    lambda: build_avoiding_permutation([[0, 1.7], [2, 3]]),
])
def test_arguments_once_coerced_or_read_as_numbers_are_refused(call):
    # jk_group read 3.9 as 3 and True as 1, a nan budget searched with no
    # bound, 2.5 elements of a class were read as 2: nothing is coerced
    with pytest.raises(ParameterError):
        call()


def test_a_scan_of_numpy_samples_serializes():
    # pairs_checked was an np.int64, which the JSON writer refused
    report = verify_affapp_one(jk_group(3, 0, 1), mode="sampled",
                               samples=np.int64(1000))
    assert type(report.pairs_checked) is int
    assert b'"pairs_checked": 1000' in document_bytes(verify_document(report))


def test_jk_params_hold_python_ints():
    params = JKParams(np.int64(3), np.int8(1), np.uint8(1))
    assert params == JKParams(3, 1, 1)
    assert all(type(v) is int for v in (params.p, params.lam1, params.lam2))


def test_the_checker_bounds_and_messages():
    assert _integer("n", np.int16(-4)) == -4 and type(_integer("n", 5)) is int
    assert _integer("n", 1, 1) == 1 and _integer("n", 15, 1, 15) == 15
    for value, low, high, message in [
        (True, None, None, "n must be an integer, got True"),
        (np.bool_(False), None, None, "n must be an integer, got np.False_"),
        (1.0, None, None, "n must be an integer, got 1.0"),
        (0, 1, None, "n must be >= 1, got 0"),
        (-1, 0, None, "n must be >= 0, got -1"),
        (0, 1, 15, "n must lie in 1..15, got 0"),
        (16, 1, 15, "n must lie in 1..15, got 16"),
    ]:
        with pytest.raises(ParameterError) as info:
            _integer("n", value, low, high)
        assert str(info.value) == message


from __future__ import annotations

import json

import pytest

from make_golden import PATH, changes, group_records, ops, refusals

GOLDEN = json.loads(PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_op():
    assert len(GOLDEN) == 2 * len(list(ops()))


@pytest.mark.parametrize("spec,budget", list(ops()))
def test_search_results_match_golden(spec, budget):
    for key, got in group_records(spec, budget).items():
        assert got == GOLDEN[key], key


def test_regeneration_lets_an_open_bracket_narrow_or_close():
    old = {"g:endo": {"lower": 4, "upper": 13, "witness": None}}
    narrower = {"g:endo": {"lower": 5, "upper": 9, "witness": None}}
    closed = {"g:endo": {"lower": 5, "upper": 5, "witness": [0, 1]}}
    assert refusals(old, narrower, measure=None) == []
    assert refusals(old, closed, measure=lambda key, w: 5) == []
    assert changes(old, closed) == [
        "g:endo: lower 4 -> 5, upper 13 -> 5, witness None -> [0, 1]"
    ]


def test_regeneration_refuses_a_moved_value_or_a_wider_bracket():
    exact = {"g:endo": {"lower": 3, "upper": 3, "witness": [0, 1]}}
    bracket = {"g:endo": {"lower": 4, "upper": 13, "witness": None}}
    moved = {"g:endo": {"lower": 2, "upper": 2, "witness": [1, 0]}}
    wider = {"g:endo": {"lower": 3, "upper": 14, "witness": None}}
    closed = {"g:endo": {"lower": 5, "upper": 5, "witness": [0, 1]}}
    assert refusals(exact, moved, measure=lambda key, w: 2) == [
        "g:endo: exact value 3 became [2, 2]"
    ]
    assert refusals(exact, bracket, measure=None) == [
        "g:endo: exact value 3 became [4, 13]"
    ]
    assert refusals(bracket, wider, measure=None) == [
        "g:endo: bracket [4, 13] widened to [3, 14]"
    ]
    assert refusals(bracket, closed, measure=lambda key, w: 6) == [
        "g:endo: witness re-measures to 6, not 5"
    ]

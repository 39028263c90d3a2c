from __future__ import annotations

import json

import pytest

from make_golden import PATH, group_records, ops

GOLDEN = json.loads(PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_op():
    assert len(GOLDEN) == 2 * len(list(ops()))


@pytest.mark.parametrize("spec,budget", list(ops()))
def test_search_results_match_golden(spec, budget):
    for key, got in group_records(spec, budget).items():
        assert got == GOLDEN[key], key

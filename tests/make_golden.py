"""Write tests/data/golden.json, the reference results of the search.

Run from anywhere inside a source checkout:

    python tests/make_golden.py

The package is imported from the checkout's ``src`` directory, never from
an installed copy.

The file records, for the catalog of order <= 15 under both metrics (default
budget) and for sixteen budget-capped searches on large families (budget
2,000), the bracket, node count, thresholds, witness images and lower-bound
certificate of ``worst_case_value``.  ``tests/test_golden.py`` recomputes
every entry and requires equality.  An exact value never changes and a
bracket never widens; an open bracket may narrow, or close on a witness
that re-measures to its value.  Nodes, thresholds and witnesses change
only with the branching order of the search or its pins, nodes alone
with its symmetry pruning, and the file is then regenerated with this
script.

The script prints every record that differs from the existing file,
field by field, and refuses to write, exiting 1, when an exact value
changes, a bracket widens, or an exact record with a new witness does not
re-measure to its value with ``approximability``; else it writes the file
and exits 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from groupapprox import (
    GroupFunction,
    approximability,
    build_group,
    catalog_up_to,
    worst_case_value,
)
from groupapprox.search import DEFAULT_BUDGET, METRICS

PATH = Path(__file__).resolve().parent / "data" / "golden.json"

LARGE_FAMILY_GROUPS = (
    "elemabelian(2,4)",
    "elemabelian(3,3)",
    "heis(3)",
    "elemabelian(5,2)",
    "product(dihedral(8),cyclic(2))",
    "dihedral(32)",
    "cyclic(64)",
    "sym(4)",
)
LARGE_FAMILY_BUDGET = 2000


def ops():
    """(spec, budget) for every group of the golden file, in file order."""
    yield from ((g.name, DEFAULT_BUDGET) for g in catalog_up_to(15))
    yield from ((spec, LARGE_FAMILY_BUDGET) for spec in LARGE_FAMILY_GROUPS)


def record(g, metric: str, budget: int) -> dict:
    cert = worst_case_value(g, metric, budget=budget)
    lb = cert.lower_bound
    return {
        "lower": cert.lower,
        "upper": cert.upper,
        "nodes": cert.stats.nodes,
        "thresholds": list(cert.stats.thresholds),
        "witness": None if cert.witness is None else cert.witness.images.tolist(),
        "lower_bound": {
            "value": lb.value,
            "kind": lb.kind,
            "evidence": None if lb.evidence is None else list(lb.evidence),
        },
    }


def group_records(spec: str, budget: int) -> dict:
    """Both metrics' records for one group, on one carrier."""
    g = build_group(spec)
    return {f"{spec}:{metric}": record(g, metric, budget) for metric in METRICS}


def remeasure(key: str, witness: list[int]) -> int:
    """The best agreement of a record's witness with its family, on a new
    carrier."""
    spec, metric = key.rsplit(":", 1)
    return approximability(GroupFunction(build_group(spec), witness), metric)[0]


def changes(old: dict, new: dict) -> list[str]:
    """One line per record of new that differs from old, with each field
    that moved, and one per record of old that new drops."""
    lines = []
    for key, rec in new.items():
        was = old.get(key)
        if was is None:
            lines.append(f"{key}: new record")
        elif rec != was:
            moved = ", ".join(f"{f} {was.get(f)} -> {rec[f]}"
                              for f in rec if rec[f] != was.get(f))
            lines.append(f"{key}: {moved}")
    lines.extend(f"{key}: dropped" for key in old if key not in new)
    return lines


def refusals(old: dict, new: dict, measure=remeasure) -> list[str]:
    """Why new may not replace old, one line per reason: an exact value
    that changed, a bracket that widened, or an exact record with a new
    witness that ``measure(key, witness)`` does not re-measure to its
    value."""
    lines = []
    for key, rec in new.items():
        lo, hi = rec["lower"], rec["upper"]
        was = old.get(key)
        if was is not None:
            before = [was["lower"], was["upper"]]
            if before[0] == before[1] and [lo, hi] != before:
                lines.append(f"{key}: exact value {before[0]} became [{lo}, {hi}]")
            elif lo < before[0] or hi > before[1]:
                lines.append(f"{key}: bracket {before} widened to [{lo}, {hi}]")
        if lo == hi and (was is None or rec["witness"] != was["witness"]):
            got = measure(key, rec["witness"])
            if got != lo:
                lines.append(f"{key}: witness re-measures to {got}, not {lo}")
    return lines


def main() -> int:
    old = json.loads(PATH.read_text(encoding="utf-8")) if PATH.exists() else {}
    golden = {}
    for spec, budget in ops():
        golden.update(group_records(spec, budget))
    for line in changes(old, golden):
        print(line)
    refused = refusals(old, golden)
    if refused:
        for line in refused:
            print(f"refused: {line}")
        print(f"{PATH} left as it is")
        return 1
    PATH.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(key)}: {json.dumps(rec)}" for key, rec in golden.items()]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} records to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

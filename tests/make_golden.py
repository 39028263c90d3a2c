"""Write tests/data/golden.json, the reference results of the search.

Run from anywhere inside a source checkout:

    python tests/make_golden.py

The package is imported from the checkout's ``src`` directory, never from
an installed copy.

The file records, for the catalog of order <= 15 under both metrics (default
budget) and for sixteen budget-capped searches on large families (budget
2,000), the bracket, node count, thresholds, witness images and lower-bound
certificate of ``worst_case_value``.  ``tests/test_golden.py`` recomputes
every entry and requires equality.  Values and brackets never change;
nodes, thresholds and witnesses change only with the branching order of
the search, nodes alone with its symmetry pruning, and the file is then
regenerated with this script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from groupapprox import build_group, catalog_up_to, worst_case_value
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


def main() -> int:
    golden = {}
    for spec, budget in ops():
        golden.update(group_records(spec, budget))
    PATH.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(key)}: {json.dumps(rec)}" for key, rec in golden.items()]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} records to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""JSON report documents and the on-disk result cache.

Every command emits exactly one JSON document (UTF-8, key-sorted,
kind-tagged); human-readable tables printed to standard output are derived
views of the same data.  Exact computation results are cached on disk,
content-addressed by (tool version, group spec string, metric) — the spec
string, not the canonicalized group, since isomorphism testing is out of
scope — plus the bytes of every file a ``file(...)`` spec reads.  Those
paths come from ``groups._spec_files``, the spec reader's own tree, so this
module does not know the spec grammar.  Cache writes go through a temp
file and an atomic rename; corrupt cache entries are reported on stderr
and recomputed.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from .bounds import BoundReport
from .errors import ParameterError
from .groups import _spec_files
from .jk import JKVerification
from .morphisms import GroupFunction
from .search import ApproxCertificate

__all__ = [
    "TOOL_VERSION",
    "bounds_document",
    "cache_dir",
    "cache_get",
    "cache_key",
    "cache_put",
    "compute_document",
    "document_bytes",
    "metric_label",
    "parse_metric_label",
    "partition_document",
    "table_document",
    "table_row",
    "table_text",
    "verify_document",
    "witness_document",
    "write_document",
]

# part of every cache key, so a change to a document's fields bumps it and
# older cache entries are not served
TOOL_VERSION = "0.2.0"

CACHE_ENV = "GROUPAPPROX_CACHE_DIR"

# user-facing metric names vs the internal family tags
_LABELS = {"endo": "enapp", "affine": "affapp"}
_TAGS = {v: k for k, v in _LABELS.items()}


def metric_label(metric: str) -> str:
    return _LABELS[metric]


def parse_metric_label(label: str) -> str:
    if label in _TAGS:
        return _TAGS[label]
    if label in _LABELS:  # already an internal tag
        return label
    raise ParameterError(
        f"metric must be one of {tuple(_TAGS)}, got {label!r}"
    )


# --------------------------------------------------------------------------
# document builders
# --------------------------------------------------------------------------

def compute_document(spec: str, cert: ApproxCertificate) -> dict:
    lb = cert.lower_bound
    return {
        "kind": "compute",
        "version": TOOL_VERSION,
        "group": spec,
        "order": cert.group.order,
        "metric": metric_label(cert.metric),
        "exact": cert.exact,
        "value": cert.value,
        "lower": cert.lower,
        "upper": cert.upper,
        "lower_bound": {
            "value": lb.value,
            "kind": lb.kind,
            "evidence": None if lb.evidence is None else list(lb.evidence),
        },
        "witness": None if cert.witness is None else cert.witness.images.tolist(),
        "stats": {
            "nodes": cert.stats.nodes,
            "elapsed_s": round(cert.stats.elapsed, 6),
            "thresholds": list(cert.stats.thresholds),
            "symmetries": cert.stats.symmetries,
        },
        "cached": False,
    }


def table_document(max_order: int, rows: list[dict]) -> dict:
    return {
        "kind": "table",
        "version": TOOL_VERSION,
        "max_order": max_order,
        "rows": rows,
    }


def table_row(spec: str, name: str, order: int,
              endo_cert: ApproxCertificate, affine_cert: ApproxCertificate) -> dict:
    def cell(cert: ApproxCertificate) -> dict:
        return {
            "value": cert.value,
            "exact": cert.exact,
            "lower": cert.lower,
            "upper": cert.upper,
        }

    return {
        "spec": spec,
        "name": name,
        "order": order,
        "enapp": cell(endo_cert),
        "affapp": cell(affine_cert),
    }


def table_text(doc: dict) -> str:
    """Fixed-width human view of a table document (deterministic bytes)."""
    headers = ("group", "order", "enapp", "affapp")
    lines = []
    rows = []
    for row in doc["rows"]:
        def show(cell: dict) -> str:
            if cell["exact"]:
                return str(cell["value"])
            return f"[{cell['lower']},{cell['upper']}]"

        rows.append(
            (row["name"], str(row["order"]), show(row["enapp"]), show(row["affapp"]))
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(4)
    ]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip())
    return "\n".join(lines) + "\n"


def verify_document(report: JKVerification) -> dict:
    return {
        "kind": "verify-jk",
        "version": TOOL_VERSION,
        "p": report.params.p,
        "lambda": [report.params.lam1, report.params.lam2],
        "check": report.check,
        "mode": report.mode,
        "sigma": None if report.sigma is None else [list(r) for r in report.sigma],
        "pairs_checked": report.pairs_checked,
        "violations": [list(v) for v in report.violations],
        "violations_total": report.violations_total,
        "elapsed_s": round(report.elapsed, 6),
        "passed": report.passed,
    }


def bounds_document(report: BoundReport) -> dict:
    return {
        "kind": "bounds",
        "version": TOOL_VERSION,
        "m1": report.m1,
        "m2": report.m2,
        "fval": report.fval,
        "log_ratio": report.log_ratio,
        "gamma": list(report.gamma),
        "nu": list(report.nu),
        "lower": {
            "num": report.lower.numerator,
            "den": report.lower.denominator,
        },
        "upper": report.upper,
        "upper_branch": report.upper_branch,
    }


def partition_document(classes: list[list[int]], perm: tuple[int, ...] | None) -> dict:
    return {
        "kind": "partition-avoid",
        "version": TOOL_VERSION,
        "classes": [list(c) for c in classes],
        "feasible": perm is not None,
        "permutation": None if perm is None else list(perm),
    }


def witness_document(name: str, spec: str, fn: GroupFunction,
                     metric: str, agreement: int) -> dict:
    return {
        "kind": "witness",
        "version": TOOL_VERSION,
        "name": name,
        "group": spec,
        "order": fn.group.order,
        "images": fn.images.tolist(),
        "metric": metric_label(metric),
        "agreement": agreement,
    }


def document_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_document(doc: dict, path: str | os.PathLike) -> None:
    Path(path).write_bytes(document_bytes(doc))


# --------------------------------------------------------------------------
# result cache
# --------------------------------------------------------------------------

def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "groupapprox"


def _file_digests(spec: str) -> list[str]:
    """sha256 of each file a spec reads, so that rewriting the table behind
    a ``file(...)`` spec changes its cache key.  An unreadable file gets a
    marker no readable file can give, and ``build_group`` reports it."""
    import hashlib  # deferred: it loads OpenSSL, which only the cache needs

    digests = []
    for path in _spec_files(spec):
        try:
            digests.append(hashlib.sha256(Path(path).read_bytes()).hexdigest())
        except OSError:
            digests.append("unreadable")
    return digests


def cache_key(spec: str, metric: str) -> str:
    import hashlib

    label = metric_label(metric) if metric in _LABELS else metric
    blob = "|".join([TOOL_VERSION, spec, label] + _file_digests(spec))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_get(spec: str, metric: str) -> dict | None:
    path = cache_dir() / (cache_key(spec, metric) + ".json")
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}",
              file=sys.stderr)
        return None
    if not isinstance(doc, dict) or not doc.get("exact"):
        print(f"warning: ignoring malformed cache entry {path}", file=sys.stderr)
        return None
    return doc


def cache_put(spec: str, metric: str, doc: dict) -> None:
    if not doc.get("exact"):
        return  # only exact results are worth pinning
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (cache_key(spec, metric) + ".json")
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(document_bytes(doc))
    os.replace(tmp, path)

"""The four benchmark workloads: inputs, one pass, and the output checks.

Each workload is built from the seed (the set-up the benchmark times) and
then runs whole passes.  A pass calls the package's public functions the
way the command line does; every op is timed on its own and checked right
after it ran, outside the timed region, so that the check neither counts
towards ``solve_s`` nor keeps a carrier alive longer than the program would.

The traced pass additionally warms each carrier's caches through public
calls (``enumerate_endomorphisms``, ``family_tables``) and computes
``lower_bound_certificates`` once more on its own, so that the span around
``worst_case_value`` is mostly search.  The untraced pass calls only what
the command line calls.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import re
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import groupapprox as ga
from groupapprox import reporting
from groupapprox.jk import DEFAULT_SAMPLES
from groupapprox.search import DEFAULT_BUDGET, METRICS, family_tables

from pins import CATALOG, LARGE_FAMILY_EXACT

# counts that must repeat exactly for the same code and seed
EXACT_COUNTS = (
    "search.nodes",
    "search.thresholds",
    "search.budget_exhausted",
    "morphisms.endos",
    "morphisms.table_bytes",
    "jk.pairs",
    "jk.violations",
    "bounds.brute_force_calls",
    "bounds.rows",
    "groups.builds",
    "reporting.cache_hits",
)


@dataclass
class OpRecord:
    op: str
    latency_s: float
    samples: tuple[int, int] = (0, 0)  # range of speed-probe samples taken
    scale: float = 1.0  # reference-speed factor, set once the pass ends
    exact: bool = False
    open_values: int = 1
    failures: list[str] = field(default_factory=list)


class Pass:
    """One pass: timed ops, their checks, and the layer counts.  Ops are
    timed with ``clock``, which leaves out the speed probe's time, and
    note which of the probe's ``samples`` were taken while they ran."""

    def __init__(self, tracer, clock=time.perf_counter, samples=()):
        self.tr = tracer
        self.clock = clock
        self.samples = samples
        self.ops: list[OpRecord] = []
        self.counts: Counter = Counter({k: 0 for k in EXACT_COUNTS})
        self.counts["reporting.document_bytes"] = 0
        self.step_s = 0.0
        self.scale = 1.0  # reference-speed factor, known once the pass ends
        self.failures: list[str] = []

    def op(self, op_id: str, run, check):
        """Time run(), then check its result with check(value, record).
        An op that raises is recorded as failed and the pass goes on."""
        self.tr.op = op_id
        first = len(self.samples)
        t0 = self.clock()
        try:
            with self.tr.span("bench.op"):
                value = run()
        except Exception:
            rec = OpRecord(op_id, self.clock() - t0, (first, len(self.samples)))
            rec.failures.append(traceback.format_exc(limit=3).strip())
            self.ops.append(rec)
            return
        rec = OpRecord(op_id, self.clock() - t0, (first, len(self.samples)))
        self.ops.append(rec)
        try:
            check(value, rec)
        except Exception:
            rec.failures.append("check raised: " + traceback.format_exc(limit=3).strip())

    def step(self, label: str, run):
        """Timed pass-level work that is not an op, such as the table document."""
        self.tr.op = label
        t0 = self.clock()
        try:
            return run()
        except Exception:
            self.failures.append(f"{label}: " + traceback.format_exc(limit=3).strip())
            return None
        finally:
            self.step_s += self.clock() - t0

    @property
    def solve_s(self) -> float:
        return sum(r.latency_s for r in self.ops) + self.step_s

    @property
    def scaled_solve_s(self) -> float:
        return sum(r.latency_s * r.scale for r in self.ops) + self.step_s * self.scale


# --------------------------------------------------------------------------
# calls shared by the group workloads
# --------------------------------------------------------------------------

def _build(p: Pass, spec: str):
    p.counts["groups.builds"] += 1
    with p.tr.span("groups.build"):
        return ga.build_group(spec)


def _solve(p: Pass, g, metric: str, budget: int):
    tr = p.tr
    if tr.enabled:
        with tr.span("morphisms.enumerate"):
            ga.enumerate_endomorphisms(g)
        with tr.span("morphisms.tables"):
            family_tables(g, metric)
        with tr.span("search.lower_bound"):
            ga.lower_bound_certificates(g)
    with tr.span("search.worst_case_value"):
        return ga.worst_case_value(g, metric, budget=budget)


def _count_search(p: Pass, g, metric: str, cert, enumerated: bool) -> None:
    """Counts for one search; enumerated says whether this op paid for the
    carrier's endomorphism enumeration (a carrier enumerates once)."""
    p.counts["search.nodes"] += cert.stats.nodes
    p.counts["search.thresholds"] += len(cert.stats.thresholds)
    p.counts["search.budget_exhausted"] += not cert.exact
    # both are cached on the carrier by the search, so this re-reads them
    if enumerated:
        p.counts["morphisms.endos"] += len(ga.enumerate_endomorphisms(g))
    p.counts["morphisms.table_bytes"] += family_tables(g, metric).nbytes


def _remeasure(g, metric: str, cert) -> str | None:
    """Recount the witness's best agreement against the family tables."""
    tables = family_tables(g, metric)
    images = np.asarray(cert.witness.images, dtype=tables.dtype)
    best = int((tables == images[None, :]).sum(axis=1).max())
    if best != cert.lower:
        return f"witness re-measures to {best}, certificate says {cert.lower}"
    return None


def readme_values(root: Path) -> dict[str, tuple[int, int, int]]:
    """The README's computed-values table, spec -> (order, enapp, affapp)."""
    path = root / "README.md"
    if not path.exists():
        return {}
    row = re.compile(r"^\|\s*(\S+)\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|\s*$")
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        m = row.match(line)
        if m:
            out[m.group(1)] = tuple(int(m.group(i)) for i in (2, 3, 4))
    return out


class Workload:
    """Defaults for the workloads below.  Each makes its inputs from the
    seed in ``__init__`` and runs and checks one pass in ``run_pass``."""

    setup_failures = ()  # problems found while making the inputs

    def final_checks(self) -> list[str]:
        """Checks made once, after the last pass."""
        return []


# --------------------------------------------------------------------------
# catalog: the `table --max-order 15` path
# --------------------------------------------------------------------------

class Catalog(Workload):
    """Search-bound: the whole catalog computes exactly with small families."""

    name = "catalog"

    def __init__(self, seed: int, smoke: bool, root: Path):
        self.max_order = 7 if smoke else 15
        self.specs = [s for s, (n, _, _) in CATALOG.items() if n <= self.max_order]
        self.order = list(self.specs)
        random.Random(seed).shuffle(self.order)
        self.params = {
            "max_order": self.max_order,
            "groups": len(self.specs),
            "ops_per_pass": 2 * len(self.specs),
            "budget": DEFAULT_BUDGET,
        }
        self.setup_failures = []
        readme = readme_values(root)
        for spec, pinned in CATALOG.items():
            if spec in readme and readme[spec] != pinned:
                self.setup_failures.append(
                    f"README lists {spec} as {readme[spec]}, pinned {pinned}"
                )

    def run_pass(self, p: Pass) -> None:
        certs = {}
        for spec in self.order:
            carrier = {}  # one fresh carrier per group, shared by both metrics
            for metric in METRICS:
                def run(spec=spec, metric=metric, carrier=carrier):
                    if "g" not in carrier:
                        carrier["g"] = _build(p, spec)
                    return carrier["g"], _solve(p, carrier["g"], metric, DEFAULT_BUDGET)

                def check(value, rec, spec=spec, metric=metric):
                    g, cert = value
                    _count_search(p, g, metric, cert, enumerated=metric == METRICS[0])
                    want = CATALOG[spec][1 if metric == "endo" else 2]
                    rec.exact = cert.exact
                    rec.open_values = cert.upper - cert.lower + 1
                    if not cert.exact:
                        rec.failures.append(f"not exact: [{cert.lower},{cert.upper}]")
                    elif cert.value != want:
                        rec.failures.append(f"value {cert.value}, pinned {want}")
                    else:
                        bad = _remeasure(g, metric, cert)
                        if bad:
                            rec.failures.append(bad)
                    certs[(spec, metric)] = (g.order, cert)

                p.op(f"{spec}:{metric}", run, check)

        def document():
            with p.tr.span("reporting.document"):
                rows = [
                    reporting.table_row(spec, spec, certs[(spec, "endo")][0],
                                        certs[(spec, "endo")][1],
                                        certs[(spec, "affine")][1])
                    for spec in self.specs
                ]
                doc = reporting.table_document(self.max_order, rows)
                return doc, reporting.table_text(doc)

        if len(certs) < 2 * len(self.specs):
            p.failures.append("table document skipped: some ops failed")
            return
        out = p.step("table-document", document)
        if out is None:
            return
        doc, text = out
        p.counts["reporting.document_bytes"] += len(text.encode("utf-8"))
        lines = text.splitlines()
        if len(lines) != len(self.specs) + 1:
            p.failures.append(f"table text has {len(lines)} lines")
        for row, line in zip(doc["rows"], lines[1:]):
            _, e, a = CATALOG[row["spec"]]
            if line.split()[-2:] != [str(e), str(a)]:
                p.failures.append(f"table line {line!r}, pinned {e} {a}")

    def final_checks(self) -> list[str]:
        names = [g.name for g in ga.catalog_up_to(self.max_order)]
        if names != self.specs:
            return [f"catalog_up_to({self.max_order}) lists {names}"]
        return []


# --------------------------------------------------------------------------
# large-family: separate `compute --budget B` calls
# --------------------------------------------------------------------------

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


class LargeFamily(Workload):
    """Enumeration-bound: big endomorphism families, budget-capped searches."""

    name = "large-family"

    def __init__(self, seed: int, smoke: bool, root: Path):
        self.budget = 50 if smoke else 2000
        self.ops = [(s, m) for s in LARGE_FAMILY_GROUPS for m in METRICS]
        random.Random(seed).shuffle(self.ops)
        self.params = {
            "groups": list(LARGE_FAMILY_GROUPS),
            "ops_per_pass": len(self.ops),
            "budget_nodes_per_op": self.budget,
        }

    def run_pass(self, p: Pass) -> None:
        for spec, metric in self.ops:
            # carriers hold reference cycles (maps point back to their group),
            # so free the previous op's carrier now, as a separate process
            # would; this is outside the timed op
            gc.collect()

            def run(spec=spec, metric=metric):
                spec = ga.canonical_spec(spec)
                with p.tr.span("reporting.cache"):
                    cached = reporting.cache_get(spec, metric)
                if cached is not None:
                    return spec, None, None, cached, 0
                g = _build(p, spec)
                cert = _solve(p, g, metric, self.budget)
                with p.tr.span("reporting.document"):
                    doc = reporting.compute_document(spec, cert)
                    size = len(reporting.document_bytes(doc))
                if cert.exact:
                    with p.tr.span("reporting.cache"):
                        reporting.cache_put(spec, metric, doc)
                return spec, g, cert, doc, size

            def check(value, rec, metric=metric):
                spec, g, cert, doc, size = value
                if cert is None:
                    p.counts["reporting.cache_hits"] += 1
                    rec.failures.append("cache hit: the run's cache was not fresh")
                    return
                _count_search(p, g, metric, cert, enumerated=True)
                p.counts["reporting.document_bytes"] += size
                rec.exact = cert.exact
                rec.open_values = cert.upper - cert.lower + 1
                if not cert.lower <= cert.upper:
                    rec.failures.append(f"bracket [{cert.lower},{cert.upper}]")
                pinned = LARGE_FAMILY_EXACT.get((spec, metric))
                if pinned is not None and not cert.lower <= pinned <= cert.upper:
                    rec.failures.append(
                        f"pinned value {pinned} outside [{cert.lower},{cert.upper}]"
                    )
                if cert.exact:
                    bad = _remeasure(g, metric, cert)
                    if bad:
                        rec.failures.append(bad)
                    stored = reporting.cache_get(spec, metric)
                    if stored is None or stored["value"] != cert.value:
                        rec.failures.append("cache entry missing or different")
                if (doc["exact"], doc["lower"], doc["upper"]) != (
                    cert.exact, cert.lower, cert.upper
                ):
                    rec.failures.append("document disagrees with certificate")

            p.op(f"{spec}:{metric}", run, check)


# --------------------------------------------------------------------------
# jk-scan: the `verify-jk` path
# --------------------------------------------------------------------------

JK3_PAIRS = 6561 * 6560


class JKScan(Workload):
    """JK carrier arithmetic only: no search, no enumeration."""

    name = "jk-scan"

    def __init__(self, seed: int, smoke: bool, root: Path):
        self.seed = seed
        self.samples = 10**4 if smoke else 10**6
        # op -> pairs (or arguments) its scan must check
        self.expected = {
            "jk3-affine-full": JK3_PAIRS,
            "jk3-endo": 6561,
            "jk5-affine-sampled": self.samples,
        }
        self.params = {
            "jk3_full_pairs": JK3_PAIRS,
            "jk5_sampled_pairs": self.samples,
            "sample_seed": seed,
        }

    def _scan(self, p: Pass, op: str):
        tr = p.tr
        p5 = op.startswith("jk5")
        p.counts["groups.builds"] += 1
        with tr.span("groups.build"):
            g = ga.jk_group(5 if p5 else 3, 0, 1, allow_large=p5)
        fn = None
        if op == "jk3-endo":
            if tr.enabled:
                with tr.span("jk.twist"):
                    fn = ga.jk_enapp_zero_witness(g)
            with tr.span("jk.scan"):
                report = ga.verify_enapp_zero(g, fn)
        else:
            with tr.span("jk.twist"):
                sigma = ga.singer_sigma(g.p)
                if tr.enabled:
                    fn = ga.twist_function(g, sigma)
            mode = "sampled" if p5 else "full"
            samples = self.samples if p5 else DEFAULT_SAMPLES
            seed = self.seed if p5 else 0
            with tr.span("jk.scan"):
                report = ga.verify_affapp_one(
                    g, sigma, mode=mode, samples=samples, seed=seed, function=fn
                )
        with tr.span("reporting.document"):
            doc = reporting.verify_document(report)
            size = len(reporting.document_bytes(doc))
        return report, doc, size

    def run_pass(self, p: Pass) -> None:
        expected = self.expected
        for op in expected:
            def check(value, rec, op=op):
                report, doc, size = value
                p.counts["jk.pairs"] += report.pairs_checked
                p.counts["jk.violations"] += report.violations_total
                p.counts["reporting.document_bytes"] += size
                if report.pairs_checked != expected[op]:
                    rec.failures.append(
                        f"{report.pairs_checked} pairs, expected {expected[op]}"
                    )
                if report.violations_total or not report.passed:
                    rec.failures.append(f"{report.violations_total} violations")
                if (doc["pairs_checked"], doc["passed"]) != (
                    report.pairs_checked, report.passed
                ):
                    rec.failures.append("document disagrees with report")
                rec.exact = not rec.failures

            p.op(op, lambda op=op: self._scan(p, op), check)


# --------------------------------------------------------------------------
# counting-grid: criterion 6's shape grid
# --------------------------------------------------------------------------

ORACLE_MAX_ROWS = 4096  # shapes small enough for the exhaustive re-solve
ORACLE_FAMILIES = 2     # families per such shape that are re-solved


def oracle_app(m1: int, m2: int, family) -> int:
    """min over all m2^m1 functions of the max agreement, exhaustively."""
    funcs = np.array(list(itertools.product(range(m2), repeat=m1)), dtype=np.int64)
    fam = np.asarray(family, dtype=np.int64)
    agree = (funcs[:, None, :] == fam[None, :, :]).sum(axis=2).max(axis=1)
    return int(agree.min())


class CountingGrid(Workload):
    """Thousands of tiny min-max solves on the counting-bounds engine."""

    name = "counting-grid"

    def __init__(self, seed: int, smoke: bool, root: Path):
        families = 1 if smoke else 20
        shapes = [
            (m1, m2) for m2 in range(2, 11) for m1 in range(2, 21)
            if m2**m1 <= 10**6
        ]
        rng = np.random.default_rng(seed)
        self.ops = []
        for m1, m2 in shapes:
            constants = [[c] * m1 for c in range(m2)]
            for i in range(families):
                family = constants + [
                    [int(v) for v in rng.integers(0, m2, size=m1)] for _ in range(3)
                ]
                fval = math.log(len(family)) / math.log(m2)
                self.ops.append((m1, m2, i, family, fval))
        self.params = {
            "shapes": len(shapes),
            "families_per_shape": families,
            "random_maps_per_family": 3,
            "ops_per_pass": len(self.ops),
            "oracle_max_rows": ORACLE_MAX_ROWS,
            "oracle_families_per_shape": ORACLE_FAMILIES,
        }
        self.setup_failures = [] if len(shapes) == 71 else [f"{len(shapes)} shapes != 71"]

    def run_pass(self, p: Pass) -> None:
        for m1, m2, i, family, fval in self.ops:
            def run(m1=m1, m2=m2, family=family, fval=fval):
                with p.tr.span("bounds.agreement_bounds"):
                    rep = ga.agreement_bounds(m1, m2, fval)
                with p.tr.span("bounds.brute_force"):
                    val = ga.brute_force_app(m1, m2, family)
                return rep, val

            def check(value, rec, m1=m1, m2=m2, i=i, family=family):
                rep, val = value
                p.counts["bounds.brute_force_calls"] += 1
                p.counts["bounds.rows"] += m2**m1
                rec.exact = True
                if not rep.lower <= val <= rep.upper + 1e-9:
                    rec.failures.append(
                        f"{val} outside [{float(rep.lower):.3f}, {rep.upper:.3f}]"
                    )
                if m2**m1 <= ORACLE_MAX_ROWS and i < ORACLE_FAMILIES:
                    want = oracle_app(m1, m2, family)
                    if val != want:
                        rec.failures.append(f"value {val}, exhaustive oracle {want}")

            p.op(f"({m1},{m2})#{i}", run, check)


WORKLOADS = {w.name: w for w in (Catalog, LargeFamily, JKScan, CountingGrid)}

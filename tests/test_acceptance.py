"""End-to-end acceptance checks for the finished tool.

Each test exercises one advertised behavior at its stated tolerance and
prints a single ``ACCEPTANCE <n> <slug>: PASS|FAIL (...)`` line (kept
visible under pytest's capture) before asserting, so a full run yields a
one-line verdict per criterion.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from groupapprox import (
    GroupFunction,
    agreement_bounds,
    approximability,
    automorphism_orbits,
    brute_force_app,
    build_avoiding_permutation,
    catalog_up_to,
    cyclic_enapp_witness,
    difference_criterion,
    find_universal_tuple,
    jk_group,
    jk_pth_power,
    lower_bound_certificates,
    prime_square_witness,
    rem_quot_witness,
    small_group_witnesses,
    universal_elements,
    worst_case_upper_bounds,
    worst_case_value,
)
from groupapprox.cli import main
from groupapprox.search import family_tables

from _oracles import (
    all_set_partitions,
    avoiding_exists_brute,
    cached_group,
    perm_avoids,
)


def report(capsys, num: int, slug: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL (" + "; ".join(failures) + ")"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {slug}: {status}", flush=True)
    assert not failures, f"criterion {num} ({slug}): {failures}"


# --------------------------------------------------------------------------
# 1: the catalog table of exact worst-case values up to order 7
# --------------------------------------------------------------------------

EXPECTED_TABLE7 = (
    ("cyclic(1)", 1, 1, 1),
    ("cyclic(2)", 2, 1, 2),
    ("cyclic(3)", 3, 1, 2),
    ("cyclic(4)", 4, 1, 2),
    ("elemabelian(2,2)", 4, 2, 3),
    ("cyclic(5)", 5, 1, 2),
    ("cyclic(6)", 6, 1, 2),
    ("sym(3)", 6, 0, 2),
    ("cyclic(7)", 7, 1, 2),
)

_TABLE7: dict = {}


def _catalog_table7(tmp_path) -> dict:
    if "doc" not in _TABLE7:
        out = tmp_path / "table7.json"
        t0 = time.perf_counter()
        _TABLE7["code"] = main(["table", "--max-order", "7", "--out", str(out)])
        _TABLE7["elapsed"] = time.perf_counter() - t0
        _TABLE7["doc"] = json.loads(out.read_text())
    return _TABLE7


def test_criterion_1_catalog_table(tmp_path, capsys):
    failures = []
    info = _catalog_table7(tmp_path)
    text = capsys.readouterr().out
    if info["code"] != 0:
        failures.append(f"exit code {info['code']}")
    if not text.startswith("group"):
        failures.append("no text table on stdout")
    if info["elapsed"] >= 120:
        failures.append(f"took {info['elapsed']:.1f}s, limit 120s")
    rows = info["doc"]["rows"]
    if len(rows) != len(EXPECTED_TABLE7):
        failures.append(f"{len(rows)} rows != {len(EXPECTED_TABLE7)}")
    for row, (name, order, enapp, affapp) in zip(rows, EXPECTED_TABLE7):
        if row["name"] != name or row["order"] != order:
            failures.append(f"row {row['name']}/{row['order']}: expected {name}/{order}")
            continue
        for metric, want in (("enapp", enapp), ("affapp", affapp)):
            cell = row[metric]
            if not cell["exact"]:
                failures.append(f"{name} {metric} not exact")
            elif cell["value"] != want:
                failures.append(f"{name} {metric} = {cell['value']} != {want}")
    report(capsys, 1, "catalog-table", failures)


# --------------------------------------------------------------------------
# 2: the order-3^8 constructions, scanned in full
# --------------------------------------------------------------------------

def test_criterion_2_order_3_8_scans(tmp_path, capsys):
    failures = []
    t0 = time.perf_counter()
    # (a) the p-th-power formula against literal 3-fold multiplication
    for lam in ((0, 1), (1, 1)):
        g = jk_group(3, *lam)
        idx = np.arange(g.order, dtype=np.int64)
        cubes = g.mul_many(g.mul_many(idx, idx), idx)
        wrong = int(np.count_nonzero(cubes != jk_pth_power(g, idx)))
        if wrong:
            failures.append(f"lambda={lam}: power formula wrong at {wrong} of 6561")
    # (b) no affine map agrees twice: full scan over all ordered pairs
    out = tmp_path / "affine.json"
    code = main(["verify-jk", "--p", "3", "--lambda", "0,1", "--mode", "full",
                 "--out", str(out)])
    doc = json.loads(out.read_text())
    if code != 0 or not doc["passed"]:
        failures.append(f"affine scan: exit {code}, "
                        f"{doc['violations_total']} violations")
    if doc["pairs_checked"] != 6561 * 6560:
        failures.append(f"affine scan covered {doc['pairs_checked']} pairs")
    # (c) the endomorphism-dodging witness: full scan over all arguments
    out2 = tmp_path / "endo.json"
    code = main(["verify-jk", "--p", "3", "--lambda", "0,1", "--check", "endo",
                 "--out", str(out2)])
    doc2 = json.loads(out2.read_text())
    if code != 0 or not doc2["passed"] or doc2["pairs_checked"] != 6561:
        failures.append("endo-dodging witness scan failed")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        failures.append(f"took {elapsed:.0f}s, limit 600s")
    capsys.readouterr()
    report(capsys, 2, "order-3^8-scans", failures)


# --------------------------------------------------------------------------
# 3: structural lower-bound certificates
# --------------------------------------------------------------------------

def test_criterion_3_lower_bound_certificates(capsys):
    failures = []
    # universal r-tuples on (Z/2)^r force endo >= r and affine >= r+1
    for r in (2, 3):
        g = cached_group(f"elemabelian(2,{r})")
        if find_universal_tuple(g, r) is None:
            failures.append(f"no universal {r}-tuple on elemabelian(2,{r})")
        lb = lower_bound_certificates(g)
        if lb["endo"].value < r or lb["affine"].value < r + 1:
            failures.append(
                f"elemabelian(2,{r}) bounds {lb['endo'].value}/{lb['affine'].value}"
            )
    # dominating orbits of the advertised sizes.  heis(3) = 3^{1+2}_+: its
    # 432 automorphisms map onto GL(2,3), transitive on the 8 non-zero
    # vectors of G/Z, and the central automorphisms x -> x*h(xZ) are
    # transitive on each non-central coset, so the 24 non-central elements
    # form one orbit (8*3); the centre splits as 1 + 2.  (18 is the
    # order-9 orbit of modmax(3).)  test_morphisms re-derives both with an
    # oracle that does not use the package's morphism code.
    for spec, want in (("alt(4)", 8), ("heis(3)", 24)):
        g = cached_group(spec)
        orbits = automorphism_orbits(g)
        dominating = [len(o) for o in orbits if o != (0,)
                      and 2 * len(o) > g.order - 1]
        if want not in dominating:
            sizes = sorted(len(o) for o in orbits)
            failures.append(
                f"{spec}: no dominating orbit of size {want} (orbit sizes {sizes})"
            )
    # universal elements exist exactly where advertised
    for spec in ["modmax(3)"] + [f"cyclic({n})" for n in range(1, 13)]:
        if not universal_elements(cached_group(spec)):
            failures.append(f"{spec}: no universal element")
    for spec in ("sym(3)", "alt(4)"):
        if universal_elements(cached_group(spec)):
            failures.append(f"{spec}: unexpected universal element")
    report(capsys, 3, "lower-bound-certificates", failures)


# --------------------------------------------------------------------------
# 4: every hand-built witness re-measures to its proved value
# --------------------------------------------------------------------------

def test_criterion_4_witness_remeasurement(capsys):
    failures = []
    for n in range(1, 13):
        val = approximability(cyclic_enapp_witness(n), "endo")[0]
        if val != 1:
            failures.append(f"cyclic({n}) witness measured {val} != 1")
    for p in (2, 3, 5, 7):
        val = approximability(prime_square_witness(p), "affine")[0]
        if val != 2:
            failures.append(f"squaring on cyclic({p}) measured {val} != 2")
    for p, k in ((2, 2), (2, 3), (3, 2)):
        val = approximability(rem_quot_witness(p, k), "affine")[0]
        if val > p:
            failures.append(f"rem-quot({p},{k}) measured {val} > {p}")
    cert = worst_case_value(cached_group("cyclic(8)"), "affine")
    if not cert.exact or cert.value != 2:
        failures.append(f"cyclic(8) affine worst case {cert.value} != 2")
    metrics = {"z6-swap": "affine", "klein": "endo", "sym3": "affine"}
    for name, fn in small_group_witnesses().items():
        val = approximability(fn, metrics[name])[0]
        if val != 2:
            failures.append(f"{name} measured {val} != 2")
    report(capsys, 4, "witness-remeasurement", failures)


# --------------------------------------------------------------------------
# 5: avoiding permutations over every partition of <= 7 points
# --------------------------------------------------------------------------

def test_criterion_5_partition_avoidance(capsys):
    failures = []
    checked = 0
    for m in range(0, 8):
        for classes in all_set_partitions(m):
            perm = build_avoiding_permutation(classes)
            feasible = avoiding_exists_brute(classes)
            threshold = not classes or 2 * max(len(c) for c in classes) <= m
            if feasible != threshold and len(failures) < 5:
                failures.append(f"oracle vs half-threshold disagree on {classes}")
            if (perm is not None) != feasible and len(failures) < 5:
                failures.append(f"builder vs oracle disagree on {classes}")
            if perm is not None and (
                sorted(perm) != list(range(m)) or not perm_avoids(classes, perm)
            ):
                if len(failures) < 5:
                    failures.append(f"invalid permutation on {classes}")
            checked += 1
    if checked != 1156:  # Bell numbers B0..B7 summed
        failures.append(f"enumerated {checked} partitions != 1156")
    report(capsys, 5, "partition-avoidance", failures)


# --------------------------------------------------------------------------
# 6: two-sided counting bounds on the full small-shape grid
# --------------------------------------------------------------------------

def test_criterion_6_counting_bounds(capsys):
    failures = []
    shapes = [
        (m1, m2)
        for m2 in range(2, 11)
        for m1 in range(2, 21)
        if m2**m1 <= 10**6
    ]
    if len(shapes) != 71:
        failures.append(f"{len(shapes)} shapes != 71")
    violations = 0
    for m1, m2 in shapes:
        rng = np.random.default_rng(m1 * 1000 + m2)
        constants = [[c] * m1 for c in range(m2)]
        for _ in range(100):
            family = constants + [
                [int(v) for v in rng.integers(0, m2, size=m1)] for _ in range(3)
            ]
            fval = math.log(len(family)) / math.log(m2)
            rep = agreement_bounds(m1, m2, fval)
            val = brute_force_app(m1, m2, family)
            if not rep.lower <= val <= rep.upper + 1e-9:
                violations += 1
                if len(failures) < 5:
                    failures.append(
                        f"({m1},{m2}): {val} outside "
                        f"[{float(rep.lower):.3f}, {rep.upper:.3f}]"
                    )
    if violations:
        failures.append(f"{violations} bound violations")
    report(capsys, 6, "counting-bounds", failures)


# --------------------------------------------------------------------------
# 7: affine invariance and the difference criterion
# --------------------------------------------------------------------------

def test_criterion_7_affine_invariance_and_difference(capsys):
    failures = []
    invariance_bad = 0
    difference_bad = 0
    for g in catalog_up_to(6):
        n = g.order
        fam = family_tables(g, "affine")
        bijective = fam[np.all(np.sort(fam, axis=1) == np.arange(n), axis=1)]
        rng = np.random.default_rng(31 * n + 7)

        def measure(t):
            return int((fam == t).sum(axis=1).max())

        for _ in range(1000):
            f = rng.integers(0, n, size=n)
            a = bijective[rng.integers(0, len(bijective))]
            base = measure(f)
            if base != measure(f[a]) or base != measure(a[f]):
                invariance_bad += 1
        for _ in range(1000):
            f = rng.integers(0, n, size=n)
            xs = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            xs = sorted(int(v) for v in xs)
            fn = GroupFunction(g, tuple(int(v) for v in f))
            amap = difference_criterion(fn, xs)
            scan = bool(np.any(np.all(fam[:, xs] == f[xs], axis=1)))
            if (amap is not None) != scan:
                difference_bad += 1
            elif amap is not None and not np.array_equal(
                np.asarray(amap.images)[xs], f[xs]
            ):
                difference_bad += 1
    if invariance_bad:
        failures.append(f"{invariance_bad} invariance violations")
    if difference_bad:
        failures.append(f"{difference_bad} difference-criterion violations")
    report(capsys, 7, "affine-invariance-and-difference", failures)


# --------------------------------------------------------------------------
# 8: exact values sit inside the closed-form bounds
# --------------------------------------------------------------------------

def test_criterion_8_bound_consistency(tmp_path, capsys):
    failures = []
    info = _catalog_table7(tmp_path)
    capsys.readouterr()
    for row in info["doc"]["rows"]:
        name, n = row["name"], row["order"]
        cells = {m: row[m] for m in ("enapp", "affapp")}
        if not all(c["exact"] for c in cells.values()):
            failures.append(f"{name}: inexact cell")
            continue
        if cells["enapp"]["value"] > cells["affapp"]["value"]:
            failures.append(f"{name}: enapp exceeds affapp")
        if n >= 2:
            endo_bound, affine_bound = worst_case_upper_bounds(n)
            if cells["enapp"]["value"] > endo_bound + 1e-9:
                failures.append(f"{name}: enapp above formula bound")
            if cells["affapp"]["value"] > affine_bound + 1e-9:
                failures.append(f"{name}: affapp above formula bound")
    report(capsys, 8, "bound-consistency", failures)

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupapprox import cli
from groupapprox.bounds import agreement_bounds
from groupapprox.cli import MAX_STDERR_LINE, _build_parser, main
from groupapprox.errors import CapacityError, FormatError, ParameterError
from groupapprox.groups import (
    _CATALOG,
    DENSE_LIMIT,
    MAX_SPEC_DEPTH,
    build_group,
    canonical_spec,
    cyclic,
    serialize_cayley,
    sym,
)
from groupapprox.jk import jk_group, verify_affapp_one
from groupapprox.morphisms import GroupFunction
from groupapprox.reporting import (
    cache_dir,
    cache_get,
    cache_key,
    cache_put,
    document_bytes,
    metric_label,
    parse_metric_label,
)
from groupapprox.search import approximability

from make_golden import LARGE_FAMILY_GROUPS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, err


# --------------------------------------------------------------------------
# reporting helpers
# --------------------------------------------------------------------------

def test_metric_labels_round_trip():
    assert metric_label("endo") == "enapp"
    assert metric_label("affine") == "affapp"
    assert parse_metric_label("enapp") == "endo"
    assert parse_metric_label("affapp") == "affine"
    # argparse passes labels only: a tag is not one
    for bad in ("endo", "linear"):
        with pytest.raises(ParameterError, match="enapp"):
            parse_metric_label(bad)
    with pytest.raises(ParameterError, match="'endo', 'affine'"):
        metric_label("enapp")


def test_document_bytes_are_canonical():
    raw = document_bytes({"b": 1, "a": [2]})
    assert raw.endswith(b"\n")
    assert raw.index(b'"a"') < raw.index(b'"b"')
    assert json.loads(raw) == {"a": [2], "b": 1}


def test_cache_key_shape_and_sensitivity(monkeypatch):
    k = cache_key("cyclic(6)", "endo")
    assert len(k) == 64 and set(k) <= set("0123456789abcdef")
    assert k != cache_key("cyclic(7)", "endo")
    assert k != cache_key("cyclic(6)", "affine")
    monkeypatch.setattr("groupapprox.reporting.TOOL_VERSION", "9.9.9")
    assert cache_key("cyclic(6)", "endo") != k


def test_cache_takes_metric_tags_only():
    # the key hashes the tag's label, but the cache itself takes tags: a
    # label, a spec or any other string is refused before a file is read
    doc = {"exact": True, "value": 2}
    for bad in ("enapp", "affapp", "cyclic(6)", "linear"):
        with pytest.raises(ParameterError, match="metric must be one of"):
            cache_key("cyclic(6)", bad)
        with pytest.raises(ParameterError, match="metric must be one of"):
            cache_get("cyclic(6)", bad)
        with pytest.raises(ParameterError, match="metric must be one of"):
            cache_put("cyclic(6)", bad, doc)
        with pytest.raises(ParameterError, match="metric must be one of"):
            cache_put("cyclic(6)", bad, {"exact": False})
    assert not cache_dir().exists()


SHORTHAND_SPECS = (
    "cyclic:6", " cyclic( 6 ) ", "elemabelian( 2 , 3 )",
    "product( cyclic(2) , cyclic(3) )", "product(cyclic:2,sym:3)", "jk(3, 0, 1)",
)


def test_canonical_specs_and_cache_keys_are_pinned():
    # "canonical|endo key|affine key" of every catalog, large-family and
    # shorthand spec, digested and pinned: a change to the spec reader must
    # not move the key of any cached result
    lines = []
    for spec in (*_CATALOG, *LARGE_FAMILY_GROUPS, *SHORTHAND_SPECS):
        canon = canonical_spec(spec)
        if not canon.startswith("jk"):
            assert build_group(spec).name == canon, spec
        lines.append(f"{canon}|{cache_key(canon, 'endo')}|{cache_key(canon, 'affine')}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "dd2186a5c79c502cb5cd4b38e60ad68654b08dad6b20d40f35253e438769b544"
    assert cache_key("cyclic(6)", "endo") == (
        "ae84f58d916b75db0ed17c81a55deda51dad6dbd7a10ac187e54d263dd955991"
    )
    assert cache_key(canonical_spec("product(cyclic:2,sym:3)"), "affine") == (
        "40a821c3f76231133520968c30adce54114bd5d3c0dd3aca0fdcfc9e1fcf13a0"
    )


def test_cache_round_trip_and_corruption(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GROUPAPPROX_CACHE_DIR", str(tmp_path / "c"))
    assert cache_dir() == tmp_path / "c"
    assert cache_get("cyclic(6)", "endo") is None
    doc = {"exact": True, "value": 1}
    cache_put("cyclic(6)", "endo", doc)
    assert cache_get("cyclic(6)", "endo") == doc
    # inexact results are never pinned
    cache_put("cyclic(7)", "endo", {"exact": False})
    assert cache_get("cyclic(7)", "endo") is None
    # corrupt or mistyped entries warn on stderr and read as misses
    path = cache_dir() / (cache_key("cyclic(6)", "endo") + ".json")
    path.write_text("{nope")
    assert cache_get("cyclic(6)", "endo") is None
    assert "corrupt" in capsys.readouterr().err
    path.write_text("[1, 2]")
    assert cache_get("cyclic(6)", "endo") is None
    assert "malformed" in capsys.readouterr().err


# --------------------------------------------------------------------------
# compute
# --------------------------------------------------------------------------

def test_compute_caches_exact_results(capsys):
    code, doc, _ = run_json(
        capsys, "compute", "--group", "cyclic(6)", "--metric", "enapp"
    )
    assert code == 0
    assert doc["kind"] == "compute" and doc["group"] == "cyclic(6)"
    assert doc["metric"] == "enapp" and doc["exact"] is True
    assert doc["value"] == 1 and doc["cached"] is False
    code2, doc2, _ = run_json(
        capsys, "compute", "--group", "cyclic(6)", "--metric", "enapp"
    )
    assert code2 == 0 and doc2["cached"] is True
    assert {k: v for k, v in doc2.items() if k != "cached"} == {
        k: v for k, v in doc.items() if k != "cached"
    }


def test_compute_recovers_from_corrupt_cache(capsys):
    run_json(capsys, "compute", "--group", "cyclic(4)", "--metric", "affapp")
    path = cache_dir() / (cache_key("cyclic(4)", "affine") + ".json")
    assert path.exists()
    path.write_text("not json")
    code, doc, err = run_json(
        capsys, "compute", "--group", "cyclic(4)", "--metric", "affapp"
    )
    assert code == 0 and doc["cached"] is False
    assert "corrupt" in err
    assert cache_get("cyclic(4)", "affine")["value"] == doc["value"] == 2


def test_compute_no_cache_leaves_no_entries(capsys):
    code, doc, _ = run_json(
        capsys, "compute", "--group", "cyclic(5)", "--metric", "enapp", "--no-cache"
    )
    assert code == 0 and doc["value"] == 1
    assert not cache_dir().exists()


def test_compute_bounds_only(capsys):
    code, doc, _ = run_json(
        capsys, "compute", "--group", "cyclic(6)", "--metric", "affapp",
        "--bounds-only",
    )
    assert code == 0
    assert doc["exact"] is False and doc["value"] is None and doc["witness"] is None
    assert doc["lower"] == 2 and doc["upper"] == 6
    assert doc["lower_bound"]["kind"] == "universal-tuple"
    assert doc["stats"]["nodes"] == 0 and doc["stats"]["thresholds"] == []
    assert doc["stats"]["symmetries"] == 1
    assert not cache_dir().exists()


def test_compute_capacity_fallback(capsys):
    code, doc, err = run_json(
        capsys, "compute", "--group", "dihedral(1024)", "--metric", "enapp"
    )
    assert code == 3
    assert "bounds only" in err
    assert doc["exact"] is False and doc["value"] is None
    assert doc["lower_bound"]["kind"] == "none"
    assert doc["lower"] == 0 and doc["upper"] == 76
    code, doc, err = run_json(
        capsys, "compute", "--group", "elemabelian(2,5)", "--metric", "enapp"
    )
    assert code == 3
    assert "bounds only" in err
    assert doc["exact"] is False and doc["value"] is None
    assert doc["lower_bound"]["kind"] == "abelian"


def test_compute_affine_counter_search_past_the_table_cap(capsys):
    # cyclic(257) has 257 < PATH_COUNT_ENDOS endomorphisms, so its affine
    # search keeps counters and reads 257^3 table cells' columns: refused
    # on the first, before the search tries a value, and reported as bounds
    code, doc, err = run_json(
        capsys, "compute", "--group", "cyclic(257)", "--metric", "affapp",
        "--budget", "1000",
    )
    assert code == 3
    assert "would fill 16974593 table cells" in err and "bounds only" in err
    assert doc["exact"] is False and doc["value"] is None
    assert doc["stats"]["nodes"] == 0 and doc["stats"]["thresholds"] == []
    assert not cache_dir().exists()


def test_compute_jk_past_the_cayley_cap(capsys):
    # order 6,561: the Cayley table is refused before it is built, so both
    # calls stay small and report the bracket
    tracemalloc.start()
    try:
        code, doc, _ = run_json(
            capsys, "compute", "--group", "jk(3,0,1)", "--metric", "enapp",
            "--bounds-only",
        )
        assert code == 0 and (doc["lower"], doc["upper"]) == (0, 120)
        code, doc, err = run_json(
            capsys, "compute", "--group", "jk(3,0,1)", "--metric", "affapp"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and "Cayley table" in err and "bounds only" in err
    assert (doc["lower"], doc["upper"]) == (1, 129)
    assert peak < 16 << 20, peak


def test_compute_past_order_64(capsys):
    code, doc, _ = run_json(
        capsys, "compute", "--group", "cyclic(100)", "--metric", "enapp"
    )
    assert code == 0 and doc["exact"] is True and doc["value"] == 1
    witness = GroupFunction(cyclic(100), doc["witness"])
    assert approximability(witness, "endo")[0] == 1


def test_compute_affine_table_capacity_fallback(capsys):
    # the 2^26 affine cells are never built: the affapp search counts the
    # pairs along its path, so it runs to its budget like the enapp search
    # on the endomorphism table (2^20 cells)
    spec = "product(cyclic(2),product(cyclic(4),cyclic(8)))"
    code, doc, err = run_json(
        capsys, "compute", "--group", spec, "--metric", "affapp", "--budget", "2000"
    )
    assert code == 3 and err == ""
    assert (doc["lower"], doc["upper"], doc["value"]) == (2, 33, None)
    assert doc["stats"]["nodes"] == 2000 and doc["stats"]["thresholds"] == [2]
    code, doc, err = run_json(
        capsys, "compute", "--group", spec, "--metric", "enapp", "--budget", "1000"
    )
    assert code == 3 and "bounds only" not in err
    assert doc["stats"]["nodes"] == 1000 and doc["stats"]["thresholds"] == [1]


def test_compute_cache_follows_file_content(tmp_path, capsys):
    path = tmp_path / "g.cayley"
    spec = f"file({path})"
    path.write_text(serialize_cayley(cyclic(6)), encoding="utf-8")
    code, doc, _ = run_json(capsys, "compute", "--group", spec, "--metric", "enapp")
    assert code == 0 and doc["value"] == 1 and doc["cached"] is False
    # same spec text, new table: the cached cyclic(6) value must not be used
    path.write_text(serialize_cayley(sym(3)), encoding="utf-8")
    code, doc, _ = run_json(capsys, "compute", "--group", spec, "--metric", "enapp")
    assert code == 0 and doc["value"] == 0 and doc["cached"] is False
    code, doc, _ = run_json(capsys, "compute", "--group", spec, "--metric", "enapp")
    assert doc["value"] == 0 and doc["cached"] is True


def test_compute_refuses_oversize_table_file(tmp_path, capsys):
    # a well-formed 2100 x 2100 table and a truncated one both exit 3
    # from the order on line 1, before any row is parsed
    n = DENSE_LIMIT + 52
    nums = [str(v) for v in range(n)]
    rows = [" ".join(nums[r:] + nums[:r]) for r in range(n)]
    well = tmp_path / "well.cayley"
    well.write_text(f"{n}\n" + "\n".join(rows) + "\n", encoding="utf-8")
    truncated = tmp_path / "truncated.cayley"
    truncated.write_text(f"{n}\n{rows[0]}\n", encoding="utf-8")
    for path in (well, truncated):
        code, _, err = run(
            capsys, "compute", "--group", f"file({path})", "--metric", "enapp"
        )
        assert code == 3, path.name
        assert f"has order {n} > {DENSE_LIMIT}" in err, path.name


def test_compute_refuses_overlong_order_line(tmp_path, capsys):
    # thousands of digits on line 1 are refused by their count, with the
    # token cut short in one error line (a spec argument has the same cap)
    for digits in (4000, 5001):
        path = tmp_path / f"order{digits}.cayley"
        path.write_text("9" * digits + "\n", encoding="utf-8")
        code, _, err = run(
            capsys, "compute", "--group", f"file({path})", "--metric", "enapp"
        )
        assert code == 2, digits
        assert err.startswith("error: ") and err.count("\n") == 1, err[:200]
        assert len(err) < 500, (digits, len(err))


def test_cayley_errors_cut_long_tokens_short(tmp_path, capsys):
    # a 4,000-digit generator index or table entry is quoted cut short
    long = "9" * 4000
    for where, text in (
        ("generator", f"2\ng {long}\n0 1\n1 0\n"),
        ("entry", f"2\n0 1\n1 {long}\n"),
    ):
        path = tmp_path / f"{where}.cayley"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(
            capsys, "compute", "--group", f"file({path})", "--metric", "enapp"
        )
        assert code == 2, where
        assert err.startswith("error: ") and "out of range" in err, err[:200]
        assert len(err.encode()) < 200, (where, len(err))


def test_undecodable_input_files_are_usage_errors(tmp_path, capsys):
    # bytes that are not UTF-8 read as U+FFFD, which no integer holds
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00\x01")
    for argv in (
        ["compute", "--group", f"file({path})", "--metric", "enapp"],
        ["verify-jk", "--p", "3", "--lambda", "0,1", "--sigma", str(path)],
        ["bounds", "--m1", "8", "--m2", "2", "--f", str(path)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv
    # an --out path that cannot be written is a usage error too
    code, _, err = run(capsys, "witness", "--name", "klein", "--out", str(tmp_path))
    assert code == 2 and err.startswith("error: --out "), err


def test_negative_budget_is_a_usage_error(capsys):
    for argv in (
        ("compute", "--group", "cyclic(6)", "--metric", "enapp"),
        ("table", "--max-order", "3"),
    ):
        code, out, err = run(capsys, *argv, "--budget", "-5")
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "budget" in err, err
        assert "Traceback" not in err


def test_compute_budget_exhausted(capsys):
    code, doc, _ = run_json(
        capsys, "compute", "--group", "alt(4)", "--metric", "affapp",
        "--budget", "100",
    )
    assert code == 3
    assert doc["exact"] is False and doc["value"] is None
    assert doc["lower"] == 2 and doc["upper"] == 12
    assert doc["stats"]["thresholds"] == [2]
    assert doc["stats"]["symmetries"] == 24  # |Aut(alt(4))| = |S4|
    assert not cache_dir().exists()


def test_compute_normalizes_spec_and_handles_trivial_group(capsys):
    code, doc, _ = run_json(
        capsys, "compute", "--group", "cyclic:1", "--metric", "affapp"
    )
    assert code == 0
    assert doc["group"] == "cyclic(1)"
    assert doc["value"] == 1 and doc["exact"] is True


def test_compute_out_file(tmp_path, capsys):
    path = tmp_path / "doc.json"
    code, out, _ = run(
        capsys, "compute", "--group", "sym(3)", "--metric", "enapp",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["value"] == 0 and doc["witness"] is not None


# --------------------------------------------------------------------------
# table
# --------------------------------------------------------------------------

def test_table_text_is_deterministic(capsys):
    code, out1, _ = run(capsys, "table", "--max-order", "6")
    assert code == 0
    code, out2, _ = run(capsys, "table", "--max-order", "6")
    assert code == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0].startswith("group")
    assert len(lines) == 1 + 8  # eight isomorphism classes up to order 6


def test_table_out_writes_json_beside_text(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, "table", "--max-order", "4", "--out", str(path))
    assert code == 0
    assert out.startswith("group")
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["kind"] == "table" and doc["max_order"] == 4
    assert [r["name"] for r in doc["rows"]] == [
        "cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(4)", "elemabelian(2,2)"
    ]
    assert [r["enapp"]["value"] for r in doc["rows"]] == [1, 1, 1, 1, 2]
    assert [r["affapp"]["value"] for r in doc["rows"]] == [1, 2, 2, 2, 3]
    assert all(r["enapp"]["exact"] and r["affapp"]["exact"] for r in doc["rows"])


# --------------------------------------------------------------------------
# verify-jk
# --------------------------------------------------------------------------

def test_verify_jk_sampled_pass(capsys):
    code, doc, _ = run_json(
        capsys, "verify-jk", "--p", "3", "--lambda", "0,1",
        "--mode", "sampled", "--samples", "4000",
    )
    assert code == 0
    assert doc["check"] == "affine-agreement" and doc["mode"] == "sampled"
    assert doc["passed"] is True and doc["pairs_checked"] == 4000
    assert doc["violations"] == [] and doc["violations_total"] == 0
    assert doc["sigma"] == [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2]]


def test_verify_jk_degenerate_sigma_fails(tmp_path, capsys):
    sig = tmp_path / "sigma.txt"
    sig.write_text("1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1\n")
    code, doc, _ = run_json(
        capsys, "verify-jk", "--p", "3", "--lambda", "0,1",
        "--mode", "sampled", "--samples", "5000", "--sigma", str(sig),
    )
    assert code == 4
    assert doc["passed"] is False and doc["violations_total"] > 0
    assert doc["sigma"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_verify_jk_endo_check(capsys):
    code, doc, _ = run_json(
        capsys, "verify-jk", "--p", "3", "--lambda", "0,1", "--check", "endo"
    )
    assert code == 0
    assert doc["check"] == "endo-agreement" and doc["sigma"] is None
    assert doc["pairs_checked"] == 6561 and doc["passed"] is True


@pytest.mark.parametrize("extra, option", [
    (["--check", "endo", "--sigma", "/no/such/file"], "--sigma"),
    (["--check", "endo", "--mode", "sampled"], "--mode"),
    (["--check", "endo", "--mode", "full"], "--mode"),
    (["--check", "endo", "--samples", "10"], "--samples"),
    (["--check", "endo", "--seed", "3"], "--seed"),
    (["--mode", "full", "--samples", "0"], "--samples"),
    (["--samples", "10"], "--samples"),
    (["--mode", "full", "--seed", "-4"], "--seed"),
    (["--seed", "3"], "--seed"),
])
def test_verify_jk_refuses_an_option_its_scan_never_reads(capsys, extra, option):
    code, out, err = run(capsys, "verify-jk", "--p", "3", "--lambda", "0,1", *extra)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {option} "), err


def test_allow_large_is_a_usage_error(capsys):
    # every p that jk admits builds, so no flag lets a larger p through
    code, out, err = run(
        capsys, "verify-jk", "--p", "5", "--lambda", "0,1", "--allow-large",
        "--mode", "sampled",
    )
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and "--allow-large" in errors[0], err


def test_verify_jk_p5_scans_sampled_and_refuses_full(capsys):
    code, doc, _ = run_json(
        capsys, "verify-jk", "--p", "5", "--lambda", "0,1",
        "--mode", "sampled", "--samples", "1500",
    )
    assert code == 0
    assert doc["p"] == 5 and doc["pairs_checked"] == 1500 and doc["passed"] is True
    # full mode bounds its own work: it refuses every p but 3, and the
    # refusal names the CLI flag beside the Python keyword
    code, out, err = run(capsys, "verify-jk", "--p", "5", "--lambda", "0,1")
    assert code == 3 and out == ""
    assert err == (
        "error: full verification is limited to p = 3: use mode='sampled' in "
        "Python, --mode sampled with verify-jk\n"
    )


def test_compute_jk5_reports_its_bracket(capsys):
    # a jk(...) spec past p = 3 builds: compute reports the bounds alone
    code, doc, err = run_json(
        capsys, "compute", "--group", "jk(5,0,1)", "--metric", "affapp"
    )
    assert code == 3 and "bounds only" in err
    assert doc["order"] == 5**8 and doc["exact"] is False
    assert (doc["lower"], doc["upper"]) == (1, 264)
    assert doc["lower_bound"]["kind"] == "constants"


MERSENNE_61 = str(2**61 - 1)  # a prime: trial division up to 1.5e9 never ends
OVERSIZE_REQUESTS = [
    (3, ["compute", "--group", f"heis({MERSENNE_61})"]),
    (3, ["compute", "--group", f"elemabelian({MERSENNE_61},2)"]),
    (3, ["compute", "--group", "elemabelian(2,1000000000)"]),
    (3, ["compute", "--group", "sym(3000000)"]),
    (3, ["compute", "--group", "sym(100000)"]),
    (3, ["compute", "--group", "alt(100000)"]),
    (2, ["compute", "--group", f"cyclic({'9' * 5001})"]),
    (3, ["witness", "--name", f"prime-square:{MERSENNE_61}"]),
    (3, ["witness", "--name", "rem-quot:2,1000000000"]),
    (3, ["verify-jk", "--p", MERSENNE_61, "--lambda", "0,1"]),
    (3, ["verify-jk", "--p", "101", "--lambda", "0,1", "--mode", "sampled"]),
    (3, ["bounds", "--m1", "4300", "--m2", "10", "--f", "log2"]),
    (3, ["bounds", "--m1", "1000000000", "--m2", "2", "--f", "log2"]),
    (3, ["bounds", "--m1", "4", "--m2", str(10**400), "--f", "1"]),
]
# runs each request through main() in a child process, so that a hang is
# cut by the timeout and an escaping exception shows as a traceback
TIMED_MAIN = """
import contextlib, io, json, sys, time
from groupapprox.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([code, time.perf_counter() - start, err.getvalue()]))
"""


def test_oversize_requests_exit_at_once():
    argvs = [
        argv + ["--metric", "enapp"] if argv[0] == "compute" else argv
        for _, argv in OVERSIZE_REQUESTS
    ]
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(OVERSIZE_REQUESTS)
    for (want, argv), (code, elapsed, err) in zip(OVERSIZE_REQUESTS, results):
        label = " ".join(argv)[:80]
        assert code == want, label
        assert elapsed < 1.0, (label, elapsed)
        assert err.startswith("error: ") and len(err) < 500, (label, err[:200])


# malformed specs that once echoed in full or overflowed the stack
BAD_SPECS = [
    "product(" * 1000 + "cyclic(2)" + ",cyclic(2))" * 1000,
    "(" * 5000,
    "x" * 5000,
    "cyclic(2)" + ")" * 5000,
    "product(cyclic(2)," + "(" * 5000,
    "file(" + "a" * 5000 + ")",
]


def test_spec_errors_stay_one_short_line():
    argvs = [["compute", f"--group={spec}", "--metric", "enapp"] for spec in BAD_SPECS]
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(BAD_SPECS)
    for spec, (code, _, err) in zip(BAD_SPECS, results):
        assert code == 2, spec[:40]
        assert err.startswith("error: ") and len(err.encode()) < 200, err[:200]


def test_spec_nesting_bound():
    def nested(depth):  # `depth` nested parentheses, each product a trivial group
        return "product(" * (depth - 1) + "cyclic(1)" + ",cyclic(1))" * (depth - 1)

    assert build_group(nested(MAX_SPEC_DEPTH)).order == 1
    with pytest.raises(FormatError, match="nested deeper"):
        build_group(nested(MAX_SPEC_DEPTH + 1))
    with pytest.raises(FormatError, match="nested deeper"):
        canonical_spec(nested(MAX_SPEC_DEPTH + 1))


def test_negative_budget_is_refused_before_the_cache(capsys):
    argv = ["compute", "--group", "cyclic(6)", "--metric", "enapp"]
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0 and cache_get("cyclic(6)", "endo") is not None
    for command in (argv, ["table", "--max-order", "3"]):
        code, out, err = run(capsys, *command, "--budget", "-5")
        assert code == 2 and out == "", command
        assert err.startswith("error: ") and "budget must be >= 0" in err, command


# spec strings from the constructor grammar, mangled tokens and plain text;
# "file" is left out so that no example reads the working directory
_ARGS = st.one_of(
    st.integers(min_value=-3, max_value=40).map(str),
    st.sampled_from(["", " 7 ", "x", "1e3", "9" * 31, str(2**61 - 1)]),
)
_LEAVES = st.builds(
    lambda name, args: f"{name}({','.join(args)})",
    st.sampled_from(["cyclic", "elemabelian", "dihedral", "dicyclic", "sym",
                     "alt", "heis", "modmax", "jk", "product", "Cyclic", "x"]),
    st.lists(_ARGS, max_size=3),
)
_SPECS = st.one_of(
    st.recursive(
        _LEAVES,
        lambda kids: st.builds(lambda a, b: f"product({a},{b})", kids, kids),
        max_leaves=5,
    ),
    st.text(alphabet="abcdehijklmnoprstuxyz0123456789(),: -", max_size=60),
).filter(lambda spec: "file" not in spec)
_COUNTS = st.one_of(
    st.integers(min_value=-3, max_value=300),
    st.sampled_from([4300, 10**9, 2**64, 10**400]),
)


def _main_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(deadline=None, max_examples=150)
@given(_SPECS, st.sampled_from(["enapp", "affapp"]))
def test_compute_exit_codes_on_any_spec(spec, metric):
    code, err = _main_quietly(
        ["compute", f"--group={spec}", "--metric", metric, "--bounds-only", "--no-cache"]
    )
    assert code in (0, 2, 3), (spec, err)
    assert len(err.encode()) <= 300, (spec, err[:200])


@settings(deadline=None, max_examples=80)
@given(
    _COUNTS,
    _COUNTS,
    st.one_of(
        st.sampled_from(["log2", "1", "0", "-1", "2.5", "nan", "inf", "1e308"]),
        st.text(alphabet="0123456789.e-+lgox", max_size=12),
    ),
)
def test_bounds_exit_codes_on_any_arguments(m1, m2, f):
    code, err = _main_quietly(["bounds", f"--m1={m1}", f"--m2={m2}", f"--f={f}"])
    assert code in (0, 2, 3), (m1, m2, f, err)
    assert len(err.encode()) <= 300, (m1, m2, f, err[:200])


def test_an_attached_double_dash_value_is_a_usage_error():
    # argparse reads --f=-- as an empty list, which used to escape main
    # as a TypeError (found by the test above)
    for argv in (
        ["bounds", "--m1=3", "--m2=2", "--f=--"],
        ["bounds", "--m1=--", "--m2=2", "--f=1"],
        ["compute", "--group=--", "--metric", "affapp", "--bounds-only", "--no-cache"],
    ):
        code, err = _main_quietly(argv)
        assert code == 2 and "may not be '--'" in err, argv


_TOKENS = st.one_of(
    st.integers(min_value=-3, max_value=40).map(str),
    st.sampled_from(["", " 7 ", "x", "+2", "1_0", "1e3", "9" * 31, MERSENNE_61]),
)
_TOKEN_LISTS = st.lists(_TOKENS, max_size=4).map(",".join)


@settings(deadline=None, max_examples=60)
@given(
    _TOKENS,
    st.one_of(_TOKEN_LISTS, st.sampled_from(["0,1", "1,1", "2,1"])),
    st.integers(min_value=-2, max_value=50),
    st.one_of(st.integers(min_value=-3, max_value=5), st.just(2**64)),
)
def test_verify_jk_exit_codes_on_any_arguments(p, lam, samples, seed):
    code, err = _main_quietly([
        "verify-jk", f"--p={p}", f"--lambda={lam}", "--mode=sampled",
        f"--samples={samples}", f"--seed={seed}",
    ])
    assert code in (0, 2, 3), (p, lam, samples, seed, err)
    assert len(err.encode()) <= 600, (p, lam, err[:200])


@settings(deadline=None, max_examples=80)
@given(st.one_of(
    _TOKEN_LISTS,
    st.lists(st.sampled_from(["100000000000", "524289", "1048577"]), min_size=1,
             max_size=3).map(",".join),
))
def test_partition_avoid_exit_codes_on_any_classes(classes):
    code, err = _main_quietly(["partition-avoid", f"--classes={classes}"])
    assert code in (0, 2, 3), (classes, err)
    assert len(err.encode()) <= 300, (classes, err[:200])


@settings(deadline=None, max_examples=80)
@given(st.one_of(
    st.sampled_from(["z6-swap", "klein", "sym3", "unobtainium", "", ":"]),
    st.builds(
        lambda head, rest: f"{head}:{rest}",
        st.sampled_from(["cyclic-enapp", "prime-square", "rem-quot", "klein", "x"]),
        _TOKEN_LISTS,
    ),
))
def test_witness_exit_codes_on_any_name(name):
    code, err = _main_quietly(["witness", f"--name={name}"])
    assert code in (0, 2, 3), (name, err)
    assert len(err.encode()) <= 300, (name, err[:200])


# one quick, well-formed command line per command: the oversize gate feeds
# each option of a command a bad token after these, so that every other
# argument is fine and the token is what the command reads
GATE_ARGS = {
    "compute": ["--group", "cyclic(2)", "--metric", "enapp", "--bounds-only",
                "--no-cache"],
    "table": ["--max-order", "1"],
    "verify-jk": ["--p", "3", "--lambda", "0,1", "--mode", "sampled",
                  "--samples", "10"],
    "bounds": ["--m1", "8", "--m2", "2", "--f", "1"],
    "partition-avoid": ["--classes", "2,2,1"],
    "witness": ["--name", "klein"],
}
OVERSIZE_TOKENS = ("9" * 5000, "x" * 5000)


def _oversize_command_lines():
    """Every command line that puts an oversize token in one slot: the
    command slot, one stray positional per command, and the value of each
    option the parser itself declares (an option added later is covered
    without editing this list)."""
    [commands] = [a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(GATE_ARGS)
    for token in OVERSIZE_TOKENS:
        yield [token]
        for command, parser in commands.choices.items():
            base = [command, *GATE_ARGS[command]]
            yield [*base, token]
            for action in parser._actions:
                if action.nargs != 0:  # flags take no value
                    yield [*base, action.option_strings[-1], token]


def test_oversize_tokens_give_one_bounded_error_line():
    for argv in _oversize_command_lines():
        label = " ".join(arg[:12] for arg in argv)
        code, err = _main_quietly(argv)
        assert code in (2, 3), (label, code, err[-300:])
        last = err.splitlines()[-1]
        assert "error: " in last, (label, err[-300:])
        assert len(last.encode()) + 1 <= MAX_STDERR_LINE == 200, (label, last[:100])
        assert len(err.encode()) <= 600, (label, len(err.encode()))


def _command_options():
    """(command, action) for each option of each command the parser declares."""
    [commands] = [a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        for action in parser._actions:
            yield command, action


def test_no_option_reads_a_number_by_a_builtin():
    # int() takes "1_000", " 8 " and non-ASCII digits; float() takes more
    for command, action in _command_options():
        assert action.type not in (int, float), (command, action.dest)


def test_integer_options_follow_the_spec_grammar(capsys):
    options = [(c, a) for c, a in _command_options() if a.type is cli._int_option]
    assert len(options) == 8
    for command, action in options:
        base = [command, *GATE_ARGS[command], action.option_strings[-1]]
        for token in ("1_000", "\u0663", " 8 "):
            code, out, err = run(capsys, *base, token)
            assert code == 2 and out == "", (command, action.dest, token)
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1, (command, action.dest, err)
        for token, value in (("+3", 3), ("007", 7)):
            args = _build_parser().parse_args([*base, token])
            assert getattr(args, action.dest) == value, (command, action.dest)


# --------------------------------------------------------------------------
# bounds / partition-avoid / witness
# --------------------------------------------------------------------------

def test_bounds_command_branches(tmp_path, capsys):
    code, doc, _ = run_json(capsys, "bounds", "--m1", "8", "--m2", "2", "--f", "3")
    assert code == 0 and doc["upper_branch"] == "e2-fiber"
    assert doc["lower"] == {"num": 4, "den": 1}
    assert doc["nu"][-1] == 256
    code, doc2, _ = run_json(capsys, "bounds", "--m1", "4", "--m2", "16", "--f", "1")
    assert code == 0 and doc2["upper_branch"] == "entropy"
    code, doc3, _ = run_json(capsys, "bounds", "--m1", "8", "--m2", "2", "--f", "log2")
    assert doc3["fval"] == 3.0
    ffile = tmp_path / "f.txt"
    ffile.write_text("2.5\n")
    code, doc4, _ = run_json(
        capsys, "bounds", "--m1", "8", "--m2", "2", "--f", str(ffile)
    )
    assert doc4["fval"] == 2.5


def test_bounds_f_file_holds_exactly_one_number(tmp_path, capsys):
    ffile = tmp_path / "f.txt"
    for text in ("2 junk\n", "2\n3\n", ""):
        ffile.write_text(text)
        argv = ["bounds", "--m1", "8", "--m2", "2", "--f", str(ffile)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: --f "), (text, err)


def test_bounds_digit_cap_is_exact(capsys):
    # (10**215)**20 has 4,301 digits and is refused; one less has 4,300
    code, _, err = run(capsys, "bounds", "--m1", "20", "--m2", str(10**215), "--f", "1")
    assert code == 3 and "4300 digits" in err
    m2 = 10**215 - 1
    code, out, _ = run(capsys, "bounds", "--m1", "20", "--m2", str(m2), "--f", "1")
    assert code == 0 and json.loads(out)["nu"][-1] == m2**20
    code, out, _ = run(capsys, "bounds", "--m1", "3000", "--m2", "3", "--f", "log2")
    assert code == 0 and json.loads(out)["nu"][-1] == 3**3000


def test_bounds_documents_hold_only_finite_numbers(capsys):
    # JSON has no Infinity: an infinite fval is a usage error, and a finite
    # one whose upper bound overflows a float is over capacity
    for f in ("inf", "-inf", "nan"):
        code, out, err = run(capsys, "bounds", "--m1", "5", "--m2", "3", f"--f={f}")
        assert code == 2 and out == "" and "finite" in err, f
    code, out, err = run(capsys, "bounds", "--m1", "5", "--m2", "10", "--f", "1e308")
    assert code == 3 and out == "" and "overflows" in err
    with pytest.raises(ParameterError):
        agreement_bounds(5, 3, float("inf"))
    with pytest.raises(CapacityError):
        agreement_bounds(5, 10, 1e308)
    # a large document is unchanged, byte for byte
    code, out, _ = run(capsys, "bounds", "--m1", "3000", "--m2", "3", "--f", "log2")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "2801d0bd834152b7256fb58d301828df47f61b436d4bb342dc06ea120815538c"
    )


def test_verify_jk_refuses_a_negative_seed(capsys):
    with pytest.raises(ParameterError, match="seed"):
        verify_affapp_one(jk_group(3, 0, 1), mode="sampled", samples=10, seed=-1)
    code, out, err = run(
        capsys, "verify-jk", "--p", "3", "--lambda", "0,1", "--mode", "sampled",
        "--samples", "10", "--seed", "-1",
    )
    assert code == 2 and out == "" and err.startswith("error: ") and "seed" in err


def test_partition_avoid_caps_its_points(capsys, monkeypatch):
    # refused from the sizes alone, before any class list is built
    for classes in ("100000000000", "524288,524289", "1," * 40 + "1048537"):
        code, out, err = run(capsys, "partition-avoid", "--classes", classes)
        assert code == 3 and out == "", classes
        assert err.startswith("error: ") and "points" in err, classes
    monkeypatch.setattr(cli, "MAX_PARTITION_POINTS", 10)
    code, doc, _ = run_json(capsys, "partition-avoid", "--classes", "5,5")
    assert code == 0 and doc["feasible"] is True
    code, _, err = run(capsys, "partition-avoid", "--classes", "5,6")
    assert code == 3 and "11 points > 10" in err


def test_partition_avoid_feasible(capsys):
    code, doc, _ = run_json(capsys, "partition-avoid", "--classes", "2,2,1")
    assert code == 0
    assert doc["classes"] == [[0, 1], [2, 3], [4]]
    assert doc["feasible"] is True
    perm = doc["permutation"]
    assert sorted(perm) == [0, 1, 2, 3, 4]
    for cls in doc["classes"]:
        for x in cls:
            assert perm[x] not in cls


def test_partition_avoid_infeasible(capsys):
    code, doc, _ = run_json(capsys, "partition-avoid", "--classes", "3,4")
    assert code == 0
    assert doc["feasible"] is False and doc["permutation"] is None


def test_witness_documents(capsys):
    expectations = {
        "cyclic-enapp:6": ("cyclic(6)", "enapp", 1),
        "prime-square:5": ("cyclic(5)", "affapp", 2),
        "rem-quot:2,3": ("cyclic(8)", "affapp", 2),
        "z6-swap": ("product(cyclic(2),cyclic(3))", "affapp", 2),
        "klein": ("elemabelian(2,2)", "enapp", 2),
        "sym3": ("dihedral(6)", "affapp", 2),
    }
    for name, (group, metric, agreement) in expectations.items():
        code, doc, _ = run_json(capsys, "witness", "--name", name)
        assert code == 0, name
        assert doc["group"] == group and doc["metric"] == metric, name
        assert doc["agreement"] == agreement, name
        assert len(doc["images"]) == doc["order"]


def test_witness_past_the_affine_table_cap(capsys):
    # cyclic(257) has 257^3 > 2^24 affine table cells; agreement reads
    # the (constant, endomorphism) pairs and needs no table
    code, doc, _ = run_json(capsys, "witness", "--name", "prime-square:257")
    assert code == 0
    assert doc["group"] == "cyclic(257)" and doc["metric"] == "affapp"
    assert doc["agreement"] == 2


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    cases = [
        ["compute", "--group", "frobnicate(3)", "--metric", "enapp"],
        ["compute", "--group", "cyclic(", "--metric", "affapp"],
        ["compute", "--group", "cyclic(6)", "--metric", "linear"],
        ["compute", "--group", "file(/no/such/file)", "--metric", "enapp"],
        ["verify-jk", "--p", "4", "--lambda", "0,1"],
        ["verify-jk", "--p", "3", "--lambda", "0,2"],
        ["verify-jk", "--p", "3", "--lambda", "5,1"],
        ["verify-jk", "--p", "3", "--lambda", "0"],
        ["verify-jk", "--p", "3", "--lambda", "0,1", "--sigma", "/no/such/file"],
        ["verify-jk", "--p", "3", "--lambda", "0,1", "--mode", "sampled",
         "--samples", "0"],
        ["verify-jk", "--p", "3", "--lambda", "0,1", "--mode", "sampled",
         "--samples", "-7"],
        ["witness", "--name", "unobtainium"],
        ["witness", "--name", "rem-quot:2"],
        ["witness", "--name", "rem-quot:4,2"],
        ["witness", "--name", "cyclic-enapp:abc"],
        ["witness", "--name", "prime-square:x"],
        ["witness", "--name", "rem-quot:3,x"],
        ["bounds", "--m1", "1", "--m2", "2", "--f", "1"],
        ["bounds", "--m1", "8", "--m2", "2", "--f", "/no/such/file"],
        ["partition-avoid", "--classes", "0,2"],
        ["partition-avoid", "--classes", "x"],
        ["partition-avoid", "--classes", ""],
    ]
    for argv in cases:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "error" in err, argv


def test_help_and_missing_command(capsys):
    assert main(["--help"]) == 0
    assert "groupapprox" in capsys.readouterr().out
    assert main([]) == 2
    capsys.readouterr()

"""The mutant gate: every known mutant of a hot layer must fail its tests.

Each entry of ``MUTANTS`` is a mutant: a name, a file under ``src/``, the
exact text it replaces (which must occur there exactly once), the new
text, and the test files (or single test ids) that must fail with it.
The gate copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, checks that every listed test passes there
unmutated, and then, one mutant at a time, applies it to the copy, runs
its tests and puts the file back.  It never edits a test.

    python tests/mutants.py

It prints one line per mutant and exits 1 if a mutant survives (its tests
all pass), if its old text is not found exactly once, or if the unmutated
tests fail; else 0.  A survivor is a missing test.  pytest does not
collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BOUNDS = "src/groupapprox/bounds.py"
ERRORS = "src/groupapprox/errors.py"
GROUPS = "src/groupapprox/groups.py"
JK = "src/groupapprox/jk.py"
MORPHISMS = "src/groupapprox/morphisms.py"
SEARCH = "src/groupapprox/search.py"

# seconds a mutant's test files may run before the mutant counts as killed
MUTANT_TIMEOUT_S = 300

# (name, file, old text, new text, test files or ids that must fail)
MUTANTS = (
    (
        "integer check: a bool accepted",
        ERRORS,
        "if isinstance(value, bool):",
        "if False:",
        ("tests/test_errors.py",),
    ),
    (
        "integer check: the low bound read as low - 1",
        ERRORS,
        "if low is not None and n < low:",
        "if low is not None and n < low - 1:",
        ("tests/test_errors.py",),
    ),
    (
        "integer check: the high bound ignored",
        ERRORS,
        "if high is not None and not low <= n <= high:",
        "if False:",
        ("tests/test_errors.py",),
    ),
    (
        "is_abelian: both generator products taken in the same order",
        GROUPS,
        "(self.mul_many(s, s.T) == self.mul_many(s.T, s))",
        "(self.mul_many(s, s.T) == self.mul_many(s, s.T))",
        ("tests/test_groups.py::test_derived_facts_match_the_table",),
    ),
    (
        "affine pairs: bucket constant v * w, not v * w^-1",
        MORPHISMS,
        "self.ldiv = self.mul[:, self.inverse]",
        "self.ldiv = self.mul",
        ("tests/test_morphisms.py", "tests/test_search.py"),
    ),
    (
        "affine pairs: row(j) reads i and c swapped",
        MORPHISMS,
        "return self.mul[j % self.m1].take(self.endo[j // self.m1])",
        "return self.mul[j // self.m1].take(self.endo[j % self.m1])",
        ("tests/test_morphisms.py", "tests/test_search.py"),
    ),
    (
        "affine pairs: a counter-mode column kept under the position before",
        MORPHISMS,
        "col = columns[x] = self.column(x)",
        "col = columns[x - 1] = self.column(x)",
        ("tests/test_morphisms.py", "tests/test_search.py"),
    ),
    (
        "affine pairs: the table cell cap not checked",
        MORPHISMS,
        "if cells > MAX_TABLE_CELLS:",
        "if False:",
        ("tests/test_morphisms.py",),
    ),
    (
        "affine path counts: the right quotient x_t x^-1 for x^-1 x_t",
        MORPHISMS,
        "quotient[x].take(xs)",
        "self.ldiv[:, x].take(xs)",
        ("tests/test_morphisms.py", "tests/test_search.py"),
    ),
    (
        "affine path counts: g(x_t) v^-1 for v^-1 g(x_t)",
        MORPHISMS,
        "quotient[v].take(gs)",
        "self.ldiv[:, v].take(gs)",
        ("tests/test_morphisms.py", "tests/test_search.py"),
    ),
    (
        "affine path counts: a row listed past k, not at it",
        MORPHISMS,
        "i = np.flatnonzero(agree >= k)",
        "i = np.flatnonzero(agree > k)",
        ("tests/test_morphisms.py", "tests/test_search.py"),
    ),
    (
        "affine pairs: at(rows, x) reads i and c swapped",
        MORPHISMS,
        "rows % n * n + self.endo[:, x].take(rows // n)",
        "rows // n * n + self.endo[:, x].take(rows % n)",
        ("tests/test_morphisms.py", "tests/test_search.py"),
    ),
    (
        "affine path counts: the point x^-1 y = 1 not counted",
        MORPHISMS,
        "np.full(len(self.endo), np.count_nonzero(ws[same] == 0),",
        "np.full(len(self.endo), 0,",
        ("tests/test_morphisms.py", "tests/test_search.py"),
    ),
    (
        "difference criterion: agreement asked on |X| - 1 points of X",
        SEARCH,
        "xs, gs, len(xs))",
        "xs, gs, len(xs) - 1)",
        ("tests/test_search.py",),
    ),
    (
        "image sets: an orbit's set written only to its leader",
        MORPHISMS,
        "    sets = seen[of]\n",
        "    sets = np.zeros((n, n), dtype=bool)\n"
        "    sets[[orbit[0] for orbit in orbits]] = seen\n",
        ("tests/test_search.py",),
    ),
    (
        "universal tuples: the subgroup mask taken after the candidate is "
        "appended",
        SEARCH,
        "if not inside[w]]",
        "if not _generated(g, prefix + [w])[w]]",
        ("tests/test_search.py",),
    ),
    (
        "universal tuples: the subgroup mask of the prefix without its last "
        "coordinate",
        SEARCH,
        "inside = _generated(g, prefix) if",
        "inside = _generated(g, prefix[:-1]) if",
        ("tests/test_search.py",),
    ),
    (
        "universal tuples: the subgroup rule on in the trivial group",
        SEARCH,
        "_generated(g, prefix) if n > 1 else np.zeros(n, dtype=bool)",
        "_generated(g, prefix)",
        ("tests/test_search.py",),
    ),
    (
        "universal tuples: a later hit at a depth recorded",
        SEARCH,
        "if j + 1 > deepest:",
        "if j + 1 >= deepest:",
        ("tests/test_search.py",),
    ),
    (
        "coset pins: applied to a non-abelian group's universal tuple",
        SEARCH,
        'elif lb.kind == "universal-tuple" and g.is_abelian():',
        'elif lb.kind == "universal-tuple":',
        ("tests/test_search.py",),
    ),
    (
        "coset pins: taken at 1..l, not at the universal tuple",
        SEARCH,
        "pinned = dict.fromkeys(lb.evidence, 0)",
        "pinned = dict.fromkeys(range(1, len(lb.evidence) + 1), 0)",
        ("tests/test_search.py",),
    ),
    (
        "coset pins: applied to the affine metric, translations still on",
        SEARCH,
        '    elif lb.kind == "universal-tuple" and g.is_abelian():\n'
        "        pinned = dict.fromkeys(lb.evidence, 0)",
        '    if lb.kind == "universal-tuple" and g.is_abelian():\n'
        "        pinned = {**(pinned or {}), **dict.fromkeys(lb.evidence, 0)}",
        ("tests/test_search.py",),
    ),
    (
        "search: the pins left off the path a family is counted along",
        BOUNDS,
        "reaching(positions[i], v, path[:end],\n"
        "                                   path_values[:end], k)",
        "reaching(positions[i], v, path[len(pinned):end],\n"
        "                                   path_values[len(pinned):end], k)",
        ("tests/test_search.py",),
    ),
    (
        "search: the deepening started at start whatever the pinned counts",
        BOUNDS,
        "k = max(start, int(base_counts.max(initial=0)))",
        "k = start",
        ("tests/test_bounds.py",),
    ),
    (
        "plain rows: at(rows, x) reads the column before x",
        BOUNDS,
        "return self.tables[:, x].take(rows)",
        "return self.tables[:, x - 1].take(rows)",
        ("tests/test_bounds.py", "tests/test_morphisms.py"),
    ),
    (
        "plain rows: every position reported to take every value",
        BOUNDS,
        "    def values(self, x):\n        return self.taken[x]",
        "    def values(self, x):\n        return slice(None)",
        ("tests/test_bounds.py",),
    ),
    (
        "translations: the value table read as the identity (no re-pinning)",
        BOUNDS,
        "quotient = quotient.tolist()",
        "quotient = [list(range(m2))] * m2",
        ("tests/test_search.py",),
    ),
    (
        "translations: pruned when the translate is lex-larger",
        BOUNDS,
        "            if s < w:\n",
        "            if s > w:\n",
        ("tests/test_search.py",),
    ),
    (
        "translations: a tied map not filed for its next comparison",
        BOUNDS,
        "files[d].append((row, anchor, c))\n"
        "                    filed.append(d)",
        "pass",
        ("tests/test_search.py",),
    ),
    (
        "translations: filings not undone on backtrack",
        BOUNDS,
        "                for d in filed:\n                    files[d].pop()\n"
        "                continue",
        "                continue",
        ("tests/test_search.py",),
    ),
    (
        "translations: filings not undone when a value is rejected",
        BOUNDS,
        "                for d in filed:\n                    files[d].pop()\n"
        "                return None",
        "                return None",
        ("tests/test_search.py",),
    ),
    (
        "J(p, lambda) class scan: diagonal left on its rows",
        JK,
        "hit @ weights - hit.diagonal(lo)",
        "hit @ weights",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) class scan: pairs whose quotient reads 0 counted",
        JK,
        "hit = _coset_mask(qd, qe) & (qd != 0)",
        "hit = _coset_mask(qd, qe)",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) class scan: class sizes not weighed",
        JK,
        "hit @ weights - hit.diagonal(lo)",
        "hit.sum(axis=1) - hit.diagonal(lo)",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) central pass: the diagonal pairs (y, y) kept",
        JK,
        "hit[same, np.arange(zy.size), zy] = False",
        "pass",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) central pass: the diagonal also dropped where qy != qx",
        JK,
        "same = np.flatnonzero(qy == qx)[:, None]",
        "same = np.arange(qy.size)[:, None]",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) central pass: c(-qy, qx) read as c(qy, qx)",
        JK,
        "_, zd = g._mul_rows(ny, nzy, qx)",
        "_, zd = g._mul_rows(y[0], nzy, qx)",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) central pairs of a pair scan: c(-qy, qx) read as c(qy, qx)",
        JK,
        "_, zd = g._mul_halves(ny, nzy, qx, zx)",
        "_, zd = g._mul_halves(y[0], nzy, qx, zx)",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) row form: _add's column read at c(qy, qx)",
        JK,
        "enumerate(np.take(self._cocycle, q).ravel())",
        "enumerate(np.take(self._cocycle, "
        "self._pair(np.take(self._neg, qa), qb)).ravel())",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) sampled draws: x wrapped past n, not from n on",
        JK,
        "xs -= np.multiply(xs >= n, n, dtype=index)",
        "xs -= np.multiply(xs > n, n, dtype=index)",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) central pairs: y's halves read where f(y)'s belong",
        JK,
        "g._mul_halves(*g._inv_halves(*fy), *fx)",
        "g._mul_halves(*g._inv_halves(*y), *fx)",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) reachability: central e left out for noncentral d",
        JK,
        "return (qe == 0) | (qe == qd)",
        "return qe == qd",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) full scan: rows without a count named by _record",
        JK,
        "ys = np.flatnonzero(counts)[:MAX_RECORDED_VIOLATIONS, None]",
        "ys = np.flatnonzero(counts >= 0)[:MAX_RECORDED_VIOLATIONS, None]",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) reachability: e = 0 left out for central d",
        JK,
        "return (qe == 0) & ((ze == 0) | (ze == zd))",
        "return (qe == 0) & (ze == zd)",
        ("tests/test_jk.py",),
    ),
    (
        "Singer search: the order test by (p^4 - 1)/2 dropped",
        JK,
        "exponents = [full // q for q in _prime_factors(full)]",
        "exponents = [full // q for q in _prime_factors(full)[1:]]",
        ("tests/test_jk.py",),
    ),
    (
        "Singer search: order dividing p^4 - 1 not required",
        JK,
        "primitive = ones[0] & ~ones[1:].any(axis=0)",
        "primitive = ~ones[1:].any(axis=0)",
        ("tests/test_jk.py",),
    ),
    (
        "Singer search: the squaring chain stops one bit early",
        JK,
        "for bit in range(int(es.max()).bit_length()):",
        "for bit in range(int(es.max()).bit_length() - 1):",
        ("tests/test_jk.py",),
    ),
    (
        "Singer search: the last primitive candidate of a chunk taken",
        JK,
        "return make_sigma(p, comp[first[0]])",
        "return make_sigma(p, comp[first[-1]])",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) carrier: the carry of digit b2 left out of the cocycle",
        JK,
        "            for i in range(4):\n                if self._carry[i, j]:",
        "            for i in range(3):\n                if self._carry[i, j]:",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) carrier: a cocycle digit not reduced mod p",
        JK,
        "cocycle += (central % p * weight[j]).astype(dtype)",
        "cocycle += (central * weight[j]).astype(dtype)",
        ("tests/test_jk.py",),
    ),
    (
        "J(p, lambda) carrier: the l2 digit left out of the addition",
        JK,
        "for pair in ((0, 1), (2, 3))",
        "for pair in ((0, 1), (2,))",
        ("tests/test_jk.py",),
    ),
    (
        "enumeration: no edge of a newly reached element checked",
        MORPHISMS,
        "ok &= cols[y] == image",
        "pass",
        ("tests/test_morphisms.py",),
    ),
    (
        "enumeration: the sort skipped whatever the generators",
        MORPHISMS,
        "if not ordered:",
        "if False:",
        ("tests/test_morphisms.py",),
    ),
    (
        "enumeration: new elements' edges by the new generator only",
        MORPHISMS,
        "for s in gens if i >= old else (t,):",
        "for s in (t,):",
        ("tests/test_morphisms.py",),
    ),
)


def _outcome(copy: Path, files, timeout: float | None = None) -> str:
    """"passed" if the test files all pass in the copy, "failed" at the
    first failure, "timed out" past ``timeout`` seconds (the run killed).
    Hypothesis runs under the ``mutants`` profile of tests/conftest.py, so
    a failing example ends the run unshrunk."""
    # no bytecode cache: a mutant and its restore may share an mtime
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *files],
            cwd=copy, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for folder in ("src", "tests"):
            shutil.copytree(ROOT / folder, copy / folder, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        files = sorted({f for mutant in MUTANTS for f in mutant[4]})
        if _outcome(copy, files) != "passed":
            print(f"the unmutated tests fail: {' '.join(files)}")
            return 1
        failures = 0
        for name, path, old, new, tests in MUTANTS:
            target = copy / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"STALE     {name}: old text found {text.count(old)} "
                      f"times in {path}")
                failures += 1
                continue
            target.write_text(text.replace(old, new), encoding="utf-8")
            t0 = time.perf_counter()
            try:
                outcome = _outcome(copy, tests, MUTANT_TIMEOUT_S)
            finally:
                target.write_text(text, encoding="utf-8")
            verdict = {"passed": "SURVIVED", "failed": "killed",
                       "timed out": "timed out"}[outcome]
            print(f"{verdict:<9} {name} ({time.perf_counter() - t0:.1f} s)")
            failures += outcome == "passed"
    print(f"{len(MUTANTS)} mutants, {failures} not killed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

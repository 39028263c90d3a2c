"""Every name a module imports is read somewhere in that module, and the
private names one module imports from another are a fixed list."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def _unused_imports(path: str) -> list[str]:
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    # a package's relative imports are the names it exports
    package = path.endswith("__init__.py")
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if package and node.level:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("path", FILES)
def test_every_import_is_read(path):
    assert _unused_imports(path) == [], path


def test_every_private_helper_is_read_in_src():
    # a private function or class that only tests call belongs in
    # tests/_oracles.py; a read is a loaded name or an attribute
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "groupapprox").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert {name: at for name, at in defined.items() if name not in read} == {}


# the private names a module imports from a sibling, each a seam between
# two modules: a new one fails here, so it is seen in review
PRIVATE_IMPORTS = {
    ("bounds", "errors", "_integer"),
    ("cli", "errors", "_integer"),
    ("cli", "groups", "_INT_TOKEN"),
    ("cli", "groups", "_int_list"),
    ("cli", "groups", "_read_text"),
    ("cli", "groups", "_shown"),
    ("groups", "errors", "_integer"),
    ("jk", "errors", "_integer"),
    ("jk", "groups", "_is_prime"),
    ("morphisms", "groups", "_per_carrier"),
    ("reporting", "groups", "_spec_files"),
    ("search", "bounds", "_min_max"),
    ("search", "bounds", "_Rows"),
    ("search", "errors", "_integer"),
    ("search", "groups", "_generated"),
    ("search", "groups", "_per_carrier"),
    ("witnesses", "errors", "_integer"),
    ("witnesses", "groups", "_dense"),
    ("witnesses", "groups", "_is_prime"),
    ("witnesses", "groups", "_prime_power"),
}


def test_private_imports_are_the_listed_seams():
    found = set()
    for path in (ROOT / "src" / "groupapprox").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.stem, node.module, alias.name)
                          for alias in node.names if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS


def test_package_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, which only the result cache needs
    code = "import sys, groupapprox; print('hashlib' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.stdout.strip() == "False", proc.stderr

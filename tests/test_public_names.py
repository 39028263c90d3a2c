"""Each module keeps one list of its public names: ``__all__``."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "groupapprox"
# every module but the package and entry-point dunders
MODULES = sorted(
    path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__")
)


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("stem", MODULES)
def test_all_lists_every_public_def_and_resolves(stem):
    module = importlib.import_module(f"groupapprox.{stem}")
    for name in module.__all__:
        assert hasattr(module, name), f"{stem}.__all__ names missing {name}"
    public = {
        node.name
        for node in _tree(stem).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert public <= set(module.__all__), sorted(public - set(module.__all__))


def test_package_imports_only_listed_names():
    for node in _tree("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"groupapprox.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (node.module, alias.name)

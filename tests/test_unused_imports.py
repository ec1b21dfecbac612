"""No module of the package imports a name it never reads.

Two kinds of import are exempt: the re-exports of a package's
``__init__.py``, and the names the benchmark's traced mode wraps on a module
(``perfbench/spans.py``, ``WRAP_POINTS``), which must stay bound there even
when the module itself no longer calls them."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridtop"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)


def _wrapped_names(monkeypatch) -> dict[str, set[str]]:
    """Module name -> the names the benchmark wraps on it (an "A.b" wrap
    point binds A)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    wrapped: dict[str, set[str]] = {}
    for module, attr, *_ in importlib.import_module("spans").WRAP_POINTS:
        wrapped.setdefault(module, set()).add(attr.partition(".")[0])
    return wrapped


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports of ``source`` bind and that the
    module never reads."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.partition(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=_module_name)
def test_no_module_imports_a_name_it_never_reads(path, monkeypatch):
    wrapped = _wrapped_names(monkeypatch).get(_module_name(path), set())
    assert [name for name in unused_imports(path.read_text()) if name not in wrapped] == []


def test_the_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom a.b import c, d\nprint(c, os)\n"
    assert unused_imports(source) == ["d", "system"]

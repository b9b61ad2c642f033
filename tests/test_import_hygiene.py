"""Every module-level import in the package is used by its module.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead. `__init__.py` only re-exports, and a line marked
`# noqa: F401` is a deliberate re-export too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opdiv"


def _module_imports(body):
    """The import statements of a module body, including those under a
    top-level `if` or `try` (such as `if TYPE_CHECKING:`)."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _module_imports(node.body + node.orelse + node.finalbody)


def _exported(tree) -> set:
    """The names listed in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _names(tree) -> set:
    """Every name the tree reads, including those in string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import that the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _names(tree) | _exported(tree)
    unused = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            if "# noqa: F401" in lines[line - 1] or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((line, name))
    return unused


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING\n"
        "from .kernels import PD_FLOOR  # noqa: F401\n"
        "from .errors import (\n"
        "    BadRange,\n"
        "    SizeLimit,\n"
        ")\n"
        "if TYPE_CHECKING:\n"
        "    from .lab import GenConfig\n"
        "    from .hermitian import HermitianMatrix\n"
        "__all__ = ['SizeLimit']\n"
        "def f(x: 'HermitianMatrix') -> float:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "math"), (7, "BadRange"), (11, "GenConfig")]

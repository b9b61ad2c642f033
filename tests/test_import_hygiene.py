"""Every module-level import in the package is used by its module, no
module imports another module's private name, every private module-level
helper is used somewhere in the package, and no source line is wider
than LINE_WIDTH columns.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead. `__init__.py` only re-exports, and a line marked
`# noqa: F401` is a deliberate re-export too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opdiv"
LINE_WIDTH = 100


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


def private_imports(source: str) -> list:
    """(line, name) of each private name (`_name`) that the source
    imports from another module of the package (`from .module import`)."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_no_private_name(module):
    assert private_imports((PACKAGE / module).read_text()) == []


def test_private_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "from . import kernels as K\n"
        "from .kernels import PD_FLOOR, _helper\n"
        "from .lab import __all__\n"
        "from numpy import _private\n"
        "def f():\n"
        "    from .batched import (\n"
        "        _Draw,\n"
        "    )\n"
    )
    assert private_imports(source) == [(3, "_helper"), (7, "_Draw")]


def _private_definitions(tree):
    """(statement, name) of each module-level function, class or
    assignment whose name starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for n in nodes for t in ast.walk(n) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


def _references(tree):
    """(line, name) of every name the tree reads, every attribute it reads
    and every name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name


def orphaned_helpers(sources: dict) -> list:
    """(module, line, name) of each private module-level name (`_name`) of
    the modules `sources` (module -> source) that no module refers to
    outside the statement that defines it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = [
        (module, line, name) for module, tree in trees.items() for line, name in _references(tree)
    ]
    orphans = []
    for module, tree in sorted(trees.items()):
        for node, name in _private_definitions(tree):
            span = range(node.lineno, node.end_lineno + 1)
            outside = (n == name and (m != module or line not in span) for m, line, n in references)
            if not any(outside):
                orphans.append((module, node.lineno, name))
    return orphans


def test_package_has_no_orphaned_helpers():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert orphaned_helpers(sources) == []


def test_orphaned_helpers_are_found():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_UNUSED, __dunder__ = 2, 3\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) + _USED\n"
            "class _Imported:\n"
            "    pass\n"
            "def _attribute():\n"
            "    pass\n"
            "def public():\n"
            "    pass\n"
        ),
        "b.py": "from .a import _Imported\nimport a\na._attribute()\n",
    }
    assert orphaned_helpers(sources) == [("a.py", 2, "_UNUSED"), ("a.py", 3, "_recursive")]


def long_lines(source: str) -> list:
    """(line, width) of each line of `source` wider than LINE_WIDTH."""
    lines = enumerate(source.splitlines(), start=1)
    return [(i, len(line)) for i, line in lines if len(line) > LINE_WIDTH]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_lines_fit_the_width(module):
    assert long_lines((PACKAGE / module).read_text()) == []


def test_long_lines_are_found():
    source = "x = 1\n" + "#" * LINE_WIDTH + "\n" + "#" * (LINE_WIDTH + 1) + "\n"
    assert long_lines(source) == [(3, LINE_WIDTH + 1)]

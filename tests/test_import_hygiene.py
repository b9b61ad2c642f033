"""Every module-level import in the package is used by its module, no
module imports another module's private name, every private module-level
helper is used somewhere in the package, no source line is wider than
LINE_WIDTH columns, only the trial loop folds link margins, one helper
of `batched` writes the chain through subunital maps, no evaluate of
`batched` splits a perspective at its eigensolver dispatch, `batched`
passes no `_payload` as a value, only `kernels.inner` and
`kernels.sandwich` write the perspective's two-sided product, only
`lab.records` opens a trial's RNG stream, no draw of `batched` picks its
own function, no test draws a trial but through
`lab.records`, only `kernels.values` evaluates a function outside
`funcatalog` and only kernels call it, `batched` and `lab` hold no
`np.errstate`, `funcatalog` compares no matrices, only `kernels`
handles a decomposition before its guards, and no `HermitianMatrix` is
written after it is built. The benchmark's tracer
(`bench/tracer.py`) finds every function and method it wraps under the
name it looks up.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead. `__init__.py` only re-exports, and a line marked
`# noqa: F401` is a deliberate re-export too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "opdiv"
TRACER = PACKAGE.parent.parent / "bench" / "tracer.py"
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


def fold_calls(source: str) -> list:
    """(line, owner) of each call to `fold` in `source`, by bare name or as
    an attribute (`K.fold`), in line order: `owner` is the module-level
    function or class the call sits in, None at module level."""
    calls = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "fold":
                    calls.append((call.lineno, owner))
    return sorted(calls)


def test_links_fold_only_in_the_trial_loop():
    """`kernels.run_trials` is the one place that folds link margins, so
    no evaluate folds its own links or ORs in a flag."""
    owners = [
        (p.name, owner)
        for p in sorted(PACKAGE.glob("*.py"))
        for _, owner in fold_calls(p.read_text())
    ]
    assert owners == [("kernels.py", "run_trials")]


def test_fold_calls_are_found():
    source = (
        "from . import kernels as K\n"
        "from .kernels import fold\n"
        "def run_trials(m, u):\n"
        "    return fold(m, u)\n"
        "def _eval(m, u):\n"
        "    worst = K.fold(m, u)[0]\n"
        "    return [kernels.fold(x, u) for x in m], unfold(m), K.fold\n"
        "class _Check:\n"
        "    def evaluate(self, m, u):\n"
        "        return K.fold(m, u)\n"
        "x = fold(1, 2)\n"
    )
    assert fold_calls(source) == [
        (4, "run_trials"), (6, "_eval"), (7, "_eval"), (10, "_Check"), (11, None)
    ]


def name_uses(source: str, names) -> list:
    """(line, owner, name) of each reference in `source` to one of `names`,
    by bare name or as an attribute (`K.fold`), called or passed, in line
    order: `owner` is the module-level function or class the reference
    sits in, None at module level."""
    uses = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        for ref in ast.walk(node):
            name = ref.id if isinstance(ref, ast.Name) else getattr(ref, "attr", None)
            if isinstance(ref, (ast.Name, ast.Attribute)) and name in names:
                uses.append((ref.lineno, owner, name))
    return sorted(uses)


def test_the_subunital_chain_is_written_once():
    """In `batched`, the guarded h(R) (`h_decomposition`) appears only in
    `_cdj_side`, the one side of the Choi-Davis-Jensen chain through
    subunital maps, so the chain cannot be copied back into an evaluate."""
    uses = name_uses((PACKAGE / "batched.py").read_text(), {"h_decomposition"})
    assert {owner for _, owner, _ in uses} == {"_cdj_side"}


def test_no_evaluate_splits_a_perspective():
    """In `batched`, the perspective's inner step and last step (`inner`,
    `sandwich`) appear only in `_eval_kl`, which takes several functions
    of one inner matrix and whose direct formula reuses R^{-1/2} from
    `inner`. Every other perspective, `_perspectives` included, is one
    `kernels.perspective` call, so no evaluate splits a perspective at its
    eigensolver dispatch to decompose other stacks in it."""
    uses = name_uses((PACKAGE / "batched.py").read_text(), {"inner", "sandwich"})
    assert {owner for _, owner, _ in uses} == {"_eval_kl"}


def passed_values(source: str, name: str) -> list:
    """(line, owner) of each reference in `source` to `name`, by bare name
    or as an attribute, that is not the callee of a call: passed as an
    argument, assigned, returned or stored, in line order. `owner` is the
    module-level function or class it sits in, None at module level."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        callees = {id(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)}
        for ref in ast.walk(node):
            ref_name = ref.id if isinstance(ref, ast.Name) else getattr(ref, "attr", None)
            if isinstance(ref, (ast.Name, ast.Attribute)) and ref_name == name:
                if id(ref) not in callees:
                    found.append((ref.lineno, owner))
    return sorted(found)


def test_payloads_are_built_only_when_called():
    """In `batched`, `_payload` is only called, in an evaluate's
    `payload(i)`, and never passed as a value, so no evaluate binds a
    payload per trial (`partial(_payload, ...)`): the trial loop keeps one
    function of the trial index and builds the worst trial's payload
    alone."""
    assert passed_values((PACKAGE / "batched.py").read_text(), "_payload") == []


def test_passed_values_are_found():
    source = (
        "def _payload(**parts):\n"
        "    return parts\n"
        "def _eval_thm3_8(group, a):\n"
        "    return [partial(_payload, A=x) for x in a], lambda i: _payload(A=a[i])\n"
        "def _eval_kl(B, group):\n"
        "    build = _payload\n"
        "    return build(), B._payload, B._payload(L=1), B._payloads\n"
        "class _Check:\n"
        "    payload = _payload\n"
        "PAYLOADS = {'x': _payload}\n"
    )
    assert passed_values(source, "_payload") == [
        (4, "_eval_thm3_8"), (6, "_eval_kl"), (7, "_eval_kl"), (9, "_Check"), (10, None)
    ]


def test_only_lab_records_seeds_a_trial():
    """In the package, a check's trial stream (`_trial_rng`) is opened only
    in `lab.records`, so every trial is drawn as `run_check` draws it, and a
    replayed trial is the reported one."""
    uses = [
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, owner, _ in name_uses(path.read_text(), {"_trial_rng"})
    ]
    assert set(uses) == {("lab.py", "records")}


# The function pools a check declares (`lab._Check.pool`).
_F_POOLS = {"_CONVEX_POOL", "_F0_POOL", "_DIFF_POOL", "_NORM_POOL"}


def draw_pool_uses(source: str) -> list:
    """(line, owner, name) of each module-level draw (`_draw_...`) of
    `source` that takes an argument `f_over` or names an f pool
    (`_F_POOLS`), in line order."""
    draws = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_draw")
    }
    found = [use for use in name_uses(source, _F_POOLS) if use[1] in draws]
    for owner, node in draws.items():
        args = (a for a in ast.walk(node.args) if isinstance(a, ast.arg))
        found += [(a.lineno, owner, a.arg) for a in args if a.arg == "f_over"]
    return sorted(found)


def test_no_draw_picks_its_function():
    """Only `lab.records` picks a trial's function: the caller's override,
    or the entry of the pool its check declares (`lab._Check.pool`). No
    draw of `batched` takes the override (`f_over`) or names an f pool, so
    no draw can pick an f of its own or ignore the one it is given."""
    assert draw_pool_uses((PACKAGE / "batched.py").read_text()) == []


def test_draw_pool_uses_are_found():
    source = (
        "_CONVEX_POOL = (1, 2)\n"
        "def _draw_thm2_1(rng, trial, cfg, f_over):\n"
        "    return f_over or _CONVEX_POOL[trial % 2]\n"
        "def _draw_cor2_9(rng, trial, cfg, f):\n"
        "    return f, B._F0_POOL, _H_POOL\n"
        "def _h(trial):\n"
        "    return _H_POOL[trial // len(_F0_POOL)]\n"
        "def _pick(pool, trial, f_over):\n"
        "    return f_over or pool[trial]\n"
        "def _draw_jensen(rng, trial, cfg, f, *, f_over=None):\n"
        "    return [_NORM_POOL, _DIFF_POOL][trial]\n"
    )
    assert draw_pool_uses(source) == [
        (2, "_draw_thm2_1", "f_over"),
        (3, "_draw_thm2_1", "_CONVEX_POOL"),
        (5, "_draw_cor2_9", "_F0_POOL"),
        (10, "_draw_jensen", "f_over"),
        (11, "_draw_jensen", "_DIFF_POOL"),
        (11, "_draw_jensen", "_NORM_POOL"),
    ]


def _draw_names() -> set:
    """`draw`, a registered check's draw, and every module-level draw of
    `batched` (`_draw_...`)."""
    tree = ast.parse((PACKAGE / "batched.py").read_text())
    draws = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    return {"draw"} | {name for name in draws if name.startswith("_draw")}


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_tests_draw_only_through_lab_records(module):
    """No test opens a trial stream (`_trial_rng`) or calls a check's draw:
    the tests draw records through `lab.records` and evaluate them through
    `lab.evaluate`, as `run_check` does, so they test the one trial loop
    and cannot drift from it."""
    source = (TESTS / module).read_text()
    assert name_uses(source, {"_trial_rng"} | _draw_names()) == []


def eval_array_callers(sources: dict) -> list:
    """(module, owner) of each reference to `eval_array` in the modules
    `sources` (module -> source) but `funcatalog.py`, which defines it, in
    module and line order, each once."""
    found = []
    for module, source in sorted(sources.items()):
        if module != "funcatalog.py":
            for _, owner, _ in name_uses(source, {"eval_array"}):
                if (module, owner) not in found:
                    found.append((module, owner))
    return found


def test_functions_meet_numbers_in_one_evaluator():
    """Outside `funcatalog`, only `kernels.values` evaluates a function
    (`eval_array`): the functional calculus and the scalar sides of the
    checks go through it, so rows are grouped by function, clamped onto a
    domain and refused when non-finite in one place."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert eval_array_callers(sources) == [("kernels.py", "values")]


def test_eval_array_callers_are_found():
    sources = {
        "funcatalog.py": (
            "class F:\n"
            "    def eval_scalar(self, x):\n"
            "        return self.eval_array(x)\n"
        ),
        "kernels.py": (
            "def values(f, x):\n"
            "    return f.eval_array(x)\n"
            "def _evaluate(f, vals):\n"
            "    return f.eval_array(vals), f.eval_array(-vals)\n"
        ),
        "batched.py": (
            "def _eval(fs, x):\n"
            "    return [g.eval_array for g in fs]\n"
            "EVAL = F.eval_array\n"
        ),
    }
    assert eval_array_callers(sources) == [
        ("batched.py", "_eval"),
        ("batched.py", None),
        ("kernels.py", "values"),
        ("kernels.py", "_evaluate"),
    ]



def kernel_uses(sources: dict, name: str) -> list:
    """(module, owner) of each reference to the kernel `name` in the
    modules `sources` (module -> source) but `kernels.py`: through the
    module (`K.values`, `kernels.values`) or imported from it (`from
    .kernels import values`), in module and line order, each once. An
    attribute of anything else of that name (`groups.values()`) is not
    one."""
    found = []
    for module, source in sorted(sources.items()):
        if module == "kernels.py":
            continue
        tree = ast.parse(source)
        through, direct = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if node.module is None and alias.name == "kernels":
                        through.add(alias.asname or alias.name)
                    elif node.module == "kernels" and alias.name == name:
                        direct.add(alias.asname or alias.name)
        uses = []
        for node in tree.body:
            owner = getattr(node, "name", None)
            for ref in ast.walk(node):
                if isinstance(ref, ast.Attribute) and ref.attr == name:
                    if isinstance(ref.value, ast.Name) and ref.value.id in through:
                        uses.append((ref.lineno, owner))
                elif isinstance(ref, ast.Name) and ref.id in direct:
                    uses.append((ref.lineno, owner))
        for _, owner in sorted(uses):
            if (module, owner) not in found:
                found.append((module, owner))
    return found


def test_only_kernels_call_values():
    """No module outside `kernels` calls `kernels.values`: the functional
    calculus and the scalar perspective (`kernels.scalar_perspective`) are
    its callers, and each holds the overflow guard around it, so no check
    evaluates a function on numbers under a guard of its own."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert kernel_uses(sources, "values") == []


def test_kernel_uses_are_found():
    sources = {
        "kernels.py": "def values(f, x):\n    return f(x)\ny = values(1, 2)\n",
        "batched.py": (
            "from . import kernels as K\n"
            "def _eval_thm3_8(fs, x, groups):\n"
            "    return K.values(fs, x), groups.values(), x.values\n"
            "def _eval_cor2_9(fs, x):\n"
            "    return K.values(fs, K.values(fs, x))\n"
            "EVAL = K.values\n"
        ),
        "lab.py": (
            "from . import kernels\n"
            "from .kernels import values as v, stack\n"
            "class _Check:\n"
            "    def evaluate(self, fs, x):\n"
            "        return kernels.values(fs, x), v(fs, x), stack(x).values\n"
        ),
        "posmap.py": "from . import hermitian as K\nz = K.values(1, 2)\n",
    }
    assert kernel_uses(sources, "values") == [
        ("batched.py", "_eval_thm3_8"),
        ("batched.py", "_eval_cor2_9"),
        ("batched.py", None),
        ("lab.py", "_Check"),
    ]


def overflow_guards(sources: dict) -> list:
    """(module, line, owner) of each reference to `errstate` in the
    modules `sources` (module -> source), in module and line order."""
    return [
        (module, line, owner)
        for module, source in sorted(sources.items())
        for line, owner, _ in name_uses(source, {"errstate"})
    ]


def test_checks_hold_no_overflow_guard():
    """The checks (`batched`) and the lab hold no `np.errstate`: a kernel
    that can overflow holds its own guard, as `scalar_perspective` and
    `field_sum` do, and refuses or leaves the non-finite value for a
    guard further on, so no check silences an overflow of its own."""
    sources = {name: (PACKAGE / name).read_text() for name in ("batched.py", "lab.py")}
    assert overflow_guards(sources) == []


def test_overflow_guards_are_found():
    sources = {
        "batched.py": (
            "import numpy as np\n"
            "def _eval_cor2_9(fs, x):\n"
            "    with np.errstate(over='ignore'):\n"
            "        return fs(x)\n"
            "GUARD = np.errstate\n"
        ),
        "lab.py": (
            "from numpy import errstate\n"
            "class _Check:\n"
            "    def evaluate(self, x):\n"
            "        with errstate(all='ignore'):\n"
            "            return x, x.errstates\n"
        ),
    }
    assert overflow_guards(sources) == [
        ("batched.py", 3, "_eval_cor2_9"),
        ("batched.py", 5, None),
        ("lab.py", 4, "_Check"),
    ]

def test_funcatalog_compares_no_matrices():
    """The catalog evaluates functions on eigenvalues and compares no
    matrices: the convexity falsifier is the lab's THM2_1
    (`lab.convexity_falsifier`), not a Loewner path of its own."""
    source = (PACKAGE / "funcatalog.py").read_text()
    assert name_uses(source, {"loewner", "loewner_compare"}) == []


def test_only_kernels_handles_an_unguarded_solve():
    """A decomposition before its guards (`kernels.solve`) and the guards
    run on it apart (`kernels.guarded`) stay inside `kernels`. Every other
    module decomposes through `decompose`, `positive` or `decompositions`,
    which guard each matrix in the call that solves it, so no facade keeps
    a raw solution or guards one in another place."""
    uses = [
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "kernels.py"
        for _, owner, _ in name_uses(path.read_text(), {"solve", "guarded"})
    ]
    assert uses == []


def attribute_writes(source: str, attr: str) -> list:
    """(line, owner) of each write to an attribute named `attr` in
    `source`: assigned, as one target of several, augmented, annotated,
    deleted or set through `setattr`, in line order. `owner` is the dotted
    path of the classes and functions the write sits in, None at module
    level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                if isinstance(child.ctx, (ast.Store, ast.Del)):
                    found.append((child.lineno, owner))
            elif isinstance(child, ast.Call) and len(child.args) > 1:
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                key = child.args[1]
                if name in ("setattr", "__setattr__") and getattr(key, "value", None) == attr:
                    found.append((child.lineno, owner))
            visit(child, owner)

    visit(ast.parse(source), None)
    return sorted(found)


def test_no_matrix_is_written_after_it_is_built():
    """A `HermitianMatrix` is built with its decomposition or without one,
    and never written afterwards: only `HermitianMatrix.__init__` and
    `HermitianMatrix._wrap` assign `_solution`. No facade keeps a
    decomposition on a matrix that another facade built."""
    writers = [
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, owner in attribute_writes(path.read_text(), "_solution")
    ]
    assert writers == [
        ("hermitian.py", "HermitianMatrix.__init__"),
        ("hermitian.py", "HermitianMatrix._wrap"),
    ]


def test_attribute_writes_are_found():
    source = (
        "class HermitianMatrix:\n"
        "    def __init__(self):\n"
        "        self._solution = None\n"
        "    def solve(self, f):\n"
        "        self._solution, n = f(self), 1\n"
        "def _entry_perspectives(sum_b, x):\n"
        "    sum_b._solution = x._solution\n"
        "    setattr(sum_b, '_solution', x)\n"
        "    object.__setattr__(sum_b, '_solution', x)\n"
        "    sum_b._solution += x\n"
        "    del sum_b._solution\n"
        "    return sum_b._solutions, x._solution, getattr(x, '_solution')\n"
        "field._solution: tuple = ()\n"
        "class PositiveDefiniteMatrix:\n"
        "    def __init__(self, base):\n"
        "        def keep(x):\n"
        "            base._solution = x\n"
    )
    assert attribute_writes(source, "_solution") == [
        (3, "HermitianMatrix.__init__"),
        (5, "HermitianMatrix.solve"),
        (7, "_entry_perspectives"),
        (8, "_entry_perspectives"),
        (9, "_entry_perspectives"),
        (10, "_entry_perspectives"),
        (11, "_entry_perspectives"),
        (13, None),
        (17, "PositiveDefiniteMatrix.__init__.keep"),
    ]


def test_name_uses_are_found():
    source = (
        "from .kernels import h_at, sandwich\n"
        "def _cdj_links(K, x):\n"
        "    return K.decompositions(K.h_at(x), positive=K.h_positive)\n"
        "def _eval(K, x):\n"
        "    y = h_at(x)\n"
        "    return _inner(y), K.h_atx(x), x.h_positive\n"
        "class _Check:\n"
        "    def evaluate(self, K):\n"
        "        return K.h_at\n"
        "z = h_at(1)\n"
        "def _split(K, x):\n"
        "    return sandwich(K.inner(x), x.inners)\n"
        "def records(check_id, gen):\n"
        "    return [_trial_rng(gen.seed, check_id, t) for t in gen.trials]\n"
        "def _replay(lab, B, gen, rng):\n"
        "    check = lab._REGISTRY['THM2_1']\n"
        "    x = check.draw(lab._trial_rng(0, 'THM2_1', 0), 0, gen, None)\n"
        "    return B._draw_thm2_1(rng, 0, gen, None), B._draws, x.drawn, lab.records\n"
        "def convexity_falsifier(K, x):\n"
        "    return K.loewner(x, x), loewner_compare(x, x), x.loewner_margins\n"
        "def _fork(K, x):\n"
        "    return K.guarded(False, *K.solve(x)), K.solver, x.guarded_by\n"
    )
    names = {"h_at", "h_positive", "inner", "sandwich", "_trial_rng", "draw", "_draw_thm2_1"}
    names |= {"loewner", "loewner_compare", "solve", "guarded"}
    assert name_uses(source, names) == [
        (3, "_cdj_links", "h_at"),
        (3, "_cdj_links", "h_positive"),
        (5, "_eval", "h_at"),
        (6, "_eval", "h_positive"),
        (9, "_Check", "h_at"),
        (10, None, "h_at"),
        (12, "_split", "inner"),
        (12, "_split", "sandwich"),
        (14, "records", "_trial_rng"),
        (17, "_replay", "_trial_rng"),
        (17, "_replay", "draw"),
        (18, "_replay", "_draw_thm2_1"),
        (20, "convexity_falsifier", "loewner"),
        (20, "convexity_falsifier", "loewner_compare"),
        (22, "_fork", "guarded"),
        (22, "_fork", "solve"),
    ]


def _matmul_operands(node) -> list:
    """The operands of a chain of `@` products, left to right."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return _matmul_operands(node.left) + _matmul_operands(node.right)
    return [node]


def two_sided_products(source: str) -> list:
    """(line, owner) of each product `r @ X @ r` in `source`, with one name
    `r` at both ends of a chain of at least three operands, in line order:
    `owner` is the module-level function or class it sits in."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        for product in ast.walk(node):
            operands = _matmul_operands(product)
            ends = operands[0], operands[-1]
            if len(operands) >= 3 and all(isinstance(end, ast.Name) for end in ends):
                if ends[0].id == ends[1].id:
                    found.append((product.lineno, owner))
    return sorted(set(found))


def test_the_perspective_inner_step_is_written_once():
    """The two-sided product of the perspective, R^{-1/2} L R^{-1/2} and
    R^{1/2} f(X) R^{1/2}, is written only in `kernels.inner` and
    `kernels.sandwich`; every other perspective goes through them, and a
    congruence by a root through `kernels.congruence`."""
    found = {
        (path.name, owner)
        for path in PACKAGE.glob("*.py")
        for _, owner in two_sided_products(path.read_text())
    }
    assert found == {("kernels.py", "inner"), ("kernels.py", "sandwich")}


def test_two_sided_products_are_found():
    source = (
        "def inner(half, x):\n"
        "    return half @ x @ half\n"
        "def _copy(K, r, x):\n"
        "    y = K.hermitian_part(r @ (x @ r))\n"
        "    return y @ x @ x @ y, r @ x, r @ x @ y\n"
        "class _Check:\n"
        "    def evaluate(self, r, x):\n"
        "        return r @ x @ r @ x\n"
    )
    assert two_sided_products(source) == [
        (2, "inner"), (4, "_copy"), (5, "_copy"), (8, "_Check"),
    ]


def test_benchmark_tracer_finds_every_boundary():
    """The tracer looks each boundary up by module and name, and a method
    in its own class's namespace; installing it over every boundary and
    uninstalling it leaves each name bound as before."""
    spec = importlib.util.spec_from_file_location("opdiv_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    boundaries = tracer.NUMPY_BOUNDARIES + tracer.OPDIV_BOUNDARIES
    modules = {name: importlib.import_module(name) for _, name, _ in boundaries}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    traced = tracer.Tracer(boundaries)
    try:
        traced.install()
    finally:
        traced.uninstall()
    for name, module in modules.items():
        assert all(vars(module)[k] is v for k, v in before[name].items()), name

"""Every module under ``src/repro`` is reached by a command.

The roots are what ``repro`` runs: :mod:`repro.cli`, :mod:`repro.__main__`
and the module of every ``COMMANDS`` entry's ``run`` function.  From them
the closure follows every ``import`` and ``from ... import`` statement,
function-local ones included, as :mod:`ast` sees them; an ``if
TYPE_CHECKING:`` block never runs, so its imports reach nothing.
Importing ``a.b.c`` also runs ``a`` and ``a.b``'s ``__init__``.  A module
outside the closure is code no command can run: delete it, or name it in
``ALLOWED_UNREACHED`` with the reason it stays.

The examples and the benchmark scripts run only by hand, so the same
reading checks that every ``repro`` module and name they import, at any
depth, still exists.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Optional, Set

import pytest

from repro.cli import COMMANDS
from tests.test_scipy_imports import _is_type_checking

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Modules under ``src/repro`` that stay although no command reaches
#: them, each with its reason.
ALLOWED_UNREACHED: Dict[str, str] = {}


def _source_modules(src: Path = SRC) -> Dict[str, Path]:
    """Every module under ``src/repro`` by dotted name (a package by its
    own name, not ``__init__``)."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _runtime_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``node`` except those inside ``if TYPE_CHECKING:``
    (whose ``else`` branch does run)."""
    for child in ast.iter_child_nodes(node):
        yield child
        if isinstance(child, ast.If) and _is_type_checking(child.test):
            for other in child.orelse:
                yield other
                yield from _runtime_nodes(other)
        else:
            yield from _runtime_nodes(child)


def _imported_names(tree: ast.AST, module: str, is_package: bool) -> Iterator[str]:
    """Dotted names the module's imports may load: each imported module,
    and for ``from X import y`` also ``X.y``, which is a module when ``y``
    is a submodule."""
    package = module if is_package else module.rpartition(".")[0]
    for node in _runtime_nodes(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{base}.{node.module}" if node.module else base
            else:
                base = node.module
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def _root_modules() -> Set[str]:
    runs = {f"repro.experiments.{command.run.split(':')[0]}"
            for command in COMMANDS.values() if command.run}
    return {"repro.cli", "repro.__main__"} | runs


def reachable(modules: Dict[str, Path], roots: Set[str]) -> Set[str]:
    """The modules that importing ``roots`` can load, by import closure."""
    seen: Set[str] = set()
    pending = [p for root in roots for p in _with_parents(root) if p in modules]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        path = modules[name]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for imported in _imported_names(tree, name, path.name == "__init__.py"):
            pending.extend(p for p in _with_parents(imported) if p in modules)
    return seen


def test_roots_are_modules():
    modules = _source_modules()
    assert sorted(_root_modules() - set(modules)) == []
    assert len(_root_modules()) > 10


def test_every_module_is_reached_by_a_command():
    modules = _source_modules()
    unreached = set(modules) - reachable(modules, _root_modules())
    assert sorted(unreached - set(ALLOWED_UNREACHED)) == []
    assert sorted(set(ALLOWED_UNREACHED) - unreached) == [], "stale allowlist entry"


def test_closure_follows_local_imports_and_skips_type_checking():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "import repro.a\n"
        "if TYPE_CHECKING:\n    from repro.b import B\n"
        "else:\n    from repro import c\n"
        "def f():\n    from .d import g\n"
        "class C:\n    def m(self):\n        import repro.e.f\n"
    )
    names = set(_imported_names(tree, "repro.x", is_package=False))
    assert {"repro.a", "repro.c", "repro.d", "repro.d.g", "repro.e.f"} <= names
    assert not any(name.startswith("repro.b") for name in names)


# -- examples and benchmark scripts ------------------------------------------

SCRIPTS = sorted((REPO / "examples").glob("*.py")) + sorted(
    (REPO / "benchmarks").glob("*.py"))


def _module_scope_names(body) -> Iterator[str]:
    """Names a module binds when it is imported."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _module_scope_names(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_scope_names(getattr(node, field, []))


def _missing_import(modules: Dict[str, Path], node: ast.AST) -> Optional[str]:
    """What a ``repro`` import names that the package does not have."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "repro" and alias.name not in modules:
                return alias.name
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            (node.module or "").split(".")[0] == "repro"):
        if node.module not in modules:
            return node.module
        tree = ast.parse(modules[node.module].read_text(encoding="utf-8"))
        bound = set(_module_scope_names(tree.body))
        for alias in node.names:
            if alias.name not in bound and f"{node.module}.{alias.name}" not in modules:
                return f"{node.module}.{alias.name}"
    return None


def test_scripts_found():
    assert len(SCRIPTS) >= 10


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_script_imports_resolve(path):
    modules = _source_modules()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = {
        f"{node.lineno}: {name}"
        for node in ast.walk(tree)
        if (name := _missing_import(modules, node))
    }
    assert sorted(missing) == []

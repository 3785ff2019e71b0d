"""Every module and definition under ``src/repro`` must serve a run, not a test.

Modules: each must be reachable from a runtime entry point.  The entry
points are the experiment runner, the sweep service, the cube bench, the
modules the repo benchmark wraps (``perfbench/layers.py``) and the
examples.  The walk reads imports from the source (no module is
executed), including imports inside functions.  A package ``__init__``
only re-exports, so ``from pkg import Name`` reaches the module that
defines ``Name``, not every module the package re-exports: a module
that only a package's re-export list names is dead.

Definitions: each function, method and class must be named by code in
``src/``, ``perfbench/`` (not its tests) or ``examples/``.  A name, an
attribute, an imported name or a string constant that is an identifier
(``getattr(obj, "name")``) counts as a use; an ``__all__`` entry and a
package ``__init__``'s re-export do not, and dunders are exempt.  The
match is by name only, so a same-named attribute anywhere hides a dead
method: the test finds definitions nothing names, not every one that
nothing calls.
"""

import ast
import functools
import importlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "repro"

ENTRY_POINTS = {
    "repro.experiments.runner",
    "repro.service.__main__",
    "repro.experiments.bench_cube",
}

#: Modules kept although no entry point imports them, each with its reason.
ALLOWED_UNREACHABLE: Dict[str, str] = {}

#: Definitions kept although no code outside the tests names them, each
#: with its reason.
ALLOWED_UNNAMED = {
    "repro.service.client.ServiceClient.healthz": (
        "the client mirrors the served GET /healthz route"
    ),
    "repro.service.client.ServiceClient.events": (
        "the client mirrors the served GET /v1/jobs/<id>/events stream"
    ),
}


def _module_files() -> Dict[str, Path]:
    modules = {}
    for path in PACKAGE_DIR.rglob("*.py"):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _import_nodes(path: Path) -> List[ast.AST]:
    tree = ast.parse(path.read_text())
    nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not any(getattr(n, "level", 0) for n in nodes), f"relative import in {path}"
    return nodes


@functools.lru_cache(maxsize=None)
def _exports(package: str) -> Dict[str, str]:
    """``name -> source module`` of every ``from ... import`` in an ``__init__``."""
    return {
        alias.asname or alias.name: node.module
        for node in _import_nodes(MODULES[package])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _resolve(source: str, name: str) -> str:
    """The module that ``from source import name`` needs."""
    while f"{source}.{name}" not in MODULES:
        if source not in PACKAGES or name not in _exports(source):
            return source
        source = _exports(source)[name]
    return f"{source}.{name}"


def _with_parents(module: str) -> Set[str]:
    parts = module.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)} & MODULES.keys()


def _imported(nodes: Iterable[ast.AST]) -> Set[str]:
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= _with_parents(alias.name)
            continue
        found |= _with_parents(node.module)
        for alias in node.names:
            found |= _with_parents(_resolve(node.module, alias.name))
    return found


def _reachable(roots: Set[str]) -> Set[str]:
    seen: Set[str] = set()
    pending = list(roots)
    while pending:
        module = pending.pop()
        if module in seen:
            continue
        seen.add(module)
        if module not in PACKAGES:  # an __init__'s imports are its exports
            pending.extend(_imported(_import_nodes(MODULES[module])))
    return seen


def test_every_module_is_reachable_from_an_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    wrapped = {target.module for target in layers.LayerCollector().targets()}
    examples = set().union(
        *(_imported(_import_nodes(p)) for p in sorted((ROOT / "examples").glob("*.py")))
    )
    roots = ENTRY_POINTS | wrapped | examples
    assert roots <= MODULES.keys(), sorted(roots - MODULES.keys())

    live = _reachable(roots)
    dead = sorted(MODULES.keys() - live - ALLOWED_UNREACHABLE.keys())
    assert not dead, f"modules no entry point reaches: {dead}"
    stale = sorted(m for m in ALLOWED_UNREACHABLE if m not in MODULES or m in live)
    assert not stale, f"allowlisted but missing or reachable: {stale}"


def _definitions(path: Path) -> Iterator[Tuple[str, str]]:
    """``(qualified name, name)`` of every module-level function and
    class, and of every class's methods and nested classes."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(ast.parse(path.read_text()).body, "")


def _named(path: Path) -> Set[str]:
    """Every identifier a file's code names, ``__all__`` entries and a
    package ``__init__``'s re-exports aside."""
    tree = ast.parse(path.read_text())
    reexports = path.name == "__init__.py"
    exported = set()
    for statement in ast.walk(tree):
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            targets = [statement.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            exported |= {id(node) for node in ast.walk(statement.value)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and not reexports:
            names.add(node.name.rpartition(".")[2])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            names.add(node.value)
    return names


def test_every_definition_is_named_outside_the_tests():
    users = [*PACKAGE_DIR.rglob("*.py"), *(ROOT / "examples").rglob("*.py")]
    users += [
        path
        for path in (ROOT / "perfbench").rglob("*.py")
        if "tests" not in path.relative_to(ROOT / "perfbench").parts
    ]
    named = set().union(*(_named(path) for path in users))
    defined = {
        f"{module}.{qualified}": name
        for module, path in MODULES.items()
        for qualified, name in _definitions(path)
        if not (name.startswith("__") and name.endswith("__"))
    }
    unnamed = sorted(
        qualified
        for qualified, name in defined.items()
        if name not in named and qualified not in ALLOWED_UNNAMED
    )
    assert not unnamed, f"definitions only tests name: {unnamed}"
    stale = sorted(
        qualified
        for qualified in ALLOWED_UNNAMED
        if qualified not in defined or defined[qualified] in named
    )
    assert not stale, f"allowlisted but missing or named: {stale}"

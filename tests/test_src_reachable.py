"""Every module under ``src/repro`` must be reachable from a runtime entry point.

The entry points are the experiment runner, the sweep service, the cube
bench, the modules the repo benchmark wraps (``perfbench/layers.py``) and
the examples.  The walk reads imports from the source (no module is
executed), including imports inside functions.  A package ``__init__``
only re-exports, so ``from pkg import Name`` reaches the module that
defines ``Name``, not every module the package re-exports: a module
that only a package's re-export list names is dead.
"""

import ast
import functools
import importlib
from pathlib import Path
from typing import Dict, Iterable, List, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "repro"

ENTRY_POINTS = {
    "repro.experiments.runner",
    "repro.service.__main__",
    "repro.experiments.bench_cube",
}

#: Modules kept although no entry point imports them, each with its reason.
ALLOWED_UNREACHABLE = {
    "repro.isa.assembler": "the text format tests build basic blocks from",
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

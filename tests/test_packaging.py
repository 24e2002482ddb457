"""The package has no runtime dependencies, as README.md and pyproject.toml
say, and no top-level name that nothing uses."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import procsel

PACKAGE = Path(procsel.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_import_is_the_standard_library_or_procsel():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = []
    for module in modules:
        for node in ast.walk(_parse(module)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "procsel":
                    outside.append((module.name, node.lineno, name))
    assert outside == []


def test_every_top_level_name_is_used_by_the_package_or_the_benchmark():
    used = set()
    for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    orphans = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in _parse(module).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            orphans.extend(
                f"{module.name}:{name}"
                for name in names
                if name not in used and not (name.startswith("__") and name.endswith("__"))
            )
    assert orphans == []


def test_outside_the_registry_module_a_registrys_categories_are_only_iterated():
    """Every change to a registry goes through registry.py: elsewhere in the
    package, `.categories` is only the iterable of a for or a comprehension."""
    misused = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "registry.py":
            continue
        tree = _parse(module)
        iterated = {
            id(node.iter) for node in ast.walk(tree) if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
        }
        misused.extend(
            f"{module.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "categories" and id(node) not in iterated
        )
    assert misused == []

"""The package has no runtime dependencies, as README.md and pyproject.toml say."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import procsel

PACKAGE = Path(procsel.__file__).resolve().parent


def test_every_import_is_the_standard_library_or_procsel():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"), str(module))):
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

"""The README's "Library use" block runs as written, on the package's real surface."""

from __future__ import annotations

import ast
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import procsel

from conftest import GOLDEN_REPORT, LEXICON_FILE, SENDMAIL_BPMN, SENDMAIL_REGISTRY

README = Path(__file__).resolve().parent.parent / "README.md"
DOCUMENTED = {
    "DEFAULT_CONFIG",
    "ProcselError",
    "load_lexicon",
    "load_registry",
    "parse_bpmn",
    "select_for_process",
    "serialize_report",
}


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_prints_the_golden_report(tmp_path):
    shutil.copy(SENDMAIL_REGISTRY, tmp_path / "registry.json")
    shutil.copy(LEXICON_FILE, tmp_path / "lexicon.json")
    shutil.copy(SENDMAIL_BPMN, tmp_path / "process.bpmn")
    result = subprocess.run(
        [sys.executable, "-c", _library_use_block()], cwd=tmp_path, capture_output=True, timeout=60
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == GOLDEN_REPORT.read_bytes()


def test_package_exports_exactly_the_documented_names():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_library_use_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "procsel"
        for alias in node.names
    }
    assert imported == DOCUMENTED
    assert sorted(procsel.__all__) == sorted(DOCUMENTED)
    public = {
        name for name, value in vars(procsel).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == DOCUMENTED

"""The README's examples run as written: the "Library use" block on the package's
real surface, and the "File formats" JSON examples through the readers."""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import procsel
from procsel.config import DEFAULT_CONFIG, config_echo, config_from_dict
from procsel.lexicon import SynonymLexicon
from procsel.registry import _registry_from_data

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
    # the exports resolve on first access, so the surface is what dir() lists
    public = {
        name for name in dir(procsel)
        if not name.startswith("_") and not isinstance(getattr(procsel, name), types.ModuleType)
    }
    assert public == DOCUMENTED


def test_file_format_examples_pass_the_readers():
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1].split("\n## ", 1)[0]
    registry, lexicon, config = [
        json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.DOTALL)
    ]
    services = _registry_from_data(registry, "registry").iter_services()
    assert [s.service_key for _, s in services] == ["ws.15.09.2013.08.43.40"]
    assert SynonymLexicon(lexicon).synonyms("login") == {"signin"}
    assert config_echo(config_from_dict(config)) == config_echo(DEFAULT_CONFIG)

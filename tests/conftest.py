from __future__ import annotations

import os
from pathlib import Path

import pytest

from procsel import load_lexicon, load_registry, parse_bpmn

# The tests start `python -m procsel` and other Python subprocesses; let them
# import the package from src/ as this process does, with or without
# PYTHONPATH set by the caller.
SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

SENDMAIL_BPMN = FIXTURES / "sendmail.bpmn"
SENDMAIL_REGISTRY = FIXTURES / "registry_sendmail.json"
LEXICON_FILE = FIXTURES / "lexicon.json"
WSDL_FILE = FIXTURES / "authentication.wsdl"
GOLDEN_REPORT = GOLDEN / "report_sendmail.json"


@pytest.fixture()
def sendmail_registry():
    return load_registry(SENDMAIL_REGISTRY)


@pytest.fixture()
def sendmail_process():
    return parse_bpmn(SENDMAIL_BPMN.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fixture_lexicon():
    return load_lexicon(LEXICON_FILE)

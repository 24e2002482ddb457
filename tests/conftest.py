from __future__ import annotations

import os
import pyexpat
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


def nested_entities(root: str) -> str:
    """An XML document of the element `root` after a DTD that declares e0
    as ten characters and each e1 ... e10 as ten references to the one
    before: each `&e10;` in `root` expands to 10**11 characters. A parser
    bounded against entity amplification refuses the document."""
    declarations = ['<!ENTITY e0 "0123456789">'] + [
        f'<!ENTITY e{k} "{f"&e{k - 1};" * 10}">' for k in range(1, 11)
    ]
    return "<!DOCTYPE root [\n" + "\n".join(declarations) + "\n]>\n" + root


# expat bounds the amplification of its input by entities from 2.4.1 on; an
# older one would expand a nested_entities document in full
needs_amplification_bound = pytest.mark.skipif(
    pyexpat.version_info < (2, 4, 1), reason=f"{pyexpat.EXPAT_VERSION} does not bound entity amplification"
)


@pytest.fixture()
def sendmail_registry():
    return load_registry(SENDMAIL_REGISTRY)


@pytest.fixture()
def sendmail_process():
    return parse_bpmn(SENDMAIL_BPMN.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fixture_lexicon():
    return load_lexicon(LEXICON_FILE)

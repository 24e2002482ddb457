"""procsel: QoS-aware service selection for annotated BPMN 2.0 processes.

Given a business process whose service tasks carry input/output/context
annotations and a registry of candidate services with time-stamped QoS
histories, procsel ranks candidate operations per task through three
filters: context matching, functional matching with an acceptance gate,
and dynamic QoS scoring over the gated pool.

The package exports the entry points of the README's "Library use"
section and the root of its error types; every other name is imported
from the module that owns it.
"""

from .bpmn import parse_bpmn
from .config import DEFAULT_CONFIG
from .errors import ProcselError
from .lexicon import load_lexicon
from .ranking import select_for_process, serialize_report
from .registry import load_registry

__all__ = [
    "DEFAULT_CONFIG",
    "ProcselError",
    "load_lexicon",
    "load_registry",
    "parse_bpmn",
    "select_for_process",
    "serialize_report",
]

__version__ = "0.1.0"

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

from importlib import import_module as _import_module

# Each exported name and the module that owns it. A name is imported on
# first access (see __getattr__), so a process pays only for the modules
# it uses: a `procsel registry snapshot` never loads the selection stack.
_EXPORTS = {
    "DEFAULT_CONFIG": "config",
    "ProcselError": "errors",
    "load_lexicon": "lexicon",
    "load_registry": "registry",
    "parse_bpmn": "bpmn",
    "select_for_process": "ranking",
    "serialize_report": "ranking",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

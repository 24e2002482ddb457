"""Exception hierarchy. Everything user-facing derives from ProcselError."""


class ProcselError(Exception):
    """Base class for all domain errors (CLI exit code 1, HTTP 400)."""


class LexiconError(ProcselError):
    """Synonym lexicon file is malformed or contains unusable terms."""


class RegistryError(ProcselError):
    """Registry file, WSDL document or snapshot violates the data model."""


class BpmnError(ProcselError):
    """BPMN document is malformed or its annotations cannot be bound."""


class AnnotationError(BpmnError):
    """A task annotation does not follow the input/output/context grammar."""


class ConfigError(ProcselError):
    """Configuration file or override violates a config invariant."""


class ReportError(ProcselError):
    """A selection report does not contain the requested task or rank."""

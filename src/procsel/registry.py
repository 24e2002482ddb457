"""Service registry: categories, services, operations and QoS histories.

The registry is a plain JSON file (see load_registry / save_registry for
the schema) plus a snapshot log beside it, `<registry>.snapshots`: one
JSON object per line, each a QoS snapshot appended since the file was
last written (see record_snapshot). Keywords and datatypes are
normalized once at load time so that all later comparisons are plain
string work. A loaded registry is treated as an immutable snapshot
during selection; mutation (snapshot appends, imports) happens between
selections.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import stat
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path

from .errors import RegistryError
from .jsontext import dumps_indented, read_json
from .lexicon import extract_keywords

# Normalization targets for parameter datatypes. Unknown types pass through
# lowercased with any namespace prefix stripped. Without this table,
# trivially equivalent WSDL/annotation types (xsd:int vs integer) would
# never score as matching.
DATATYPE_ALIASES = {
    "string": "string",
    "str": "string",
    "int": "integer",
    "integer": "integer",
    "long": "integer",
    "bool": "boolean",
    "boolean": "boolean",
    "double": "double",
    "float": "double",
    "decimal": "double",
}


def normalize_datatype(raw: str) -> str:
    """Map a raw datatype string onto its normalized alias."""
    local = raw.strip().lower().rpartition(":")[2]
    return DATATYPE_ALIASES.get(local, local)


@dataclass(frozen=True)
class Parameter:
    """One named, typed input or output of an operation or a task.

    Frozen: an operation derives its shape and output_terms from its
    parameters when it is built, so a parameter is replaced, never edited.
    """

    name: str
    datatype: str


@dataclass(slots=True)
class QosSnapshot:
    timestamp: datetime
    availability: float
    execution_time_ms: float
    total_calls: int
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class Operation:
    """One operation of a service.

    Two fields are derived once, when the operation is built, for the
    functional gate. `shape` is its sorted input datatypes, its sorted
    output datatypes, its input names in order and its output names in
    order: everything the gate's scores read, so operations of one shape
    share one score. `output_terms` is the set of keyword tokens
    (`extract_keywords`) of its output parameter names, which the gate's
    reach check reads. So a built operation's parameter lists are not
    edited in place: a parameter added, removed, retyped or renamed
    afterwards would leave them stale. To change them, build a new
    operation (for instance with `dataclasses.replace`). Reordering a list
    in place leaves the shape naming the old order, which still keys the
    gate exactly, since no score depends on parameter order. Neither field
    is part of equality, the repr or the registry file.
    """

    name: str
    inputs: list[Parameter] = field(default_factory=list)
    outputs: list[Parameter] = field(default_factory=list)
    qos_history: list[QosSnapshot] = field(default_factory=list)
    shape: tuple[tuple[str, ...], ...] = field(init=False, compare=False, repr=False)
    output_terms: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.shape = (
            tuple(sorted(p.datatype for p in self.inputs)),
            tuple(sorted(p.datatype for p in self.outputs)),
            tuple(p.name for p in self.inputs),
            tuple(p.name for p in self.outputs),
        )
        self.output_terms = frozenset(
            term for p in self.outputs for term in extract_keywords(p.name)
        )


@dataclass
class WebService:
    name: str
    business_name: str
    business_key: str
    service_key: str
    url: str
    version: str
    operations: list[Operation] = field(default_factory=list)
    security_note: str | None = None


@dataclass
class ServiceCategory:
    name: str
    keywords: set[str]
    services: list[WebService] = field(default_factory=list)


@dataclass
class ServiceRegistry:
    categories: list[ServiceCategory] = field(default_factory=list)

    def iter_services(self):
        for category in self.categories:
            for service in category.services:
                yield category, service

    def find_service(self, service_key: str) -> tuple[ServiceCategory, WebService]:
        for category, service in self.iter_services():
            if service.service_key == service_key:
                return category, service
        raise RegistryError(f"unknown serviceKey {service_key!r}")


# --- timestamps ------------------------------------------------------------

def parse_timestamp(raw: str, context="timestamp") -> datetime:
    """Parse ISO-8601; a missing offset means UTC.

    `context` names the value in the error message: a string, or a
    record's place as the registry readers pass it (see _path).
    """
    try:
        parsed = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except (ValueError, TypeError) as exc:
        raise RegistryError(f"{_path(context)}: invalid ISO-8601 timestamp {raw!r}") from exc
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def format_timestamp(value: datetime) -> str:
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


# --- loading ---------------------------------------------------------------
#
# One pass per record. Each reader tests a field's exact JSON type inline
# and calls _expect or _number only when that test fails: they accept what
# the inline test was too strict for (an int where a float is expected, a
# missing optional field) and word every refusal. A record's place in the
# file is passed as a tuple and worded by _path only when an error is
# raised, so a record that passes builds no message text.


def _path(where) -> str:
    """Word a record's place: a string, or a (format, *places) tuple."""
    if type(where) is not tuple:
        return str(where)
    template, *parts = where
    return template.format(*map(_path, parts))


def _expect(data: dict, key: str, kinds, path, default=None, required=True):
    if key not in data:
        if required:
            raise RegistryError(f"{_path(path)}: missing required field {key!r}")
        return default
    value = data[key]
    if kinds is not None and not isinstance(value, kinds):
        raise RegistryError(f"{_path(path)}: field {key!r} has wrong type")
    return value


def _number(data: dict, key: str, path) -> float:
    value = _expect(data, key, (int, float), path)
    if isinstance(value, bool):
        raise RegistryError(f"{_path(path)}: field {key!r} has wrong type")
    try:
        return float(value)
    except OverflowError:
        # a JSON integer beyond the float range: as an infinity, the
        # snapshot check refuses it like any other out-of-bound value
        return math.inf if value > 0 else -math.inf


# The largest magnitude a QoS value may have. Scoring sums the squared
# deviations (v - mean)**2 of a pool: with |v| <= 1e100 each is at most
# (2e100)**2 = 4e200, so the sum of any pool smaller than 4e107 entries
# stays below the float maximum (about 1.8e308). A larger value, however
# finite, could overflow a pool statistic and fail the whole task.
MAX_QOS_MAGNITUDE = 1e100


def _check_snapshot(snapshot: QosSnapshot, path) -> QosSnapshot:
    """The value rules every recorded snapshot obeys, loaded or appended.

    NaN fails every bound, and so does an infinity: one would turn every
    pool statistic it enters, and so the scores of a whole task, into NaN.
    """
    if not 0.0 <= snapshot.availability <= 1.0:
        raise RegistryError(f"{_path(path)}: availability {snapshot.availability} outside [0, 1]")
    bound = MAX_QOS_MAGNITUDE
    if not 0.0 < snapshot.execution_time_ms <= bound:
        raise RegistryError(f"{_path(path)}: executionTimeMs must be positive and at most {bound:g}")
    if isinstance(snapshot.total_calls, bool) or not 0 <= snapshot.total_calls <= bound:
        raise RegistryError(f"{_path(path)}: totalCalls must be a non-negative integer at most {bound:g}")
    for name, value in snapshot.extra.items():
        if not -bound <= value <= bound:
            raise RegistryError(f"{_path(path)}: extra attribute {name!r} must be of magnitude at most {bound:g}")
    return snapshot


def _snapshot_from_dict(data: dict, where) -> QosSnapshot:
    if not isinstance(data, dict):
        raise RegistryError(f"{_path(where)}: snapshot must be an object")
    raw = data.get("timestamp")
    if type(raw) is not str:
        raw = _expect(data, "timestamp", str, where)
    timestamp = parse_timestamp(raw, where)
    availability = data.get("availability")
    if type(availability) is not float:
        availability = _number(data, "availability", where)
    execution_time_ms = data.get("executionTimeMs")
    if type(execution_time_ms) is not float:
        execution_time_ms = _number(data, "executionTimeMs", where)
    total_calls = data.get("totalCalls")
    if type(total_calls) is not int:
        total_calls = _expect(data, "totalCalls", int, where)
    extra = data.get("extra")
    if type(extra) is not dict:
        extra = _expect(data, "extra", dict, where, default={}, required=False)
    extra = {
        name: value if type(value) is float else _number(extra, name, ("{}.extra", where))
        for name, value in extra.items()
    } if extra else {}
    snapshot = QosSnapshot(timestamp, availability, execution_time_ms, total_calls, extra)
    return _check_snapshot(snapshot, where)


def _parameter_from_dict(data: dict, where, datatypes: dict[str, str]) -> Parameter:
    """`datatypes` memoizes normalize_datatype over one load."""
    if not isinstance(data, dict):
        raise RegistryError(f"{_path(where)}: parameter must be an object")
    name = data.get("name")
    if type(name) is not str:
        name = _expect(data, "name", str, where)
    if not name.strip():
        raise RegistryError(f"{_path(where)}: parameter name is empty")
    raw = data.get("datatype")
    if type(raw) is not str:
        raw = _expect(data, "datatype", str, where)
    datatype = datatypes.get(raw)
    if datatype is None:
        datatype = datatypes[raw] = normalize_datatype(raw)
    if not datatype:
        raise RegistryError(f"{_path(where)}: parameter {name!r} has an empty datatype")
    return Parameter(name, datatype)


def _operation_from_dict(data: dict, where, datatypes: dict[str, str]) -> Operation:
    if not isinstance(data, dict):
        raise RegistryError(f"{_path(where)}: operation must be an object")
    name = data.get("name")
    if type(name) is not str:
        name = _expect(data, "name", str, where)
    if not name.strip():
        raise RegistryError(f"{_path(where)}: operation name is empty")
    inputs = data.get("inputs")
    if type(inputs) is not list:
        inputs = _expect(data, "inputs", list, where, default=[], required=False)
    inputs = [
        _parameter_from_dict(p, ("{}.inputs[{}]", where, i), datatypes) for i, p in enumerate(inputs)
    ]
    outputs = data.get("outputs")
    if type(outputs) is not list:
        outputs = _expect(data, "outputs", list, where, default=[], required=False)
    outputs = [
        _parameter_from_dict(p, ("{}.outputs[{}]", where, i), datatypes) for i, p in enumerate(outputs)
    ]
    operation = Operation(name, inputs, outputs)
    qos = data.get("qos")
    if type(qos) is not list:
        qos = _expect(data, "qos", list, where, default=[], required=False)
    for i, s in enumerate(qos):
        place = ("{}.qos[{}]", where, i)
        _record(operation, _snapshot_from_dict(s, place), place)
    return operation


def _keywords_from_list(raw: list, path) -> set[str]:
    keywords: set[str] = set()
    for entry in raw:
        if not isinstance(entry, str):
            raise RegistryError(f"{_path(path)}: keywords must be strings")
        keywords.update(extract_keywords(entry))
    if not keywords:
        raise RegistryError(f"{_path(path)}: keywords are empty after normalization")
    return keywords


def _service_from_dict(data: dict, where, datatypes: dict[str, str]) -> WebService:
    if not isinstance(data, dict):
        raise RegistryError(f"{_path(where)}: service must be an object")
    service_key = data.get("serviceKey")
    if type(service_key) is not str:
        service_key = _expect(data, "serviceKey", str, where)
    if not service_key:
        raise RegistryError(f"{_path(where)}: serviceKey is empty")
    operations = data.get("operations")
    if type(operations) is not list:
        operations = _expect(data, "operations", list, where)
    operations = [
        _operation_from_dict(o, ("{}.operations[{}]", where, i), datatypes)
        for i, o in enumerate(operations)
    ]
    if not operations:
        raise RegistryError(f"{_path(where)}: service {service_key!r} has no operations")
    seen_ops: set[str] = set()
    for operation in operations:
        if operation.name in seen_ops:
            raise RegistryError(f"{_path(where)}: duplicate operation name {operation.name!r}")
        seen_ops.add(operation.name)
    name = data.get("name")
    if type(name) is not str:
        name = _expect(data, "name", str, where)
    return WebService(
        name=name,
        business_name=_expect(data, "businessName", str, where, default="", required=False),
        business_key=_expect(data, "businessKey", str, where, default="", required=False),
        service_key=service_key,
        url=_expect(data, "url", str, where, default="", required=False),
        version=_expect(data, "version", str, where, default="", required=False),
        operations=operations,
        security_note=_expect(data, "securityNote", str, where, default=None, required=False),
    )


def registry_from_dict(data, source: str = "registry") -> ServiceRegistry:
    """Build and validate a registry from parsed JSON data."""
    if not isinstance(data, dict):
        raise RegistryError(f"{source}: top level must be an object")
    datatypes: dict[str, str] = {}
    categories = []
    for i, cat in enumerate(_expect(data, "categories", list, source)):
        path = ("{}: categories[{}]", source, i)
        if not isinstance(cat, dict):
            raise RegistryError(f"{_path(path)}: category must be an object")
        services = [
            _service_from_dict(s, ("{}.services[{}]", path, j), datatypes)
            for j, s in enumerate(_expect(cat, "services", list, path, default=[], required=False))
        ]
        categories.append(
            ServiceCategory(
                name=_expect(cat, "name", str, path),
                keywords=_keywords_from_list(_expect(cat, "keywords", list, path), path),
                services=services,
            )
        )
    registry = ServiceRegistry(categories=categories)
    seen_keys: dict[str, str] = {}
    for category, service in registry.iter_services():
        if service.service_key in seen_keys:
            raise RegistryError(
                f"{source}: duplicate serviceKey {service.service_key!r} "
                f"(categories {seen_keys[service.service_key]!r} and {category.name!r})"
            )
        seen_keys[service.service_key] = category.name
    return registry


def _read_registry_file(path: str | Path) -> ServiceRegistry:
    return registry_from_dict(read_json(path, "registry", RegistryError), source=str(path))


def snapshot_log_path(path: str | Path) -> Path:
    """The snapshot log beside the registry file that `path` resolves to."""
    target = Path(os.path.realpath(path))
    return target.with_name(target.name + ".snapshots")


_decode_line = json.JSONDecoder().decode  # json.loads without its per-call setup


def _replay(registry: ServiceRegistry, log: bytes, log_path: Path) -> None:
    """Apply the log's snapshots to the registry read from the file.

    An unterminated final line is a write that never returned, and is
    skipped. So is a line equal to the snapshot already recorded at its
    timestamp: a fold that renamed the file but did not truncate the log
    leaves such lines. Any other line is checked as append_snapshot
    checks it.
    """
    try:
        lines = log.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        number = log.count(b"\n", 0, exc.start) + 1
        raise RegistryError(f"{log_path}: line {number}: not UTF-8 text") from None
    if not lines:
        return
    operations = {
        (service.service_key, operation.name): operation
        for _, service in registry.iter_services()
        for operation in service.operations
    }
    for number, line in enumerate(lines, start=1):
        where = ("{}: line {}", log_path, number)
        try:
            data = _decode_line(line)
        except ValueError as exc:
            raise RegistryError(f"{_path(where)}: not a JSON line: {exc}") from None
        except RecursionError:  # the decoder recurses once per nested array or object
            raise RegistryError(f"{_path(where)}: not a JSON line: nested too deeply") from None
        if not isinstance(data, dict):
            raise RegistryError(f"{_path(where)}: snapshot must be an object")
        service_key = data.get("serviceKey")
        if type(service_key) is not str:
            service_key = _expect(data, "serviceKey", str, where)
        name = data.get("operation")
        if type(name) is not str:
            name = _expect(data, "operation", str, where)
        snapshot = _snapshot_from_dict(data, where)
        try:
            operation = operations.get((service_key, name)) or _find_operation(registry, service_key, name)
            history = operation.qos_history
            if history and snapshot.timestamp <= history[-1].timestamp:
                at = bisect_left(history, snapshot.timestamp, key=attrgetter("timestamp"))
                if at < len(history) and history[at].timestamp == snapshot.timestamp:
                    if history[at] == snapshot:
                        continue
                    raise RegistryError(
                        f"{service_key}/{name} already has a different snapshot at "
                        f"{format_timestamp(snapshot.timestamp)}"
                    )
            _record(operation, snapshot, ("{}/{}", service_key, name))  # _snapshot_from_dict checked it
        except RegistryError as exc:
            raise RegistryError(f"{_path(where)}: {exc}") from None


def load_registry(path: str | Path) -> ServiceRegistry:
    """Read the registry file and replay its snapshot log, if it has one.

    The log is held under a shared lock while both are read, so a
    concurrent write or fold is seen whole or not at all.
    """
    log_path = snapshot_log_path(path)
    try:
        log = open(log_path, "rb")
    except FileNotFoundError:
        return _read_registry_file(path)
    except OSError as exc:
        raise RegistryError(f"cannot read snapshot log {log_path}: {exc.strerror}") from exc
    with log:
        fcntl.flock(log.fileno(), fcntl.LOCK_SH)
        registry = _read_registry_file(path)
        _replay(registry, log.read(), log_path)
    return registry


# --- saving ----------------------------------------------------------------

def snapshot_to_dict(snapshot: QosSnapshot) -> dict:
    data = {
        "timestamp": format_timestamp(snapshot.timestamp),
        "availability": snapshot.availability,
        "executionTimeMs": snapshot.execution_time_ms,
        "totalCalls": snapshot.total_calls,
    }
    if snapshot.extra:
        data["extra"] = {name: snapshot.extra[name] for name in sorted(snapshot.extra)}
    return data


def operation_to_dict(operation: Operation) -> dict:
    return {
        "name": operation.name,
        "inputs": [{"name": p.name, "datatype": p.datatype} for p in operation.inputs],
        "outputs": [{"name": p.name, "datatype": p.datatype} for p in operation.outputs],
        "qos": [snapshot_to_dict(s) for s in operation.qos_history],
    }


def service_to_dict(service: WebService) -> dict:
    data = {
        "name": service.name,
        "businessName": service.business_name,
        "businessKey": service.business_key,
        "serviceKey": service.service_key,
        "url": service.url,
        "version": service.version,
        "operations": [operation_to_dict(o) for o in service.operations],
    }
    if service.security_note is not None:
        data["securityNote"] = service.security_note
    return data


def registry_to_dict(registry: ServiceRegistry) -> dict:
    return {
        "categories": [
            {
                "name": category.name,
                "keywords": sorted(category.keywords),
                "services": [service_to_dict(s) for s in category.services],
            }
            for category in registry.categories
        ]
    }


def _write_registry_file(registry: ServiceRegistry, path: str | Path) -> None:
    """The atomic rewrite: a temporary file beside the target, then a rename.

    A write that fails midway, or a crash, leaves the old file as it was.
    An existing file keeps its permission bits.
    """
    payload = (dumps_indented(registry_to_dict(registry)) + "\n").encode("utf-8")
    target = Path(os.path.realpath(path))
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        try:
            mode = stat.S_IMODE(target.stat().st_mode)
        except FileNotFoundError:
            mode = None
        try:
            with open(temporary, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            if mode is not None:
                os.chmod(temporary, mode)
            os.replace(temporary, target)
        except OSError:
            temporary.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise RegistryError(f"cannot write registry file {path}: {exc.strerror}") from exc


def _fold(registry: ServiceRegistry, path: str | Path, log) -> None:
    """Rewrite the file with `registry`, then empty the log (held exclusively).

    A crash between the two leaves log lines the file already holds,
    which load_registry skips.
    """
    _write_registry_file(registry, path)
    try:
        log.truncate(0)
    except OSError as exc:
        raise RegistryError(f"cannot empty the snapshot log of {path}: {exc.strerror}") from exc


def save_registry(registry: ServiceRegistry, path: str | Path) -> None:
    """Write the registry as JSON; load_registry(save_registry(r)) == r.

    The file is rewritten atomically and its snapshot log, if it has one,
    is emptied under the log's exclusive lock: `registry` replaces what
    both held. Without a log the file is written unlocked, as no
    snapshot has been recorded beside it.
    """
    try:
        log = open(snapshot_log_path(path), "r+b")
    except FileNotFoundError:
        _write_registry_file(registry, path)
        return
    except OSError as exc:
        raise RegistryError(f"cannot open snapshot log of {path}: {exc.strerror}") from exc
    with log:
        fcntl.flock(log.fileno(), fcntl.LOCK_EX)
        _fold(registry, path, log)


# --- writes to a registry on disk ----------------------------------------------

@contextmanager
def _held(path: str | Path):
    """The registry, its log replayed, under the log's exclusive lock.

    Yields the registry, the open log and the log's bytes. The log is
    created if missing, with the registry file's permission bits; the
    registry file must exist.
    """
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except OSError as exc:
        raise RegistryError(f"cannot read registry file {path}: {exc.strerror}") from exc
    log_path = snapshot_log_path(path)
    try:
        fd = os.open(log_path, os.O_RDWR | os.O_CREAT | os.O_APPEND, mode)
    except OSError as exc:
        raise RegistryError(f"cannot open snapshot log {log_path}: {exc.strerror}") from exc
    with open(fd, "a+b") as log:
        fcntl.flock(fd, fcntl.LOCK_EX)
        log.seek(0)
        held = log.read()
        registry = _read_registry_file(path)
        _replay(registry, held, log_path)
        yield registry, log, held


@contextmanager
def update_registry(path: str | Path):
    """Load the registry and hold it exclusively for the block; save it on a clean exit.

    No snapshot write or other update of the same registry can run in
    between, so none is lost. Loading the same registry inside the block
    would wait for the block, and so never return.
    """
    with _held(path) as (registry, log, _):
        yield registry
        _fold(registry, path, log)


def record_snapshot(
    path: str | Path,
    service_key: str,
    operation_name: str,
    snapshot: QosSnapshot,
) -> None:
    """Append one QoS snapshot to a registry on disk, as one log line.

    Under the log's exclusive lock, the registry is loaded (log replayed)
    and append_snapshot checks the snapshot; a refused one changes no
    byte of the file or the log. An unterminated final line, left by a
    write that never returned, is cut off first. The line is appended and
    fsynced; once the log would reach a quarter of the registry file's
    size, the registry is folded into the file instead.
    """
    with _held(path) as (registry, log, held):
        append_snapshot(registry, service_key, operation_name, snapshot)
        line = json.dumps(
            {"serviceKey": service_key, "operation": operation_name, **snapshot_to_dict(snapshot)},
            separators=(",", ":"),
        ).encode("ascii") + b"\n"
        kept = held.rfind(b"\n") + 1
        # Replaying a log line costs about 2.4 times what loading the same
        # number of file bytes costs (measured on the 4.6 MB serve-crowded
        # registry), so a log kept under a quarter of the file keeps a
        # load within about 1.6 times the file's.
        if 4 * (kept + len(line)) >= os.stat(path).st_size:
            _fold(registry, path, log)
            return
        try:
            if kept < len(held):
                log.truncate(kept)
            log.write(line)
            log.flush()
            os.fsync(log.fileno())
        except OSError as exc:
            raise RegistryError(f"cannot append to the snapshot log of {path}: {exc.strerror}") from exc


# --- mutation --------------------------------------------------------------

def _find_operation(registry: ServiceRegistry, service_key: str, operation_name: str) -> Operation:
    _, service = registry.find_service(service_key)
    for operation in service.operations:
        if operation.name == operation_name:
            return operation
    raise RegistryError(f"service {service_key!r} has no operation {operation_name!r}")


def _record(operation: Operation, snapshot: QosSnapshot, path) -> None:
    """Append a checked snapshot, keeping the history chronological.

    The one chronology check: loading, log replay and append_snapshot all
    build histories through it.
    """
    history = operation.qos_history
    if history and snapshot.timestamp <= history[-1].timestamp:
        raise RegistryError(
            f"{_path(path)}: timestamps must be strictly increasing, and "
            f"{format_timestamp(snapshot.timestamp)} is not after {format_timestamp(history[-1].timestamp)}"
        )
    history.append(snapshot)


def append_snapshot(
    registry: ServiceRegistry,
    service_key: str,
    operation_name: str,
    snapshot: QosSnapshot,
) -> ServiceRegistry:
    """Append a QoS snapshot to one operation, keeping history chronological."""
    operation = _find_operation(registry, service_key, operation_name)
    where = f"snapshot for {service_key}/{operation_name}"
    _record(operation, _check_snapshot(snapshot, where), where)
    return registry


# --- WSDL import -----------------------------------------------------------

_WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
_SOAP_NS = "http://schemas.xmlsoap.org/wsdl/soap/"
_SOAP12_NS = "http://schemas.xmlsoap.org/wsdl/soap12/"


def _local(ref: str) -> str:
    return ref.rpartition(":")[2]


def import_wsdl(xml_text: str, loaded_at: datetime | None = None) -> WebService:
    """Extract a WebService from a WSDL 1.1 document.

    Operation inputs/outputs come from message parts; datatypes are mapped
    through the alias table. QoS history starts empty. The serviceKey is
    synthesized as ws.<ISO-8601 load timestamp, to the microsecond>.
    """
    import xml.etree.ElementTree as ET  # only an import pays for the XML parser

    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise RegistryError(f"WSDL is not well-formed XML: {exc}") from exc

    messages: dict[str, list[Parameter]] = {}
    for message in root.iter(f"{{{_WSDL_NS}}}message"):
        name = message.get("name", "")
        parts = []
        for part in message.findall(f"{{{_WSDL_NS}}}part"):
            part_name = part.get("name", "")
            datatype_raw = part.get("type") or part.get("element") or ""
            if not part_name or not datatype_raw:
                raise RegistryError(
                    f"WSDL message {name!r}: part {part_name!r} lacks a name or type"
                )
            parts.append(Parameter(name=part_name, datatype=normalize_datatype(datatype_raw)))
        messages[name] = parts

    port_types = list(root.iter(f"{{{_WSDL_NS}}}portType"))
    if not port_types:
        raise RegistryError("WSDL contains no portType")

    def resolve(ref: str, op_name: str) -> list[Parameter]:
        message_name = _local(ref)
        if message_name not in messages:
            raise RegistryError(
                f"WSDL operation {op_name!r} references unknown message {message_name!r}"
            )
        return list(messages[message_name])

    operations: list[Operation] = []
    seen: set[str] = set()
    for port_type in port_types:
        for op_el in port_type.findall(f"{{{_WSDL_NS}}}operation"):
            op_name = op_el.get("name", "")
            if not op_name or op_name in seen:
                continue
            seen.add(op_name)
            inputs: list[Parameter] = []
            outputs: list[Parameter] = []
            input_el = op_el.find(f"{{{_WSDL_NS}}}input")
            if input_el is not None and input_el.get("message"):
                inputs = resolve(input_el.get("message", ""), op_name)
            output_el = op_el.find(f"{{{_WSDL_NS}}}output")
            if output_el is not None and output_el.get("message"):
                outputs = resolve(output_el.get("message", ""), op_name)
            operations.append(Operation(name=op_name, inputs=inputs, outputs=outputs))
    if not operations:
        raise RegistryError("WSDL defines no operations")

    service_el = root.find(f"{{{_WSDL_NS}}}service")
    name = (service_el.get("name") if service_el is not None else None) or root.get("name") or port_types[0].get("name", "")
    url = ""
    if service_el is not None:
        for ns in (_SOAP_NS, _SOAP12_NS):
            address = service_el.find(f"{{{_WSDL_NS}}}port/{{{ns}}}address")
            if address is not None:
                url = address.get("location", "")
                break

    stamp = loaded_at if loaded_at is not None else datetime.now(timezone.utc)
    return WebService(
        name=name,
        business_name="",
        business_key="",
        service_key=f"ws.{format_timestamp(stamp)}",
        url=url,
        version="",
        operations=operations,
    )

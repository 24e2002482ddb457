"""Service registry: categories, services, operations and QoS histories.

The registry is a plain JSON file (see load_registry / save_registry for
the schema) plus a snapshot log beside it, `<registry>.snapshots`: one
JSON object per line, each a QoS snapshot appended since the file was
last written. Loads, service additions (add_service) and snapshot writes
all build the registry from the decoded file with _registry_from_data,
and replay the log through one lookup of histories (see _replay). A
snapshot write also keeps an index beside the file, `<registry>.index`:
the last timestamp of each operation in the file, written only from a
registry built from the same bytes. While a digest of the bytes matches
it, a write that the index accepts needs nothing else of the file (see
record_snapshot).
Nothing else reads the index.
Keywords and datatypes are normalized once at load time so that all
later comparisons are plain string work. Operations are plain data: only
a category's operation index (see ServiceCategory.operation_index), on
first use, derives what the functional gate reads of them.

A record a load has built never changes. Categories, services and
operations are frozen and hold their members in tuples, QoS histories
included, so a category's index cannot go stale. A change builds new
records with dataclasses.replace and shares the rest: add_service builds
a new category, and _with_histories is the one way a new history enters a
registry, for log replays and snapshot appends alike. The one mutable
part is ServiceRegistry.categories, the list the rebuilt categories are
swapped into.
"""

from __future__ import annotations

import _thread  # threading's lock, without importing threading on a cold CLI run
import fcntl
import gc
import json
import math
import os
import stat
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import RegistryError
from .jsontext import decode_json, dumps_indented, read_bytes, read_json
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
    """One named, typed input or output of an operation or a task."""

    name: str
    datatype: str


@dataclass(slots=True)
class QosSnapshot:
    timestamp: datetime
    availability: float
    execution_time_ms: float
    total_calls: int
    extra: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Operation:
    """One operation of a service: its parameters and its QoS history, oldest first.

    Frozen, and a load builds each sequence as a tuple: a new history
    makes a new operation (see _with_histories).
    """

    name: str
    inputs: tuple[Parameter, ...] = ()
    outputs: tuple[Parameter, ...] = ()
    qos_history: tuple[QosSnapshot, ...] = ()


@dataclass(frozen=True)
class WebService:
    """A service and its operations, a tuple (a list given is converted).

    Frozen, like its category: to change its operations, build a new
    service with dataclasses.replace and a new category around it.
    """

    name: str
    business_name: str
    business_key: str
    service_key: str
    url: str
    version: str
    operations: tuple[Operation, ...] = ()
    security_note: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "operations", tuple(self.operations))


class OperationIndex(NamedTuple):
    """A category's operations, flattened, and what the functional gate reads of them.

    A position is an index into `entries`, the (service, operation) pairs
    in registry order. `shapes` holds each one's parameter_shape, all
    that the gate's scores read. `by_output_term` maps each keyword
    token (`extract_keywords`) of an output name, and `by_counts` each
    (input count, output count), to the ascending positions that have it.
    """

    entries: tuple[tuple[WebService, Operation], ...]
    shapes: tuple[tuple[tuple[str, ...], ...], ...]
    by_output_term: dict[str, list[int]]
    by_counts: dict[tuple[int, int], list[int]]


@dataclass(frozen=True)
class ServiceCategory:
    """A category: its keywords (a frozenset) and its services (a tuple).

    Frozen, so the operation index it derives on first use stays sound;
    an import builds a new category with dataclasses.replace.
    """

    name: str
    keywords: frozenset[str]
    services: tuple[WebService, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "keywords", frozenset(self.keywords))
        object.__setattr__(self, "services", tuple(self.services))

    @cached_property
    def operation_index(self) -> OperationIndex:
        """Built on first use, so loading or writing a registry never pays for it.

        Built once, also when threads reach it at the same time: from
        Python 3.12 cached_property takes no lock, so the build takes
        _INDEX_LOCK, looks again under it, and stores the index before
        letting go. Once stored, the index is an attribute of the
        category, read without the lock.
        """
        with _INDEX_LOCK:
            built = vars(self).get("operation_index")
            if built is None:
                built = vars(self)["operation_index"] = _build_operation_index(self.services)
        return built


_INDEX_LOCK = _thread.allocate_lock()


def parameter_shape(inputs, outputs) -> tuple[tuple[str, ...], ...]:
    """All that the functional gate's scores read of an operation's or a
    task's parameters: sorted input datatypes, sorted output datatypes,
    input names and output names."""
    return (
        tuple(sorted(p.datatype for p in inputs)),
        tuple(sorted(p.datatype for p in outputs)),
        tuple(p.name for p in inputs),
        tuple(p.name for p in outputs),
    )


def _build_operation_index(services: tuple[WebService, ...]) -> OperationIndex:
    entries = tuple(
        (service, operation) for service in services for operation in service.operations
    )
    shapes = []
    by_output_term: dict[str, list[int]] = {}
    by_counts: dict[tuple[int, int], list[int]] = {}
    for position, (_, operation) in enumerate(entries):
        inputs, outputs = operation.inputs, operation.outputs
        shapes.append(parameter_shape(inputs, outputs))
        for term in {term for p in outputs for term in extract_keywords(p.name)}:
            by_output_term.setdefault(term, []).append(position)
        by_counts.setdefault((len(inputs), len(outputs)), []).append(position)
    return OperationIndex(entries, tuple(shapes), by_output_term, by_counts)


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
    inputs = tuple([
        _parameter_from_dict(p, ("{}.inputs[{}]", where, i), datatypes) for i, p in enumerate(inputs)
    ])
    outputs = data.get("outputs")
    if type(outputs) is not list:
        outputs = _expect(data, "outputs", list, where, default=[], required=False)
    outputs = tuple([
        _parameter_from_dict(p, ("{}.outputs[{}]", where, i), datatypes) for i, p in enumerate(outputs)
    ])
    qos = data.get("qos")
    if type(qos) is not list:
        qos = _expect(data, "qos", list, where, default=[], required=False)
    history: list[QosSnapshot] = []
    for i, s in enumerate(qos):
        place = ("{}.qos[{}]", where, i)
        _record(history, _snapshot_from_dict(s, place), place)
    return Operation(name, inputs, outputs, tuple(history))


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


def _beside(path: str | Path, suffix: str) -> Path:
    """The file named `suffix` beside the registry file that `path` resolves to."""
    target = Path(os.path.realpath(path))
    return target.with_name(target.name + suffix)


def snapshot_log_path(path: str | Path) -> Path:
    """The snapshot log beside the registry file that `path` resolves to."""
    return _beside(path, ".snapshots")


_decode_line = json.JSONDecoder().decode  # json.loads without its per-call setup


def _registry_from_data(data, source: str) -> ServiceRegistry:
    """Build and check the whole registry from a decoded registry file.

    Every record is built in file order, so a corrupt file is refused at
    its first fault, with its place in the file: the one check of a
    registry file, for loads and every write.
    """
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
        name = _expect(cat, "name", str, path)
        keywords = _keywords_from_list(_expect(cat, "keywords", list, path), path)
        categories.append(ServiceCategory(name, keywords, services))
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


def _finder(registry: ServiceRegistry):
    """find(serviceKey, name): the history of that operation in `registry`,
    looked up in a dict. A pair it does not hold is refused, naming the
    serviceKey if no service has it: the one lookup of an operation by pair."""
    histories = {
        (service.service_key, operation.name): operation.qos_history
        for _, service in registry.iter_services()
        for operation in service.operations
    }

    def find(service_key: str, name: str) -> tuple[QosSnapshot, ...]:
        history = histories.get((service_key, name))
        if history is None:
            registry.find_service(service_key)  # refuses an unknown serviceKey
            raise RegistryError(f"service {service_key!r} has no operation {name!r}")
        return history

    return find


_Histories = dict[tuple[str, str], list[QosSnapshot]]


def _history_of(histories: _Histories, find, service_key: str, name: str) -> list[QosSnapshot]:
    """The history of the pair being built in `histories`, seeded once from find."""
    history = histories.get((service_key, name))
    if history is None:
        history = histories[service_key, name] = list(find(service_key, name))
    return history


def _replay(find, log: bytes, log_path: Path) -> tuple[_Histories, int]:
    """Replay the log's snapshots onto the histories that find(serviceKey, name) returns.

    find raises RegistryError for a pair it does not hold. An unterminated
    final line is a write that never returned, and is skipped. So is a
    line equal to the snapshot already recorded at its timestamp: a fold
    that renamed the file but did not truncate the log leaves such lines.
    Any other line is checked as append_snapshot checks it. Returns the
    whole new history of each pair a line names (for _with_histories) and
    the number of lines skipped as already recorded.
    """
    try:
        lines = log.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        number = log.count(b"\n", 0, exc.start) + 1
        raise RegistryError(f"{log_path}: line {number}: not UTF-8 text") from None
    histories: _Histories = {}
    skipped = 0
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
            history = _history_of(histories, find, service_key, name)
            if history and snapshot.timestamp <= history[-1].timestamp:
                at = bisect_left(history, snapshot.timestamp, key=attrgetter("timestamp"))
                if at < len(history) and history[at].timestamp == snapshot.timestamp:
                    if history[at] == snapshot:
                        skipped += 1
                        continue
                    raise RegistryError(
                        f"{service_key}/{name} already has a different snapshot at "
                        f"{format_timestamp(snapshot.timestamp)}"
                    )
            _record(history, snapshot, ("{}/{}", service_key, name))  # _snapshot_from_dict checked it
        except RegistryError as exc:
            raise RegistryError(f"{_path(where)}: {exc}") from None
    return histories, skipped


@contextmanager
def _collector_off():
    """The cyclic garbage collector off for the block, and on again after it if it was on.

    The whole-file paths below allocate a decoded JSON tree and the records
    built from it, which hold no reference cycles, so the full collections
    those allocations set off free nothing: at 10,000 services they took
    about half of a load's time.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _load(path: str | Path, log: bytes, log_path: Path) -> ServiceRegistry:
    """Build and check the whole registry from the file, then replay `log` into it."""
    with _collector_off():
        registry = _registry_from_data(read_json(path, "registry", RegistryError), str(path))
        if log:
            _with_histories(registry, _replay(_finder(registry), log, log_path)[0])
    return registry


def load_registry(path: str | Path) -> ServiceRegistry:
    """Read the registry file and replay its snapshot log, if it has one.

    The log is held under a shared lock while both are read, so a
    concurrent write or fold is seen whole or not at all.
    """
    log_path = snapshot_log_path(path)
    try:
        log = open(log_path, "rb")
    except FileNotFoundError:
        return _load(path, b"", log_path)
    except OSError as exc:
        raise RegistryError(f"cannot read snapshot log {log_path}: {exc.strerror}") from exc
    with log:
        fcntl.flock(log.fileno(), fcntl.LOCK_SH)
        return _load(path, log.read(), log_path)


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


def _replace_file(target: Path, payload: bytes, mode: int | None, durable: bool) -> None:
    """Write `payload` to a temporary file beside `target`, then rename it over `target`.

    The temporary file gets the permission bits `mode` (None: the
    defaults), and is fsynced before the rename if `durable`. On an OSError
    it is removed and the error re-raised: `target` is left as it was.
    """
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as handle:
            handle.write(payload)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        if mode is not None:
            os.chmod(temporary, mode)
        os.replace(temporary, target)
    except OSError:
        temporary.unlink(missing_ok=True)
        raise


def _write_registry_file(data: dict, path: str | Path) -> None:
    """The atomic rewrite with `data`, a registry_to_dict: a temporary file
    beside the target, then a rename.

    A write that fails midway, or a crash, leaves the old file as it was.
    An existing file keeps its permission bits.
    """
    payload = (dumps_indented(data) + "\n").encode("utf-8")
    target = Path(os.path.realpath(path))
    try:
        try:
            mode = stat.S_IMODE(target.stat().st_mode)
        except FileNotFoundError:
            mode = None
        _replace_file(target, payload, mode, durable=True)
    except OSError as exc:
        raise RegistryError(f"cannot write registry file {path}: {exc.strerror}") from exc


def _checked(registry: ServiceRegistry, path: str | Path) -> dict:
    """registry_to_dict(registry), once the load's builder accepts it.

    The check of every registry save_registry or add_service writes: one
    built or edited by hand, or with a service added, is refused here with
    the text a load of the written file would raise, such as a duplicate
    serviceKey or a category with no keywords, before any byte is written.
    """
    with _collector_off():
        data = registry_to_dict(registry)
        _registry_from_data(data, str(path))
    return data


def _fold(data: dict, path: str | Path, log) -> None:
    """Rewrite the file with `data`, then empty the log (held exclusively).

    A crash between the two leaves log lines the file already holds,
    which load_registry skips and the next write that builds the whole
    registry folds away (see record_snapshot).
    """
    with _collector_off():
        _write_registry_file(data, path)
    try:
        log.truncate(0)
    except OSError as exc:
        raise RegistryError(f"cannot empty the snapshot log of {path}: {exc.strerror}") from exc


def save_registry(registry: ServiceRegistry, path: str | Path) -> None:
    """Write the registry as JSON; load_registry(save_registry(r)) == r.

    A registry that a load of the file would refuse is refused first,
    with the load's text (see _checked), and nothing is written. The file
    is rewritten atomically and its snapshot log, if it has one, is
    emptied under the log's exclusive lock: `registry` replaces what both
    held. Without a log the file is written unlocked, as no snapshot has
    been recorded beside it.
    """
    data = _checked(registry, path)
    try:
        log = open(snapshot_log_path(path), "r+b")
    except FileNotFoundError:
        _write_registry_file(data, path)
        return
    except OSError as exc:
        raise RegistryError(f"cannot open snapshot log of {path}: {exc.strerror}") from exc
    with log:
        fcntl.flock(log.fileno(), fcntl.LOCK_EX)
        _fold(data, path, log)


# --- writes to a registry on disk ----------------------------------------------

@contextmanager
def _held(path: str | Path):
    """The registry's log, under its exclusive lock.

    Yields the open log, its bytes and its path. The log is created if
    missing, with the registry file's permission bits; the registry file
    must exist.
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
        yield log, log.read(), log_path


def add_service(path: str | Path, service: WebService, category: str) -> None:
    """Add `service` to the registry on disk, last in the category named `category`.

    Under the log's exclusive lock, so no snapshot write or other change
    of the same registry runs in between and none is lost. The registry is
    loaded with its log; if no category has that name, a new one is added
    last, whose keywords are those of the category's name and of the
    service's. The result is checked as a load checks the file, then
    folded into it. So a serviceKey already present, or a new category
    with no keywords, is refused with the load's text, and the file, the
    log and the index are left as they were.
    """
    with _held(path) as (log, held, log_path):
        registry = _load(path, held, log_path)
        categories = registry.categories
        for position, existing in enumerate(categories):
            if existing.name == category:
                categories[position] = replace(existing, services=(*existing.services, service))
                break
        else:
            keywords = {*extract_keywords(category), *extract_keywords(service.name)}
            categories.append(ServiceCategory(category, keywords, (service,)))
        _fold(_checked(registry, path), path, log)


def _digest(raw: bytes) -> str:
    import hashlib  # only a snapshot write pays for it: loads never read the index

    return hashlib.sha256(raw).hexdigest()


def _read_index(path: str | Path, raw: bytes) -> dict | None:
    """The entries of the index beside the registry file, if it was made
    for the file's bytes `raw`; None if it is missing, malformed or stale."""
    try:
        index = _decode_line(_beside(path, ".index").read_bytes().decode("utf-8"))
    except (OSError, ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError included
        return None
    if type(index) is dict and type(index.get("services")) is dict and index.get("sha256") == _digest(raw):
        return index["services"]
    return None


def _write_index(path: str | Path, raw: bytes, entries: dict[str, dict[str, str | None]]) -> None:
    """Write the index of the registry file's bytes `raw` beside the file.

    Atomically, with the file's permission bits, and not fsynced: a torn
    index reads as malformed. An index that cannot be written is left
    out, as a .pyc that cannot be written is: the next write builds the
    whole registry.
    """
    payload = json.dumps({"sha256": _digest(raw), "services": entries}, separators=(",", ":"))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
        _replace_file(_beside(path, ".index"), payload.encode("ascii"), mode, durable=False)
    except OSError:
        pass


def _last_timestamps(registry: ServiceRegistry) -> dict[str, dict[str, str | None]]:
    """The index's entries: by serviceKey, each operation's last timestamp (None: no history)."""
    return {
        service.service_key: {
            operation.name: format_timestamp(operation.qos_history[-1].timestamp) if operation.qos_history else None
            for operation in service.operations
        }
        for _, service in registry.iter_services()
    }


def _index_accepts(path: str | Path, raw: bytes, log: bytes, log_path: Path, service_key: str,
                   operation_name: str, snapshot: QosSnapshot) -> bool:
    """Whether the index made for the file's bytes `raw` accepts the write.

    The history of each operation a log line or the write names stands in
    for the file's as one placeholder at the index's last timestamp, whose
    availability is NaN. The log is replayed and the snapshot recorded
    against these as a load and append_snapshot check them against the
    whole histories: a line or snapshot after the last timestamp meets the
    same checks either way, and one at or before it meets the placeholder,
    which no checked snapshot equals, and is refused. So is a pair the
    index does not hold. Every refusal, a log line replay skips, and a
    missing, malformed or stale index leave the write to the whole
    registry, which words the refusal or folds.
    """
    services = _read_index(path, raw)
    if services is None:
        return False

    def find(key: str, name: str) -> tuple[QosSnapshot, ...]:
        entry = services.get(key)
        last = entry.get(name, False) if type(entry) is dict else False
        if last is None:
            return ()
        if type(last) is not str:
            raise RegistryError(f"{key}/{name} is not in the index")
        return (QosSnapshot(parse_timestamp(last), math.nan, math.nan, 0),)

    try:
        histories, skipped = _replay(find, log, log_path)
        _append(histories, find, service_key, operation_name, snapshot, f"snapshot for {service_key}/{operation_name}")
    except RegistryError:
        return False
    return not skipped


def record_snapshot(
    path: str | Path,
    service_key: str,
    operation_name: str,
    snapshot: QosSnapshot,
) -> None:
    """Append one QoS snapshot to a registry on disk, as one log line.

    Under the log's exclusive lock, the write accepts and refuses exactly
    what load_registry plus append_snapshot accept and refuse, with the
    same text. A refused snapshot changes no byte of the file or the log.
    An unterminated final line, left by a write that never returned, is
    cut off first. The line is appended and fsynced. Once the log would
    reach a quarter of the registry file's size, or holds lines the file
    holds (a fold was cut off), the line is not appended: the registry is
    folded into the file with the snapshot.

    A write that appends is first checked against the index beside the
    file, `<registry>.index`, while the SHA-256 digest of the file's bytes
    matches the one it holds (see _index_accepts): accepted there, it
    decodes no byte of the file. Any other write (no usable index, a
    refusal, or a fold) builds the whole registry as a load does, replays
    the log and records the snapshot as append_snapshot does; accepted and
    appended, it writes the index of the file's bytes.
    """
    where = _snapshot_place(service_key, operation_name, snapshot)
    with _held(path) as (log, held, log_path):
        raw = read_bytes(path, "registry", RegistryError)
        line = json.dumps(
            {"serviceKey": service_key, "operation": operation_name, **snapshot_to_dict(snapshot)},
            separators=(",", ":"),
        ).encode("ascii") + b"\n"
        kept = held.rfind(b"\n") + 1
        # Replaying a log line costs about 2.4 times what loading the same
        # number of file bytes costs (measured on the 4.6 MB serve-crowded
        # registry), so a log kept under a quarter of the file keeps a
        # load within about 1.6 times the file's.
        folds = 4 * (kept + len(line)) >= len(raw)
        indexed = not folds and _index_accepts(path, raw, held, log_path, service_key, operation_name, snapshot)
        if not indexed:
            with _collector_off():
                registry = _registry_from_data(decode_json(raw, path, RegistryError), str(path))
                last = _last_timestamps(registry)  # the file's, before the log's
                find = _finder(registry)
                histories, skipped = _replay(find, held, log_path)  # skipped: lines a cut-off fold left
                _append(histories, find, service_key, operation_name, snapshot, where)
                if folds or skipped:
                    _fold(registry_to_dict(_with_histories(registry, histories)), path, log)
                    return
        try:
            if kept < len(held):
                log.truncate(kept)
            log.write(line)
            log.flush()
            os.fsync(log.fileno())
        except OSError as exc:
            raise RegistryError(f"cannot append to the snapshot log of {path}: {exc.strerror}") from exc
        if not indexed:
            _write_index(path, raw, last)


# --- snapshot appends --------------------------------------------------------

def _snapshot_place(service_key: str, operation_name: str, snapshot: QosSnapshot) -> str:
    """The place a write names its snapshot by, once the snapshot's
    timestamp is known to be a datetime and its extra attribute names to
    be strings, the kinds snapshot_to_dict can write. Both writes call
    this before they read or touch anything.
    """
    where = f"snapshot for {service_key}/{operation_name}"
    if not isinstance(snapshot.timestamp, datetime):
        raise RegistryError(f"{where}: timestamp must be a datetime, not {type(snapshot.timestamp).__name__}")
    for name in snapshot.extra:
        if not isinstance(name, str):
            raise RegistryError(f"{where}: extra attribute name {name!r} is not a string")
    return where


def _record(history: list[QosSnapshot], snapshot: QosSnapshot, path) -> None:
    """Append a checked snapshot to a history being built, keeping it chronological.

    The one chronology check: loading, log replay and snapshot appends all
    build histories through it.
    """
    if history and snapshot.timestamp <= history[-1].timestamp:
        raise RegistryError(
            f"{_path(path)}: timestamps must be strictly increasing, and "
            f"{format_timestamp(snapshot.timestamp)} is not after {format_timestamp(history[-1].timestamp)}"
        )
    history.append(snapshot)


def _append(histories: _Histories, find, service_key: str, operation_name: str,
            snapshot: QosSnapshot, where: str) -> None:
    """Record `snapshot` in the pair's history in `histories`, as a load reads its
    log line: the lookup first, then the snapshot's values, then its order."""
    history = _history_of(histories, find, service_key, operation_name)
    _record(history, _snapshot_from_dict(snapshot_to_dict(snapshot), where), where)


def _with_histories(registry: ServiceRegistry, histories: _Histories) -> ServiceRegistry:
    """Put each new whole history of `histories` into `registry`, and return it.

    The one way a new history enters a registry. One pass over the
    services tests each serviceKey; each operation named, and the service
    and category that hold it, are rebuilt with dataclasses.replace, and
    every other record is shared. Each rebuilt category replaces its old
    one in registry.categories, and builds its operation index anew on
    first use.
    """
    keys = {service_key for service_key, _ in histories}
    categories = registry.categories
    for position, category in enumerate(categories):
        services = None
        for k, service in enumerate(category.services):
            if service.service_key in keys:
                if services is None:
                    services = list(category.services)
                key = service.service_key
                services[k] = replace(service, operations=[
                    operation if (key, operation.name) not in histories
                    else replace(operation, qos_history=tuple(histories[key, operation.name]))
                    for operation in service.operations
                ])
        if services is not None:
            categories[position] = replace(category, services=services)
    return registry


def append_snapshot(
    registry: ServiceRegistry,
    service_key: str,
    operation_name: str,
    snapshot: QosSnapshot,
) -> ServiceRegistry:
    """Append a QoS snapshot to one operation, keeping history chronological.

    The snapshot is recorded as a load reads its log line, and refused
    where a load would refuse the line. No record of `registry` changes:
    the operation, its service and its category are rebuilt around the
    new history, and the new category takes the old one's place in
    registry.categories, which is returned.
    """
    where = _snapshot_place(service_key, operation_name, snapshot)
    histories: _Histories = {}
    _append(histories, _finder(registry), service_key, operation_name, snapshot, where)
    return _with_histories(registry, histories)


# --- WSDL import -----------------------------------------------------------

_WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
_SOAP_NS = "http://schemas.xmlsoap.org/wsdl/soap/"
_SOAP12_NS = "http://schemas.xmlsoap.org/wsdl/soap12/"


def _local(ref: str) -> str:
    return ref.rpartition(":")[2]


def import_wsdl(xml_text: str, loaded_at: datetime | None = None) -> WebService:
    """Read a WebService from a WSDL 1.1 document, as a load reads a service record.

    Operation inputs/outputs come from message parts, with their raw types;
    QoS history starts empty. The serviceKey is synthesized as
    ws.<ISO-8601 load timestamp, to the microsecond>.
    """
    import xml.etree.ElementTree as ET  # only an import pays for the XML parser

    try:
        root = ET.fromstring(xml_text)
    except (ET.ParseError, UnicodeEncodeError) as exc:  # the latter: a lone surrogate
        raise RegistryError(f"WSDL is not well-formed XML: {exc}") from exc

    messages: dict[str, list[dict]] = {}
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
            parts.append({"name": part_name, "datatype": datatype_raw})
        messages[name] = parts

    port_types = list(root.iter(f"{{{_WSDL_NS}}}portType"))
    if not port_types:
        raise RegistryError("WSDL contains no portType")

    operations: list[dict] = []
    seen: set[str] = set()
    for port_type in port_types:
        for op_el in port_type.findall(f"{{{_WSDL_NS}}}operation"):
            op_name = op_el.get("name", "")
            if not op_name or op_name in seen:  # the reader would refuse a repeated name
                continue
            seen.add(op_name)
            operation = {"name": op_name}
            for key, tag in (("inputs", "input"), ("outputs", "output")):
                element = op_el.find(f"{{{_WSDL_NS}}}{tag}")
                ref = element.get("message") if element is not None else None
                if ref:
                    message_name = _local(ref)
                    if message_name not in messages:
                        raise RegistryError(
                            f"WSDL operation {op_name!r} references unknown message {message_name!r}"
                        )
                    operation[key] = messages[message_name]
            operations.append(operation)

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
    record = {"name": name, "serviceKey": f"ws.{format_timestamp(stamp)}", "url": url, "operations": operations}
    return _service_from_dict(record, f"WSDL service {name!r}", {})

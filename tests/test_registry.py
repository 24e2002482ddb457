from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import operator
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from http.client import HTTPConnection
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import procsel.registry as registry_module
from procsel import DEFAULT_CONFIG, load_registry, select_for_process, serialize_report
from procsel.cli import main
from procsel.bpmn import TaskRequirement
from procsel.errors import RegistryError
from procsel.functional import gate_candidates
from procsel.jsontext import dumps_indented
from procsel.lexicon import EMPTY_LEXICON, extract_keywords
from procsel.qos import QosConfig, score_pool
from procsel.registry import (
    MAX_QOS_MAGNITUDE,
    Operation,
    Parameter,
    QosSnapshot,
    ServiceCategory,
    ServiceRegistry,
    WebService,
    add_service,
    append_snapshot,
    import_wsdl,
    normalize_datatype,
    operation_to_dict,
    record_snapshot,
    registry_to_dict,
    save_registry,
    snapshot_log_path,
    snapshot_to_dict,
)
from procsel.serve import make_server

from conftest import SENDMAIL_REGISTRY, WSDL_FILE
from generators import (
    EPOCH,
    EXTRA_QOS_ATTRS,
    gen_process,
    gen_registry,
    make_snapshot,
    map_operations,
    permute_parameters,
    reference_record_snapshot,
    reference_registry_from_dict,
    reference_replay,
    service_to_wsdl,
)


def _minimal_service(service_key="ws.k1", op_name="op1"):
    return {
        "name": "svc",
        "serviceKey": service_key,
        "operations": [
            {
                "name": op_name,
                "inputs": [{"name": "customer", "datatype": "string"}],
                "outputs": [{"name": "status", "datatype": "boolean"}],
                "qos": [],
            }
        ],
    }


def _minimal_registry(**service_kwargs):
    return {
        "categories": [
            {
                "name": "cat",
                "keywords": ["payment"],
                "services": [_minimal_service(**service_kwargs)],
            }
        ]
    }


def _read(data, source="registry") -> ServiceRegistry:
    """Build and check a registry from decoded file data, as a load does."""
    return registry_module._registry_from_data(data, source)


def test_load_sendmail_fixture():
    registry = load_registry(SENDMAIL_REGISTRY)
    assert len(registry.categories) == 1
    services = registry.categories[0].services
    assert [s.name for s in services] == ["authentication", "sendEmail"]
    assert sum(len(s.operations) for s in services) == 4
    assert registry.categories[0].keywords == {"system", "authentication", "login", "email", "send"}


def test_empty_categories_is_valid():
    registry = _read({"categories": []})
    assert registry.categories == []


def test_duplicate_service_key_rejected():
    data = _minimal_registry()
    data["categories"][0]["services"].append(_minimal_service(service_key="ws.k1", op_name="other"))
    with pytest.raises(RegistryError, match="duplicate serviceKey"):
        _read(data)


def test_duplicate_operation_name_rejected():
    data = _minimal_registry()
    data["categories"][0]["services"][0]["operations"].append(
        _minimal_registry()["categories"][0]["services"][0]["operations"][0]
    )
    with pytest.raises(RegistryError, match="duplicate operation name"):
        _read(data)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda snap: snap.update(availability=1.2), r"availability"),
        (lambda snap: snap.update(executionTimeMs=0.0), r"executionTimeMs"),
        (lambda snap: snap.update(totalCalls=-1), r"totalCalls"),
        (lambda snap: snap.update(timestamp="not-a-date"), r"ISO-8601"),
    ],
)
def test_snapshot_invariants_enforced_with_path(mutate, message):
    data = _minimal_registry()
    snapshot = {
        "timestamp": "2014-01-14T00:00:00Z",
        "availability": 0.9,
        "executionTimeMs": 100.0,
        "totalCalls": 5,
    }
    mutate(snapshot)
    data["categories"][0]["services"][0]["operations"][0]["qos"] = [snapshot]
    with pytest.raises(RegistryError, match=message) as excinfo:
        _read(data)
    assert "operations[0].qos[0]" in str(excinfo.value)


def test_non_finite_qos_values_rejected_on_load_and_append(tmp_path):
    data = _minimal_registry()
    operation = data["categories"][0]["services"][0]["operations"][0]
    for field, bad in itertools.product(("availability", "executionTimeMs", "extra"), (math.nan, math.inf)):
        snapshot = {
            "timestamp": "2014-01-14T00:00:00Z",
            "availability": 0.9,
            "executionTimeMs": 100.0,
            "totalCalls": 5,
            "extra": {"cost": 1.0},
        }
        snapshot[field] = {"cost": bad} if field == "extra" else bad
        operation["qos"] = [snapshot]
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(data), encoding="utf-8")  # writes bare NaN / Infinity
        with pytest.raises(RegistryError, match=field) as excinfo:
            load_registry(path)
        assert "operations[0].qos[0]" in str(excinfo.value)

        operation["qos"] = []
        registry = _read(data)
        appended = QosSnapshot(
            EPOCH, snapshot["availability"], snapshot["executionTimeMs"], 5, dict(snapshot["extra"])
        )
        with pytest.raises(RegistryError, match=field):
            append_snapshot(registry, "ws.k1", "op1", appended)
        assert registry.categories[0].services[0].operations[0].qos_history == ()


@pytest.mark.parametrize("field", ["availability", "executionTimeMs", "totalCalls", "extra"])
def test_huge_json_integers_rejected_on_load(tmp_path, field):
    # 401 digits: float() of it raises OverflowError, which must surface
    # as a RegistryError naming the field, not as a crash
    huge = 10**400
    data = _minimal_registry()
    snapshot = {
        "timestamp": "2014-01-14T00:00:00Z",
        "availability": 0.9,
        "executionTimeMs": 100.0,
        "totalCalls": 5,
        "extra": {"cost": 1.0},
    }
    snapshot[field] = {"cost": huge} if field == "extra" else huge
    data["categories"][0]["services"][0]["operations"][0]["qos"] = [snapshot]
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(RegistryError, match=field if field != "extra" else "cost") as excinfo:
        load_registry(path)
    assert "operations[0].qos[0]" in str(excinfo.value)


@pytest.mark.parametrize("field, value", [
    ("executionTimeMs", 1e200),
    ("totalCalls", 10**101),
    ("extra", 1e200),
    ("extra", -1e200),
])
def test_finite_qos_values_beyond_the_magnitude_bound_are_refused_on_load(tmp_path, field, value):
    # finite, but a pool holding one would overflow its squared deviations
    data = _minimal_registry()
    snapshot = {
        "timestamp": "2014-01-14T00:00:00Z",
        "availability": 0.9,
        "executionTimeMs": 100.0,
        "totalCalls": 5,
        "extra": {"cost": 1.0},
    }
    path = tmp_path / "registry.json"

    def load_with(sample):
        snapshot[field] = {"cost": sample} if field == "extra" else sample
        data["categories"][0]["services"][0]["operations"][0]["qos"] = [snapshot]
        path.write_text(json.dumps(data), encoding="utf-8")
        return load_registry(path)

    at_bound = math.copysign(MAX_QOS_MAGNITUDE, value)
    load_with(int(at_bound) if field == "totalCalls" else at_bound)
    with pytest.raises(RegistryError, match=field if field != "extra" else "cost") as excinfo:
        load_with(value)
    assert "operations[0].qos[0]" in str(excinfo.value)


def test_append_snapshot_rejects_total_calls_beyond_float_range(sendmail_registry):
    snapshot = QosSnapshot(EPOCH + timedelta(days=3650), 0.9, 100.0, 10**400)
    with pytest.raises(RegistryError, match="totalCalls"):
        append_snapshot(sendmail_registry, "ws.15.09.2013.08.43.40", "login", snapshot)


def test_non_chronological_history_rejected():
    data = _minimal_registry()
    data["categories"][0]["services"][0]["operations"][0]["qos"] = [
        {"timestamp": "2014-02-14T00:00:00Z", "availability": 0.9, "executionTimeMs": 100.0, "totalCalls": 5},
        {"timestamp": "2014-01-14T00:00:00Z", "availability": 0.9, "executionTimeMs": 100.0, "totalCalls": 5},
    ]
    with pytest.raises(RegistryError, match="strictly increasing"):
        _read(data)


def test_empty_keywords_rejected():
    data = _minimal_registry()
    data["categories"][0]["keywords"] = ["the", "of"]  # all stopwords
    with pytest.raises(RegistryError, match="keywords"):
        _read(data)


def test_service_without_operations_rejected():
    data = _minimal_registry()
    data["categories"][0]["services"][0]["operations"] = []
    with pytest.raises(RegistryError, match="no operations"):
        _read(data)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"categories": [,]}', encoding="utf-8")
    with pytest.raises(RegistryError, match="line 1"):
        load_registry(path)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("xsd:string", "string"),
        ("str", "string"),
        ("xsd:int", "integer"),
        ("long", "integer"),
        ("xsd:boolean", "boolean"),
        ("bool", "boolean"),
        ("float", "double"),
        ("decimal", "double"),
        ("XSD:Double", "double"),
        ("tns:CustomerRecord", "customerrecord"),
        ("dateTime", "datetime"),
    ],
)
def test_datatype_aliases(raw, expected):
    assert normalize_datatype(raw) == expected


def test_round_trip_sendmail(tmp_path):
    registry = load_registry(SENDMAIL_REGISTRY)
    out = tmp_path / "copy.json"
    save_registry(registry, out)
    assert load_registry(out) == registry


def test_round_trip_empty(tmp_path):
    out = tmp_path / "empty.json"
    save_registry(ServiceRegistry(), out)
    assert load_registry(out) == ServiceRegistry()


@pytest.mark.parametrize("text", ["[]", "null", '"categories"'])
def test_a_registry_file_that_is_not_an_object_is_refused(tmp_path, text):
    path = tmp_path / "registry.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RegistryError) as excinfo:
        load_registry(path)
    assert str(excinfo.value) == f"{path}: top level must be an object"


def test_round_trip_large_synthetic(tmp_path):
    rng = random.Random(42)
    registry = gen_registry(rng, max_categories=5, max_services=10, max_operations=4)
    # pad up to ~1000 services to exercise volume
    while sum(1 for _ in registry.iter_services()) < 1000:
        more = gen_registry(random.Random(rng.random()), max_categories=2, max_services=10)
        for category in more.categories:
            name = f"{category.name}{rng.randrange(10 ** 9)}"
            services = [
                dataclasses.replace(service, service_key=f"{service.service_key}.{rng.randrange(10 ** 9)}")
                for service in category.services
            ]
            registry.categories.append(dataclasses.replace(category, name=name, services=services))
    out = tmp_path / "large.json"
    save_registry(registry, out)
    assert load_registry(out) == registry


def test_normalization_is_idempotent(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    registry = load_registry(SENDMAIL_REGISTRY)
    save_registry(registry, first)
    save_registry(load_registry(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_categories_and_services_refuse_edits_in_place():
    registry = load_registry(SENDMAIL_REGISTRY)
    category = registry.categories[0]
    service = category.services[0]
    with pytest.raises(AttributeError):
        category.services.append(service)
    with pytest.raises(dataclasses.FrozenInstanceError):
        service.operations = []
    with pytest.raises(dataclasses.FrozenInstanceError):
        category.services = ()
    with pytest.raises(AttributeError):
        category.keywords.add("extra")
    operation = service.operations[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        operation.qos_history = ()
    for sequence in (operation.inputs, operation.outputs, operation.qos_history):
        with pytest.raises(AttributeError):
            sequence.append(sequence[0])
    # an append builds a new operation, service and category around the
    # new history, and leaves the ones a caller holds as they were
    index = category.operation_index
    history = operation.qos_history
    assert append_snapshot(registry, service.service_key, operation.name, _snap(1)) is registry
    assert operation.qos_history is history and category.operation_index is index
    assert category.operation_index.entries[0] == (service, operation)
    [appended] = [op for _, op in registry.categories[0].operation_index.entries if op.name == operation.name]
    assert appended.qos_history == (*history, _snap(1))


def test_operation_index_is_built_on_first_use_only(tmp_path):
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    registry = load_registry(path)
    assert all("operation_index" not in vars(c) for c in registry.categories)
    index = registry.categories[0].operation_index
    assert registry.categories[0].operation_index is index
    assert [op.name for _, op in index.entries] == [
        op.name for service in registry.categories[0].services for op in service.operations
    ]


def test_no_load_write_import_or_fold_derives_what_only_the_gate_reads(tmp_path, monkeypatch):
    assert [f.name for f in dataclasses.fields(Operation)] == [
        "name", "inputs", "outputs", "qos_history",
    ]
    assert "__post_init__" not in vars(Operation)
    original = registry_module.extract_keywords
    tokenized: list[str] = []

    def recording(text):
        tokenized.append(text)
        return original(text)

    monkeypatch.setattr(registry_module, "extract_keywords", recording)
    path = _sendmail_copy(tmp_path)

    def only_category_keywords() -> None:
        keywords = {k for c in json.loads(path.read_bytes())["categories"] for k in c["keywords"]}
        assert set(tokenized) <= keywords, set(tokenized) - keywords
        tokenized.clear()

    def unindexed(registry: ServiceRegistry) -> bool:
        return all("operation_index" not in vars(c) for c in registry.categories)

    assert unindexed(load_registry(path))
    only_category_keywords()
    record_snapshot(path, AUTH, "login", _snap(1))  # builds the whole registry, writes the index
    only_category_keywords()
    with _counted("decode_json") as decoded:
        record_snapshot(path, AUTH, "logout", _snap(2))
    assert decoded == []  # through the index
    only_category_keywords()
    service = import_wsdl(WSDL_FILE.read_text(encoding="utf-8"), loaded_at=EPOCH)
    assert tokenized == []
    with _counted("_checked") as folded:
        add_service(path, service, "communication")
    only_category_keywords()
    assert unindexed(folded[0])


def test_saved_file_is_indented_json_bytes(tmp_path):
    rng = random.Random(7)
    registry = map_operations(
        gen_registry(rng, max_categories=4, max_services=5, max_operations=3),
        lambda _, op: dataclasses.replace(op, qos_history=tuple(
            make_snapshot(rng, EPOCH + timedelta(days=30 * k), ["cost", "zéro"]) for k in range(3)
        )),
    )
    category = registry.categories[-1]
    renamed = dataclasses.replace(category.services[-1], name="naïve \"quoted\" \u0001 name")
    registry.categories[-1] = dataclasses.replace(category, services=(*category.services[:-1], renamed))
    out = tmp_path / "registry.json"
    save_registry(registry, out)
    assert out.read_bytes() == (json.dumps(registry_to_dict(registry), indent=2) + "\n").encode("utf-8")


def test_save_keeps_permission_bits_and_leaves_no_temporary(tmp_path):
    out = tmp_path / "registry.json"
    save_registry(load_registry(SENDMAIL_REGISTRY), out)
    out.chmod(0o640)
    save_registry(ServiceRegistry(), out)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert load_registry(out) == ServiceRegistry()
    assert [p.name for p in tmp_path.iterdir()] == ["registry.json"]


_FAILING_SAVE = """
import resource, signal, sys
from procsel.registry import load_registry, save_registry
from procsel.errors import RegistryError
registry = load_registry(sys.argv[1])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[3]), resource.RLIM_INFINITY))
try:
    save_registry(registry, sys.argv[2])
except RegistryError as exc:
    print(exc)
    sys.exit(3)
"""


def test_save_failing_midway_leaves_the_old_file(tmp_path):
    # The child may write at most 16 KiB per file, and the new registry is
    # larger: its write fails midway. The old file must keep its bytes.
    rng = random.Random(3)
    big = map_operations(
        gen_registry(rng, max_categories=5, max_services=10, max_operations=4),
        lambda _, op: dataclasses.replace(op, qos_history=tuple(
            make_snapshot(rng, EPOCH + timedelta(days=30 * k)) for k in range(8)
        )),
    )
    source = tmp_path / "source" / "big.json"
    source.parent.mkdir()
    save_registry(big, source)
    assert source.stat().st_size > 4 * 16384
    target = tmp_path / "registry.json"
    save_registry(load_registry(SENDMAIL_REGISTRY), target)
    before = target.read_bytes()

    result = subprocess.run(
        [sys.executable, "-c", _FAILING_SAVE, str(source), str(target), str(16384)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 3, result.stderr
    assert "cannot write registry file" in result.stdout
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.json", "source"]


# --- append_snapshot ---------------------------------------------------------

def test_append_snapshot_extends_history(sendmail_registry):
    key = "ws.15.09.2013.08.43.40"
    snap = QosSnapshot(datetime(2014, 3, 14, tzinfo=timezone.utc), 0.97, 115.0, 400)
    append_snapshot(sendmail_registry, key, "login", snap)
    _, service = sendmail_registry.find_service(key)
    history = service.operations[0].qos_history
    assert len(history) == 3
    assert history[-1].timestamp == snap.timestamp


def test_append_snapshot_rejects_equal_timestamp(sendmail_registry):
    snap = QosSnapshot(datetime(2014, 2, 14, tzinfo=timezone.utc), 0.97, 115.0, 400)
    with pytest.raises(RegistryError, match="not after"):
        append_snapshot(sendmail_registry, "ws.15.09.2013.08.43.40", "login", snap)


def test_append_snapshot_to_empty_history(sendmail_registry):
    snap = QosSnapshot(datetime(2014, 3, 14, tzinfo=timezone.utc), 0.9, 100.0, 1)
    append_snapshot(sendmail_registry, "ws.15.09.2013.08.43.40", "logout", snap)
    _, service = sendmail_registry.find_service("ws.15.09.2013.08.43.40")
    assert len(service.operations[1].qos_history) == 1


def test_append_snapshot_unknown_targets(sendmail_registry):
    snap = QosSnapshot(datetime(2014, 3, 14, tzinfo=timezone.utc), 0.9, 100.0, 1)
    with pytest.raises(RegistryError, match="unknown serviceKey"):
        append_snapshot(sendmail_registry, "nope", "login", snap)
    with pytest.raises(RegistryError, match="no operation"):
        append_snapshot(sendmail_registry, "ws.15.09.2013.08.43.40", "nope", snap)


def test_histories_stay_chronological_after_appends(sendmail_registry):
    rng = random.Random(3)
    key = "ws.15.09.2013.09.43.45"
    when = EPOCH + timedelta(days=60)
    for _ in range(5):
        when += timedelta(days=rng.randint(1, 40))
        append_snapshot(sendmail_registry, key, "sendEmail", make_snapshot(rng, when))
    _, service = sendmail_registry.find_service(key)
    history = service.operations[0].qos_history
    assert all(a.timestamp < b.timestamp for a, b in zip(history, history[1:]))


# --- the snapshot log ------------------------------------------------------------

AUTH = "ws.15.09.2013.08.43.40"


def _sendmail_copy(tmp_path: Path) -> Path:
    path = tmp_path / "registry.json"
    path.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    return path


def _snap(day: int, availability: float = 0.9) -> QosSnapshot:
    return QosSnapshot(datetime(2026, 1, day, tzinfo=timezone.utc), availability, 100.0, 5)


def _index(path: Path) -> Path:
    return path.with_name(path.name + ".index")


def _write_index_for(path: Path) -> None:
    """Write the index that an accepted snapshot write makes of the file's bytes."""
    raw = path.read_bytes()
    registry = _read(json.loads(raw), str(path))
    registry_module._write_index(path, raw, registry_module._last_timestamps(registry))


@contextmanager
def _counted(name: str):
    """A block in which each call of the registry module's `name` is counted, by its first argument."""
    calls = []
    original = getattr(registry_module, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    with mock.patch.object(registry_module, name, counted):
        yield calls


def test_record_snapshot_appends_one_line_and_leaves_the_file(tmp_path):
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    record_snapshot(path, AUTH, "logout", _snap(2, availability=1.0))
    assert path.read_bytes() == SENDMAIL_REGISTRY.read_bytes()
    log = snapshot_log_path(path)
    assert log == tmp_path / "registry.json.snapshots"
    assert log.read_bytes() == (
        b'{"serviceKey":"ws.15.09.2013.08.43.40","operation":"login","timestamp":"2026-01-01T00:00:00Z",'
        b'"availability":0.9,"executionTimeMs":100.0,"totalCalls":5}\n'
        b'{"serviceKey":"ws.15.09.2013.08.43.40","operation":"logout","timestamp":"2026-01-02T00:00:00Z",'
        b'"availability":1.0,"executionTimeMs":100.0,"totalCalls":5}\n'
    )
    expected = load_registry(SENDMAIL_REGISTRY)
    append_snapshot(expected, AUTH, "login", _snap(1))
    append_snapshot(expected, AUTH, "logout", _snap(2, availability=1.0))
    assert load_registry(path) == expected


def test_log_folds_into_the_file_at_a_quarter_of_its_size(tmp_path):
    path = _sendmail_copy(tmp_path)
    log = snapshot_log_path(path)
    expected = load_registry(path)
    for day in range(1, 29):
        record_snapshot(path, AUTH, "login", _snap(day))
        append_snapshot(expected, AUTH, "login", _snap(day))
        assert 4 * log.stat().st_size < path.stat().st_size
        if log.stat().st_size == 0:
            break
    assert day > 2  # some writes were appends before the fold
    assert log.read_bytes() == b""
    assert _read(json.loads(path.read_text(encoding="utf-8"))) == expected
    assert load_registry(path) == expected


def test_save_registry_empties_the_log(tmp_path):
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    registry = load_registry(path)
    save_registry(registry, path)
    assert snapshot_log_path(path).read_bytes() == b""
    assert _read(json.loads(path.read_text(encoding="utf-8"))) == registry
    assert load_registry(path) == registry


@pytest.mark.parametrize("enabled", [True, False])
def test_whole_file_paths_run_without_the_collector_and_leave_it_as_they_found_it(
    tmp_path, monkeypatch, enabled
):
    # A load, a snapshot write that builds the whole registry, a fold, and
    # a folding snapshot write beside a fresh index decode the file, build
    # every record and rewrite the file with the cyclic collector off;
    # after each it is as the caller had it, also after a load that
    # refuses the file's last record.
    path = _sendmail_copy(tmp_path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["categories"][-1]["services"][-1]["operations"][-1]["qos"].append(
        {"timestamp": "2030-01-01T00:00:00Z", "availability": 1.2, "executionTimeMs": 1.0, "totalCalls": 1}
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    seen = []
    for name in ("read_json", "decode_json", "_service_from_dict", "_write_registry_file"):

        def spy(*args, _name=name, _original=getattr(registry_module, name)):
            seen.append((_name, gc.isenabled()))
            return _original(*args)

        monkeypatch.setattr(registry_module, name, spy)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_registry(path)
        assert gc.isenabled() is enabled
        with pytest.raises(RegistryError, match="availability"):
            load_registry(bad)
        assert gc.isenabled() is enabled
        record_snapshot(path, AUTH, "login", _snap(1))  # no index yet: the whole registry
        assert gc.isenabled() is enabled
        save_registry(load_registry(path), path)  # folds the log
        assert gc.isenabled() is enabled
        record_snapshot(path, AUTH, "login", _snap(2))  # writes the index of the folded file
        _log_past_a_quarter(path, [(AUTH, "logout")])
        before = len(seen)
        record_snapshot(path, AUTH, "login", _snap(28))  # folds, beside a fresh index
        assert gc.isenabled() is enabled
        assert snapshot_log_path(path).read_bytes() == b""
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert {name for name, _ in seen} == {"read_json", "decode_json", "_service_from_dict", "_write_registry_file"}
    assert {name for name, _ in seen[before:]} == {"decode_json", "_service_from_dict", "_write_registry_file"}
    assert [on for _, on in seen] == [False] * len(seen)


def _wsdl_service() -> WebService:
    return import_wsdl(WSDL_FILE.read_text(encoding="utf-8"), loaded_at=EPOCH)


@pytest.mark.parametrize("category", ["communication", "auth2"])
def test_add_service_folds_the_log_with_the_service(tmp_path, category):
    """The file becomes the loaded registry, log replayed, with the service
    last in the category of that name, or in a new category last whose
    keywords are those of its name and the service's. The log is emptied,
    and the index is left to the next snapshot write, which finds it stale."""
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    index = _index(path).read_bytes()
    expected = registry_to_dict(load_registry(path))
    service = _wsdl_service()
    if category == "communication":
        expected["categories"][0]["services"].append(registry_module.service_to_dict(service))
    else:
        keywords = sorted({*extract_keywords("auth2"), *extract_keywords(service.name)})
        expected["categories"].append(
            {"name": "auth2", "keywords": keywords, "services": [registry_module.service_to_dict(service)]}
        )
    add_service(path, service, category)
    assert path.read_bytes() == (dumps_indented(expected) + "\n").encode("utf-8")
    assert snapshot_log_path(path).read_bytes() == b""
    assert _index(path).read_bytes() == index
    reloaded = load_registry(path)
    assert reloaded.find_service(AUTH)[1].operations[0].qos_history[-1] == _snap(1)
    assert reloaded.find_service(service.service_key) == (reloaded.categories[-1 if category == "auth2" else 0], service)


class _Crash(Exception):
    pass


def test_fold_interrupted_after_its_rename_reloads_the_same(tmp_path, monkeypatch):
    path = _sendmail_copy(tmp_path)
    for day in (1, 2):
        record_snapshot(path, AUTH, "login", _snap(day))
    record_snapshot(path, AUTH, "logout", _snap(3))
    expected = registry_to_dict(load_registry(path))
    log = snapshot_log_path(path)
    lines = log.read_bytes()

    rewrite = registry_module._write_registry_file

    def rewrite_then_crash(registry, target):
        rewrite(registry, target)
        raise _Crash  # after the rename, before the log is truncated

    monkeypatch.setattr(registry_module, "_write_registry_file", rewrite_then_crash)
    with pytest.raises(_Crash):
        save_registry(load_registry(path), path)
    monkeypatch.undo()
    assert log.read_bytes() == lines
    assert path.read_bytes() != SENDMAIL_REGISTRY.read_bytes()
    assert registry_to_dict(load_registry(path)) == expected

    # The leftover lines stay harmless for later writes, and a fold clears them.
    record_snapshot(path, AUTH, "login", _snap(4))
    registry = load_registry(path)
    assert registry.find_service(AUTH)[1].operations[0].qos_history[-3:] == (_snap(1), _snap(2), _snap(4))
    save_registry(registry, path)
    assert log.read_bytes() == b""
    assert load_registry(path) == registry


def test_write_after_a_cut_off_fold_folds_the_leftover_lines_away(tmp_path):
    """Log lines that a fold cut off before emptying the log left behind
    make the next write fold, so the index serves the writes after it."""
    path = _sendmail_copy(tmp_path)
    log = snapshot_log_path(path)
    for day in (1, 2):
        record_snapshot(path, AUTH, "login", _snap(day))
    leftover = log.read_bytes()
    save_registry(load_registry(path), path)
    log.write_bytes(leftover)  # as if the fold had been cut off after its rename
    expected = load_registry(path)
    decodes = []
    for day in (3, 4, 5):
        with _counted("decode_json") as decoded:
            record_snapshot(path, AUTH, "login", _snap(day))
        decodes.append(len(decoded))
        append_snapshot(expected, AUTH, "login", _snap(day))
    # a fold, then a write that indexes the folded file, then one through that index
    assert decodes == [1, 1, 0]
    assert [json.loads(line)["timestamp"] for line in log.read_bytes().splitlines()] == [
        "2026-01-04T00:00:00Z", "2026-01-05T00:00:00Z",
    ]
    assert load_registry(path) == expected


@pytest.mark.parametrize("change, refusal", [
    ({"availability": True}, ": field 'availability' has wrong type"),
    ({"execution_time_ms": True}, ": field 'executionTimeMs' has wrong type"),
    ({"extra": {"cost": True}}, ".extra: field 'cost' has wrong type"),
    ({"total_calls": 3.0}, ": field 'totalCalls' has wrong type"),
])
def test_snapshot_write_refuses_a_value_type_a_load_refuses(tmp_path, change, refusal):
    """A snapshot whose line a load would refuse is refused by the write,
    beside the index an accepted write made, and by append_snapshot, naming
    the field the load names; no byte of the file, the log or the index changes."""
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    files = ("registry.json", "registry.json.snapshots", "registry.json.index")
    before = {name: (tmp_path / name).read_bytes() for name in files}
    snapshot = dataclasses.replace(_snap(2), **change)
    with pytest.raises(RegistryError) as written:
        record_snapshot(path, AUTH, "login", snapshot)
    assert str(written.value) == f"snapshot for {AUTH}/login{refusal}"
    assert {name: (tmp_path / name).read_bytes() for name in files} == before
    registry = load_registry(path)
    with pytest.raises(RegistryError) as appended:
        append_snapshot(registry, AUTH, "login", snapshot)
    assert str(appended.value) == str(written.value)
    line = {"serviceKey": AUTH, "operation": "login", **snapshot_to_dict(snapshot)}
    snapshot_log_path(path).write_bytes(before["registry.json.snapshots"] + json.dumps(line).encode("ascii") + b"\n")
    with pytest.raises(RegistryError) as loaded:
        load_registry(path)
    assert str(loaded.value) == f"{snapshot_log_path(path)}: line 2{refusal}"


@pytest.mark.parametrize("timestamp", ["2026-01-02T00:00:00Z", None])
def test_snapshot_write_refuses_a_timestamp_that_is_not_a_datetime(tmp_path, timestamp):
    """Beside the index an accepted write made, no byte of the file, the
    log or the index changes."""
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    files = ("registry.json", "registry.json.snapshots", "registry.json.index")
    before = {name: (tmp_path / name).read_bytes() for name in files}
    with pytest.raises(RegistryError) as written:
        record_snapshot(path, AUTH, "login", dataclasses.replace(_snap(2), timestamp=timestamp))
    kind = type(timestamp).__name__
    assert str(written.value) == f"snapshot for {AUTH}/login: timestamp must be a datetime, not {kind}"
    assert {name: (tmp_path / name).read_bytes() for name in files} == before


@pytest.mark.parametrize("timestamp", ["2026-01-02T00:00:00Z", None])
def test_append_snapshot_refuses_a_timestamp_that_is_not_a_datetime(timestamp):
    registry = load_registry(SENDMAIL_REGISTRY)
    before = copy.deepcopy(registry)
    with pytest.raises(RegistryError) as appended:
        append_snapshot(registry, AUTH, "login", dataclasses.replace(_snap(2), timestamp=timestamp))
    kind = type(timestamp).__name__
    assert str(appended.value) == f"snapshot for {AUTH}/login: timestamp must be a datetime, not {kind}"
    assert registry == before


@pytest.mark.parametrize("extra", [{1: 2.0}, {"a": 1.0, 2: 3.0}])
def test_snapshot_writes_refuse_an_extra_attribute_name_that_is_not_a_string(tmp_path, extra):
    """Beside the index an accepted write made, neither write changes a
    byte of the file, the log or the index, nor any record in memory."""
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    files = ("registry.json", "registry.json.snapshots", "registry.json.index")
    before = {name: (tmp_path / name).read_bytes() for name in files}
    snapshot = dataclasses.replace(_snap(2), extra=extra)
    [name] = [name for name in extra if not isinstance(name, str)]
    refusal = f"snapshot for {AUTH}/login: extra attribute name {name!r} is not a string"
    with pytest.raises(RegistryError) as written:
        record_snapshot(path, AUTH, "login", snapshot)
    assert str(written.value) == refusal
    assert {name: (tmp_path / name).read_bytes() for name in files} == before
    registry = load_registry(path)
    held = copy.deepcopy(registry)
    with pytest.raises(RegistryError) as appended:
        append_snapshot(registry, AUTH, "login", snapshot)
    assert str(appended.value) == refusal
    assert registry == held
    assert {name: (tmp_path / name).read_bytes() for name in files} == before


def _with_login_snapshot(registry: ServiceRegistry, snapshot: QosSnapshot) -> ServiceRegistry:
    """`registry` with `snapshot` added by hand to the history of AUTH's login."""
    return map_operations(registry, lambda service, op: dataclasses.replace(
        op, qos_history=(*op.qos_history, snapshot)
    ) if (service.service_key, op.name) == (AUTH, "login") else op)


@pytest.mark.parametrize("write", ["save_registry", "add_service"])
@pytest.mark.parametrize("change", [{"availability": True}, {"total_calls": 3.0}, {"availability": 2.0}])
def test_a_registry_a_load_would_refuse_is_not_written(tmp_path, write, change):
    """A registry built or edited by hand, or a service added, with a value
    the load refuses is refused with the text a load of its file would
    raise. The file, the log and the index keep their bytes."""
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))  # writes the log and the index
    files = ("registry.json", "registry.json.snapshots", "registry.json.index")
    before = {name: (tmp_path / name).read_bytes() for name in files}
    registry = load_registry(path)
    broken = _with_login_snapshot(registry, dataclasses.replace(_snap(2), **change))
    if write == "add_service":  # AUTH's broken record, under a new key, added to the loaded registry
        added = dataclasses.replace(broken.find_service(AUTH)[1], service_key="ws.added")
        first = registry.categories[0]
        registry.categories[0] = dataclasses.replace(first, services=(*first.services, added))
        broken = registry
    elsewhere = tmp_path / "elsewhere" / "registry.json"
    elsewhere.parent.mkdir()
    elsewhere.write_text(json.dumps(registry_to_dict(broken)), encoding="utf-8")
    with pytest.raises(RegistryError) as loaded:
        load_registry(elsewhere)
    with pytest.raises(RegistryError) as written:
        if write == "save_registry":
            save_registry(broken, path)
        else:
            add_service(path, added, "communication")
    assert str(written.value) == str(loaded.value).replace(str(elsewhere), str(path))
    assert "operations[0].qos[3]" in str(written.value)  # after two in the file and one logged
    assert {name: (tmp_path / name).read_bytes() for name in files} == before


@pytest.mark.parametrize("cut", [1, 30, -1])
def test_torn_final_log_line_is_ignored_then_cut_off(tmp_path, cut):
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    log = snapshot_log_path(path)
    whole = log.read_bytes()
    expected = registry_to_dict(load_registry(path))
    # a second write that never returned: its line lacks at least the newline
    record_snapshot(path, AUTH, "login", _snap(2))
    second = log.read_bytes()[len(whole):]
    log.write_bytes(whole + second[:cut])
    assert registry_to_dict(load_registry(path)) == expected

    record_snapshot(path, AUTH, "login", _snap(3))
    assert log.read_bytes().startswith(whole)
    assert log.read_bytes().count(b"\n") == 2
    history = load_registry(path).find_service(AUTH)[1].operations[0].qos_history
    assert history[-2:] == (_snap(1), _snap(3))


@pytest.mark.parametrize("recorded_in", ["file", "log"])
def test_log_line_differing_at_a_recorded_timestamp_is_refused(tmp_path, recorded_in):
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    record_snapshot(path, AUTH, "logout", _snap(2))
    log = snapshot_log_path(path)
    if recorded_in == "log":
        line = json.loads(log.read_bytes().splitlines()[0])
    else:
        first = load_registry(SENDMAIL_REGISTRY).find_service(AUTH)[1].operations[0].qos_history[0]
        line = {"serviceKey": AUTH, "operation": "login", **registry_module.snapshot_to_dict(first)}
    line["availability"] = 0.123
    with open(log, "ab") as handle:
        handle.write(json.dumps(line).encode("ascii") + b"\n")
    pattern = rf"^{re.escape(str(log))}: line 3: .*different snapshot at {line['timestamp']}"
    with pytest.raises(RegistryError, match=pattern):
        load_registry(path)
    with pytest.raises(RegistryError, match=pattern):
        record_snapshot(path, AUTH, "login", _snap(5))


def test_malformed_log_lines_are_named_by_number(tmp_path):
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    log = snapshot_log_path(path)
    good = log.read_bytes()
    for bad, message in (
        (b"[1, 2]\n", "must be an object"),
        (b"{nope\n", "not a JSON line"),
        (b'{"serviceKey": "nope", "operation": "login"}\n', "missing required field 'timestamp'"),
        (b"\xff\n", "not UTF-8"),
        (b'{"serviceKey": "ws.15.09.2013.08.43.40", "operation": 7}\n', "field 'operation' has wrong type"),
        (b"[" * 200_000 + b"]" * 200_000 + b"\n", "not a JSON line: nested too deeply"),
    ):
        log.write_bytes(good + bad + good)
        before = (path.read_bytes(), log.read_bytes())
        with pytest.raises(RegistryError, match=rf"{re.escape(str(log))}: line 2: .*{message}") as loaded:
            load_registry(path)
        for target in (AUTH, "ws.nope"):  # an unknown target is refused only after the log
            with pytest.raises(RegistryError) as written:
                record_snapshot(path, target, "login", _snap(2))
            assert str(written.value) == str(loaded.value)
        assert (path.read_bytes(), log.read_bytes()) == before


def _break_service(data: dict, index: int, fault: str) -> str:
    """Corrupt the record of the sendmail fixture's service `index`; the path it is refused at."""
    service = data["categories"][0]["services"][index]
    if fault == "availability":
        service["operations"][0]["qos"][0]["availability"] = 1.5
        return f"categories[0].services[{index}].operations[0].qos[0]: availability 1.5 outside [0, 1]"
    service["operations"][1]["name"] = service["operations"][0]["name"]
    return f"categories[0].services[{index}]: duplicate operation name"


def _log_past_a_quarter(path: Path, targets) -> None:
    """Write a log of lines naming `targets`, (serviceKey, operation) pairs
    in turn, one hour apart from 2026-01-01, until it reaches a quarter of
    the file: the next snapshot write folds."""
    log, hour = b"", 0
    while 4 * len(log) < path.stat().st_size:
        service_key, operation = targets[hour % len(targets)]
        snapshot = QosSnapshot(_snap(1).timestamp + timedelta(hours=hour), 0.9, 100.0, 5)
        line = {"serviceKey": service_key, "operation": operation, **snapshot_to_dict(snapshot)}
        log += json.dumps(line, separators=(",", ":")).encode("ascii") + b"\n"
        hour += 1
    snapshot_log_path(path).write_bytes(log)


@pytest.mark.parametrize("fault", ["availability", "duplicate operation"])
def test_snapshot_write_refuses_a_fault_in_any_record_as_a_load_does(tmp_path, fault):
    """A fault in another service's record refuses the write with the load's
    text, beside the index an accepted write made before the fault, and so
    does one in a record a log line names or in the target's own record."""
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    assert _index(path).exists()
    log = snapshot_log_path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    other = data["categories"][0]["services"][1]["serviceKey"]
    for broken_service, named_by_line in ((1, False), (1, True), (0, False)):
        broken = copy.deepcopy(data)
        fault_path = _break_service(broken, broken_service, fault)
        path.write_text(dumps_indented(broken) + "\n", encoding="utf-8")
        if named_by_line:
            with open(log, "ab") as handle:
                line = {"serviceKey": other, "operation": "sendEmail", **snapshot_to_dict(_snap(3))}
                handle.write(json.dumps(line).encode("ascii") + b"\n")
        before = (path.read_bytes(), log.read_bytes())
        with pytest.raises(RegistryError, match=re.escape(fault_path)) as loaded:
            load_registry(path)
        with pytest.raises(RegistryError) as written:
            record_snapshot(path, AUTH, "login", _snap(4))
        assert str(written.value) == str(loaded.value)
        assert (path.read_bytes(), log.read_bytes()) == before


@pytest.mark.parametrize("fault", ["availability", "duplicate serviceKey"])
def test_folding_snapshot_write_checks_the_records_it_did_not_build(tmp_path, fault):
    """A write that folds checks every record it did not build as a load
    does: a fault in another service's record, or a second record with the
    target's serviceKey, refuses it with the load's text and changes no byte."""
    path = _sendmail_copy(tmp_path)
    data = json.loads(path.read_text(encoding="utf-8"))
    other = data["categories"][0]["services"][1]
    if fault == "availability":
        other["operations"][0]["qos"][0]["availability"] = 1.5
    else:
        other["serviceKey"] = AUTH
    path.write_text(dumps_indented(data) + "\n", encoding="utf-8")
    _log_past_a_quarter(path, [(AUTH, "login")])
    before = (path.read_bytes(), snapshot_log_path(path).read_bytes())
    with pytest.raises(RegistryError, match=fault) as loaded:
        load_registry(path)
    with pytest.raises(RegistryError) as written:
        record_snapshot(path, AUTH, "logout", _snap(28))
    assert str(written.value) == str(loaded.value)
    assert (path.read_bytes(), snapshot_log_path(path).read_bytes()) == before


def test_indexed_snapshot_write_decodes_no_registry_byte_and_builds_no_service(tmp_path):
    path = tmp_path / "registry.json"
    generated = gen_registry(random.Random(5), max_categories=4, max_services=8, max_operations=3)
    save_registry(generated, path)
    services = [service for _, service in generated.iter_services()]
    assert len(services) >= 10
    named = services[1:4]
    record_snapshot(path, named[0].service_key, named[0].operations[0].name, _snap(1))
    assert _index(path).exists()  # made by that write, used by the others
    target = services[-1]
    writes = [(service, day) for day, service in enumerate(named[1:], start=2)] + [(target, 9)]
    with _counted("decode_json") as decoded, _counted("_service_from_dict") as built:
        for service, day in writes:
            record_snapshot(path, service.service_key, service.operations[0].name, _snap(day))
    assert (decoded, built) == ([], [])
    assert snapshot_log_path(path).read_bytes().count(b"\n") == len(named) + 1  # appended, not folded
    expected = copy.deepcopy(generated)
    for day, service in enumerate(named, start=1):
        append_snapshot(expected, service.service_key, service.operations[0].name, _snap(day))
    append_snapshot(expected, target.service_key, target.operations[0].name, _snap(9))
    assert registry_to_dict(load_registry(path)) == registry_to_dict(expected)


def test_folding_snapshot_write_builds_each_service_record_once(tmp_path, monkeypatch):
    path = tmp_path / "registry.json"
    generated = gen_registry(random.Random(5), max_categories=4, max_services=8, max_operations=3)
    save_registry(generated, path)
    services = [service for _, service in generated.iter_services()]
    assert len(services) >= 10
    _log_past_a_quarter(path, [(service.service_key, service.operations[0].name) for service in services[1:4]])
    target = services[-1]
    expected = load_registry(path)
    append_snapshot(expected, target.service_key, target.operations[0].name, _snap(28))
    calls = []
    build = registry_module._service_from_dict

    def counted(*args):
        calls.append(args[0]["serviceKey"])
        return build(*args)

    monkeypatch.setattr(registry_module, "_service_from_dict", counted)
    record_snapshot(path, target.service_key, target.operations[0].name, _snap(28))
    monkeypatch.undo()
    assert snapshot_log_path(path).read_bytes() == b""  # folded
    assert sorted(calls) == sorted(service.service_key for service in services)  # each record once
    assert load_registry(path) == expected


@pytest.mark.parametrize("fault", ["availability", "duplicate serviceKey"])
def test_folding_indexed_snapshot_write_checks_the_records_it_did_not_build(tmp_path, fault):
    """As above, beside an index that holds the digest of the file's bytes,
    as if an accepted write had made it: a write that folds does not read
    the index, and builds and checks every record as a load does."""
    path = _sendmail_copy(tmp_path)
    data = json.loads(path.read_text(encoding="utf-8"))
    other = data["categories"][0]["services"][1]
    if fault == "availability":
        other["operations"][0]["qos"][0]["availability"] = 1.5
    else:
        other["serviceKey"] = AUTH
    path.write_text(dumps_indented(data) + "\n", encoding="utf-8")
    last = registry_module._last_timestamps(load_registry(SENDMAIL_REGISTRY))
    registry_module._write_index(path, path.read_bytes(), last)
    _log_past_a_quarter(path, [(AUTH, "login")])
    before = (path.read_bytes(), snapshot_log_path(path).read_bytes())
    with pytest.raises(RegistryError, match=fault) as loaded:
        load_registry(path)
    with pytest.raises(RegistryError) as written:
        record_snapshot(path, AUTH, "logout", _snap(28))
    assert str(written.value) == str(loaded.value)
    assert (path.read_bytes(), snapshot_log_path(path).read_bytes()) == before


def test_folding_indexed_snapshot_write_builds_each_service_record_once(tmp_path):
    path = tmp_path / "registry.json"
    generated = gen_registry(random.Random(5), max_categories=4, max_services=8, max_operations=3)
    save_registry(generated, path)
    _write_index_for(path)
    services = [service for _, service in generated.iter_services()]
    _log_past_a_quarter(path, [(service.service_key, service.operations[0].name) for service in services[1:4]])
    target = services[-1]
    expected = load_registry(path)
    append_snapshot(expected, target.service_key, target.operations[0].name, _snap(28))
    with _counted("_service_from_dict") as built:
        record_snapshot(path, target.service_key, target.operations[0].name, _snap(28))
    assert snapshot_log_path(path).read_bytes() == b""  # folded
    assert sorted(record["serviceKey"] for record in built) == sorted(s.service_key for s in services)  # once each
    assert load_registry(path) == expected


def test_log_follows_the_resolved_registry_path(tmp_path):
    path = _sendmail_copy(tmp_path)
    link = tmp_path / "link.json"
    link.symlink_to(path)
    record_snapshot(link, AUTH, "login", _snap(1))
    assert snapshot_log_path(link) == snapshot_log_path(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.json", "registry.json", "registry.json.index", "registry.json.snapshots",
    ]
    assert load_registry(path) == load_registry(link)


@pytest.mark.parametrize("waiting", ["load_registry", "record_snapshot"])
def test_a_held_update_makes_loads_and_writes_wait(tmp_path, monkeypatch, waiting):
    """add_service holds the log's lock from its load to its fold: here it
    is held in its check, which nothing else calls."""
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    entered, release = threading.Event(), threading.Event()
    checked = registry_module._checked

    def held(*args):
        entered.set()
        release.wait(10)
        return checked(*args)

    monkeypatch.setattr(registry_module, "_checked", held)
    service = _wsdl_service()

    def hold():
        add_service(path, service, "communication")

    holder = threading.Thread(target=hold)
    holder.start()
    assert entered.wait(10)
    loaded = []
    action = {
        "load_registry": lambda: loaded.append(load_registry(path)),
        "record_snapshot": lambda: record_snapshot(path, AUTH, "login", _snap(3)),
    }[waiting]
    other = threading.Thread(target=action)
    other.start()
    other.join(0.5)
    waited = other.is_alive()
    release.set()
    holder.join(10)
    other.join(10)
    assert not holder.is_alive() and not other.is_alive()
    assert waited
    reloaded = load_registry(path)
    assert reloaded.find_service(service.service_key)[1] == service
    history = reloaded.find_service(AUTH)[1].operations[0].qos_history
    if waiting == "load_registry":
        assert loaded[0].find_service(service.service_key)[1] == service
        assert loaded[0].find_service(AUTH)[1].operations[0].qos_history[-1] == _snap(1)
        assert history[-1] == _snap(1)
    else:
        assert history[-2:] == (_snap(1), _snap(3))


_WRITES = st.lists(
    st.tuples(
        st.integers(0, 10**6),  # picks the operation
        st.integers(1, 90),  # days after that operation's last snapshot
        st.integers(0, 10**6 - 1),  # microseconds
        st.lists(st.sampled_from(EXTRA_QOS_ATTRS), unique=True, max_size=2),
    ),
    max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), writes=_WRITES)
def test_log_file_and_memory_hold_the_same_registry(seed, writes):
    """Snapshots in the log, folded into the file, or appended in memory:
    the registry and the selection report are the same."""
    rng = random.Random(seed)
    generated = gen_registry(rng, max_categories=4, max_services=6, max_operations=3)
    process = gen_process(rng, generated)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "registry.json"
        save_registry(generated, path)
        in_memory = load_registry(path)
        pairs = [(s.service_key, o.name) for _, s in in_memory.iter_services() for o in s.operations]
        for pick, days, micros, attrs in writes:
            service_key, name = pairs[pick % len(pairs)]
            history = _history(in_memory, service_key, name)
            last = history[-1].timestamp if history else EPOCH
            snapshot = make_snapshot(rng, last + timedelta(days=days, microseconds=micros), attrs)
            append_snapshot(in_memory, service_key, name, snapshot)
            record_snapshot(path, service_key, name, snapshot)
        logged = load_registry(path)
        save_registry(logged, path)
        if writes:
            assert snapshot_log_path(path).read_bytes() == b""
        folded = load_registry(path)

    expected = registry_to_dict(in_memory)
    assert registry_to_dict(logged) == expected
    assert registry_to_dict(folded) == expected
    reports = {
        serialize_report(select_for_process(process, registry, EMPTY_LEXICON, DEFAULT_CONFIG))
        for registry in (in_memory, logged, folded)
    }
    assert len(reports) == 1


def _write_outcome(write, directory: Path, files: dict[str, bytes], target, snapshot):
    """Run one snapshot write on a fresh copy of `files`: its refusal or None, and the bytes left."""
    directory.mkdir()
    for name, content in files.items():
        (directory / name).write_bytes(content)
    try:
        write(directory / "registry.json", *target, snapshot)
        refusal = None
    except RegistryError as exc:
        refusal = str(exc).replace(str(directory), "<dir>")
    return refusal, {name: (directory / name).read_bytes() for name in files}


_BAD_VALUES = st.sampled_from([
    *[{}] * 8,  # mostly good values, so that most writes reach the chronology check
    {"availability": 1.5},
    {"availability": math.nan},
    {"execution_time_ms": 0.0},
    {"execution_time_ms": math.inf},
    {"execution_time_ms": 1e200},
    {"total_calls": -1},
    {"total_calls": True},
    {"total_calls": 10**400},
    {"extra": {"cost": -math.inf}},
])


def _corrupt(data: dict, how: str, target_key: str, named_key: str | None, rng: random.Random) -> None:
    """Give the registry file data `data` a fault that a load refuses."""
    records = [record for category in data["categories"] for record in category["services"]]
    if how == "out of range":  # in a record the write does not touch, where there is one
        record = rng.choice([r for r in records if r["serviceKey"] != target_key] or records)
        rng.choice(record["operations"])["qos"].append(
            {"timestamp": "2100-01-01T00:00:00Z", "availability": 1.5, "executionTimeMs": 1.0, "totalCalls": 1}
        )
    elif how == "duplicate serviceKey":
        data["categories"][-1]["services"].append(copy.deepcopy(rng.choice(records)))
    else:  # a duplicate operation name in the record a log line names, or in the target's
        key = named_key or target_key
        record = next((r for r in records if r["serviceKey"] == key), records[0])
        record["operations"].append(copy.deepcopy(record["operations"][0]))


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    logged=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 40)), max_size=12),
    tail=st.sampled_from([b"", b'{"torn']),
    pick=st.integers(0, 10**6),
    aim=st.sampled_from(["known"] * 4 + ["unknown service", "unknown operation"]),
    days=st.integers(-40, 40),
    bad=_BAD_VALUES,
    corrupt=st.sampled_from([None, "out of range", None, "duplicate serviceKey", None, "named by a line"]),
)
def test_snapshot_write_accepts_as_a_load_plus_append_snapshot_does(seed, logged, tail, pick, aim, days, bad, corrupt):
    """The write accepts, refuses with the same text, and leaves the same
    file and log bytes as loading the whole registry and calling
    append_snapshot: on a valid registry and log, and on a registry that a
    load refuses; beside no index, and beside the index an accepted write
    made of the valid registry's bytes. Through that index, an accepted
    write that appends decodes no registry byte and builds no service."""
    rng = random.Random(seed)
    # small registries, so that some writes fold the log into the file
    generated = gen_registry(rng, max_categories=2, max_services=3, max_operations=2)
    operations = [(s.service_key, o) for _, s in generated.iter_services() for o in s.operations]
    last = {(key, op.name): op.qos_history[-1].timestamp if op.qos_history else EPOCH for key, op in operations}
    lines = []
    for which, step in logged:
        key, op = operations[which % len(operations)]
        last[key, op.name] += timedelta(days=step)
        snapshot = make_snapshot(rng, last[key, op.name])
        lines.append({"serviceKey": key, "operation": op.name, **snapshot_to_dict(snapshot)})
    if lines and rng.random() < 0.5:
        lines.append(lines[0])  # a line a fold cut off after its rename left behind: skipped
    log = b"".join(json.dumps(line, separators=(",", ":")).encode("ascii") + b"\n" for line in lines) + tail
    key, op = operations[pick % len(operations)]
    target = {
        "known": (key, op.name),
        "unknown service": ("ws.nope", op.name),
        "unknown operation": (key, "nope"),
    }[aim]
    snapshot = dataclasses.replace(make_snapshot(rng, last[key, op.name] + timedelta(days=days)), **bad)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "registry.json"
        save_registry(generated, path)
        _write_index_for(path)
        if corrupt:
            data = json.loads(path.read_bytes())
            _corrupt(data, corrupt, target[0], lines[0]["serviceKey"] if lines else None, rng)
            path.write_text(dumps_indented(data) + "\n", encoding="utf-8")
        files = {"registry.json": path.read_bytes(), "registry.json.snapshots": log}
        index = {"registry.json.index": _index(path).read_bytes()}
        expected = _write_outcome(
            reference_record_snapshot, Path(directory) / "reference", files, target, snapshot
        )
        written = _write_outcome(record_snapshot, Path(directory) / "written", files, target, snapshot)
        with _counted("decode_json") as decoded, _counted("_service_from_dict") as built:
            indexed = _write_outcome(record_snapshot, Path(directory) / "indexed", {**files, **index}, target, snapshot)
    assert written == expected
    assert (indexed[0], {name: indexed[1][name] for name in files}) == expected
    if corrupt:
        assert expected[0] is not None
    appended = expected[0] is None and expected[1]["registry.json.snapshots"] != b""
    if appended and not corrupt:
        assert (decoded, built) == ([], [])
    else:
        assert len(decoded) == 1


# --- the index beside the registry file ---------------------------------------------

def _outcome_in_place(path: Path, target, snapshot):
    """Run one snapshot write on `path` itself: its refusal or None, and the file and log bytes."""
    try:
        record_snapshot(path, *target, snapshot)
        refusal = None
    except RegistryError as exc:
        refusal = str(exc).replace(str(path.parent), "<dir>")
    return refusal, {name: (path.parent / name).read_bytes() for name in ("registry.json", "registry.json.snapshots")}


def _fresh_index(path: Path, directory: Path) -> bytes:
    """The index an accepted write makes of the bytes of the file at `path`."""
    directory.mkdir()
    (directory / "registry.json").write_bytes(path.read_bytes())
    _write_index_for(directory / "registry.json")
    return _index(directory / "registry.json").read_bytes()


@pytest.mark.parametrize("replaced_by", ["save_registry", "import-wsdl", "hand edit"])
def test_index_of_replaced_bytes_is_not_trusted(tmp_path, replaced_by):
    """Once the file is replaced, the write decodes the whole file and ends as
    a load plus append_snapshot ends; accepted, it indexes the new bytes.
    The write runs on the file itself, so that the hand edit keeps the size
    and mtime the index was made under."""
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    assert json.loads(_index(path).read_bytes())["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    if replaced_by == "save_registry":
        registry = load_registry(path)
        added = dataclasses.replace(registry.find_service(AUTH)[1], service_key="ws.added")
        first = registry.categories[0]
        registry.categories[0] = dataclasses.replace(first, services=(*first.services, added))
        save_registry(registry, path)
        target = ("ws.added", "login")  # a serviceKey the old index does not hold
    elif replaced_by == "import-wsdl":
        known = {service.service_key for _, service in load_registry(path).iter_services()}
        assert main(["registry", "import-wsdl", str(WSDL_FILE), "--into", str(path), "--category", "auth2"]) == 0
        added = [service for _, service in load_registry(path).iter_services() if service.service_key not in known]
        target = (added[0].service_key, added[0].operations[0].name)
    else:  # the same size and mtime, and a syntax fault outside the records the write touches
        before = path.stat()
        raw = path.read_bytes()
        end = raw.rindex(b"}")
        path.write_bytes(raw[:end] + b" " + raw[end + 1:])
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        target = (AUTH, "login")
    files = {name: (tmp_path / name).read_bytes() for name in ("registry.json", "registry.json.snapshots")}
    expected = _write_outcome(reference_record_snapshot, tmp_path / "reference", files, target, _snap(2))
    assert _outcome_in_place(path, target, _snap(2)) == expected
    if replaced_by == "hand edit":
        assert "Expecting" in expected[0]
    else:
        assert expected[0] is None
        assert _index(path).read_bytes() == _fresh_index(path, tmp_path / "fresh")


def _spoil(index: dict, raw: bytes, how: str) -> bytes:
    """The index with one fault (its digest kept unless the fault is the digest's)."""
    services = index["services"]
    entry = services[AUTH]
    faults = {
        "not JSON": b'{"sha256": "',
        "not UTF-8": b"\xff",
        "nested too deeply": b"[" * 100_000 + b"]" * 100_000,
        "not an object": b"[]",
        "no digest": {"services": services},
        "another digest": {**index, "sha256": hashlib.sha256(raw + b" ").hexdigest()},
        "no services": {"sha256": index["sha256"]},
        "services not an object": {**index, "services": list(services.items())},
        # the format of the index that held each service record's byte span
        "span format": {**index, "services": {key: [0, j, 10 * j, 10 * j + 9] for j, key in enumerate(services)}},
        "service missing": {**index, "services": {key: e for key, e in services.items() if key != AUTH}},
        "entry not an object": "login",
        "operation missing": {name: last for name, last in entry.items() if name != "login"},
        "entry of floats": {name: 1.5 for name in entry},
        "timestamp not ISO-8601": {**entry, "login": "14/02/2014"},
    }
    fault = faults[how]
    if isinstance(fault, bytes):
        return fault
    if "sha256" not in fault and "services" not in fault:  # an entry
        fault = {**index, "services": {**services, AUTH: fault}}
    return json.dumps(fault).encode("ascii")


_SPOILS = [
    "missing", "not JSON", "not UTF-8", "nested too deeply", "not an object", "no digest", "another digest",
    "no services", "services not an object", "span format", "service missing", "entry not an object",
    "operation missing", "entry of floats", "timestamp not ISO-8601",
]


@pytest.mark.parametrize("how", _SPOILS)
def test_unusable_index_is_treated_as_missing(tmp_path, how):
    """The write builds the whole registry, ends as a load plus
    append_snapshot ends, and replaces the index with the one of the file's
    bytes."""
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "logout", _snap(1))
    fresh = _index(path).read_bytes()
    if how == "missing":
        _index(path).unlink()
    else:
        _index(path).write_bytes(_spoil(json.loads(fresh), path.read_bytes(), how))
    files = {name: (tmp_path / name).read_bytes() for name in ("registry.json", "registry.json.snapshots")}
    expected = _write_outcome(reference_record_snapshot, tmp_path / "reference", files, (AUTH, "login"), _snap(2))
    assert expected[0] is None
    assert _outcome_in_place(path, (AUTH, "login"), _snap(2)) == expected
    assert _index(path).read_bytes() == fresh


def test_refused_snapshot_write_leaves_no_index(tmp_path):
    path = _sendmail_copy(tmp_path)
    for target, snapshot in (
        ((AUTH, "login"), _snap(1, availability=1.5)),
        ((AUTH, "login"), QosSnapshot(datetime(2000, 1, 1, tzinfo=timezone.utc), 0.9, 100.0, 5)),
        ((AUTH, "nope"), _snap(1)),
        (("ws.nope", "login"), _snap(1)),
    ):
        with pytest.raises(RegistryError):
            record_snapshot(path, *target, snapshot)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.json", "registry.json.snapshots"]


def test_index_that_cannot_be_written_refuses_nothing(tmp_path):
    path = _sendmail_copy(tmp_path)
    _index(path).mkdir()  # the rename over it fails
    for day in (1, 2):
        record_snapshot(path, AUTH, "login", _snap(day))
    assert snapshot_log_path(path).read_bytes().count(b"\n") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "registry.json", "registry.json.index", "registry.json.snapshots",
    ]
    assert _index(path).is_dir() and not any(_index(path).iterdir())
    history = load_registry(path).find_service(AUTH)[1].operations[0].qos_history
    assert history[-2:] == (_snap(1), _snap(2))


def test_index_is_written_atomically_with_the_registry_file_s_permission_bits(tmp_path, monkeypatch):
    path = _sendmail_copy(tmp_path)
    path.chmod(0o640)
    _index(path).write_bytes(b"stale")
    renamed = []
    replace = os.replace

    def checked(source, target):
        if Path(target) == _index(path):  # the whole index is in place before the rename
            renamed.append((Path(source).name, stat.S_IMODE(os.stat(source).st_mode), Path(source).read_bytes()))
        replace(source, target)

    monkeypatch.setattr(os, "replace", checked)
    record_snapshot(path, AUTH, "login", _snap(1))
    monkeypatch.undo()
    index = _index(path).read_bytes()
    assert renamed == [(f".registry.json.index.{os.getpid()}.tmp", 0o640, index)]
    assert stat.S_IMODE(_index(path).stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "registry.json", "registry.json.index", "registry.json.snapshots",
    ]
    raw = path.read_bytes()
    index = json.loads(index)
    assert index["sha256"] == hashlib.sha256(raw).hexdigest()
    # by serviceKey, each operation's last timestamp in the file, not the log
    assert index["services"] == {
        s["serviceKey"]: {o["name"]: o["qos"][-1]["timestamp"] if o["qos"] else None for o in s["operations"]}
        for c in json.loads(raw)["categories"] for s in c["services"]
    }


# --- operation shape -------------------------------------------------------------

def _indexed(registry: ServiceRegistry) -> list[tuple[Operation, tuple]]:
    """Each operation beside the shape its category's operation index holds for it."""
    return [
        (op, shape)
        for category in registry.categories
        for (_, op), shape in zip(
            category.operation_index.entries, category.operation_index.shapes, strict=True
        )
    ]


def test_shape_is_the_sorted_datatypes_and_the_names_however_the_operation_was_built():
    def recomputed(op: Operation):
        return (
            tuple(sorted(p.datatype for p in op.inputs)),
            tuple(sorted(p.datatype for p in op.outputs)),
            tuple(p.name for p in op.inputs),
            tuple(p.name for p in op.outputs),
        )

    rng = random.Random(31)
    loaded = _read(json.loads(SENDMAIL_REGISTRY.read_text(encoding="utf-8")))
    generated = gen_registry(rng, max_categories=3, max_services=4, max_operations=3)
    built = _indexed(generated)  # indexed before the copy below shuffles its parameters
    permuted, _ = permute_parameters(rng, generated, gen_process(rng, generated))
    login = import_wsdl(WSDL_FILE.read_text(encoding="utf-8"), loaded_at=EPOCH).operations[0]
    retyped = dataclasses.replace(
        login, inputs=[Parameter("count", "integer"), Parameter("alias", "string")]
    )
    imported = ServiceRegistry(
        [ServiceCategory("c", {"c"}, [WebService("s", "", "", "ws.s", "", "", [login, retyped])])]
    )
    # a deep copy of an indexed registry carries the index over
    indexed = [*_indexed(loaded), *_indexed(imported), *_indexed(copy.deepcopy(loaded)), *built]
    (_, login_shape), (_, retyped_shape) = _indexed(imported)
    assert retyped_shape == (
        ("integer", "string"), ("boolean",), ("count", "alias"), login_shape[3]
    )
    assert len({shape for _, shape in indexed}) > 3
    for op, _ in indexed + _indexed(permuted):
        assert "shape" not in json.dumps(operation_to_dict(op))
    for op, shape in indexed:
        assert shape == recomputed(op), op.name
    # Shuffled parameters make new operations in new categories, whose
    # index names the new order. Their datatypes and name multisets, all
    # that the gate reads, are those indexed before the shuffle.
    for (op, shape), (_, built_shape) in zip(_indexed(permuted), built, strict=True):
        assert shape == recomputed(op), op.name
        assert shape[:2] == built_shape[:2]
        assert [sorted(names) for names in shape[2:]] == [sorted(names) for names in built_shape[2:]]

    srv = make_server(loaded, EMPTY_LEXICON, DEFAULT_CONFIG, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        for _, service in loaded.iter_services():
            conn = HTTPConnection("127.0.0.1", srv.server_address[1], timeout=10)
            conn.request("GET", f"/services/{service.service_key}")
            response = conn.getresponse()
            status, body = response.status, response.read()
            conn.close()
            assert status == 200
            assert b"shape" not in body
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


# --- WSDL import ---------------------------------------------------------------

def test_import_wsdl_fixture():
    service = import_wsdl(WSDL_FILE.read_text(encoding="utf-8"), loaded_at=EPOCH)
    assert service.name == "authentication"
    assert service.service_key == "ws.2014-01-14T00:00:00Z"
    assert service.url.startswith("http://159.84.79.144")
    assert len(service.operations) == 1
    login = service.operations[0]
    assert login.name == "login"
    assert [(p.name, p.datatype) for p in login.inputs] == [
        ("username", "string"),
        ("password", "string"),
    ]
    assert [(p.name, p.datatype) for p in login.outputs] == [("authentication", "boolean")]
    assert login.qos_history == ()


def test_import_wsdl_maps_int_alias():
    wsdl = """<definitions xmlns="http://schemas.xmlsoap.org/wsdl/" name="n">
      <message name="inMsg"><part name="count" type="xsd:int"/></message>
      <message name="outMsg"><part name="ok" type="xsd:boolean"/></message>
      <portType name="p">
        <operation name="tally"><input message="inMsg"/><output message="outMsg"/></operation>
      </portType>
    </definitions>"""
    service = import_wsdl(wsdl)
    assert service.operations[0].inputs[0].datatype == "integer"


def test_import_wsdl_zero_operations_rejected():
    wsdl = '<definitions xmlns="http://schemas.xmlsoap.org/wsdl/"><portType name="p"/></definitions>'
    with pytest.raises(RegistryError, match="no operations"):
        import_wsdl(wsdl)


def test_import_wsdl_missing_porttype_rejected():
    wsdl = '<definitions xmlns="http://schemas.xmlsoap.org/wsdl/"/>'
    with pytest.raises(RegistryError, match="portType"):
        import_wsdl(wsdl)


def test_import_wsdl_unresolved_message_rejected():
    wsdl = """<definitions xmlns="http://schemas.xmlsoap.org/wsdl/">
      <portType name="p">
        <operation name="go"><input message="tns:ghost"/></operation>
      </portType>
    </definitions>"""
    with pytest.raises(RegistryError, match="unknown message 'ghost'"):
        import_wsdl(wsdl)


def test_import_wsdl_not_xml_rejected():
    with pytest.raises(RegistryError, match="well-formed"):
        import_wsdl("this is not xml")


def test_import_wsdl_lone_surrogate_rejected():
    wsdl = WSDL_FILE.read_text(encoding="utf-8").replace("authentication", "authentication\ud800", 1)
    with pytest.raises(RegistryError, match="^WSDL is not well-formed XML: .*surrogates not allowed"):
        import_wsdl(wsdl)


def test_imported_service_is_loadable(tmp_path):
    service = import_wsdl(WSDL_FILE.read_text(encoding="utf-8"), loaded_at=EPOCH)
    registry = _read(
        {"categories": [{"name": "auth", "keywords": ["authentication"], "services": []}]}
    )
    registry.categories[0] = dataclasses.replace(registry.categories[0], services=(service,))
    out = tmp_path / "imported.json"
    save_registry(registry, out)
    assert load_registry(out) == registry


def _through_a_file(registry: ServiceRegistry) -> ServiceRegistry:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "registry.json"
        save_registry(registry, path)
        return load_registry(path)


def _parameters(parameters) -> list[tuple[str, str]]:
    return [(p.name, p.datatype) for p in parameters]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), url=st.sampled_from(["", "http://example.com/ws?wsdl", "urn:a&b<c>'d\"e"]))
def test_generated_services_come_back_from_their_wsdl(seed, url):
    generated = [dataclasses.replace(s, url=url) for _, s in gen_registry(random.Random(seed)).iter_services()]
    imported = [
        import_wsdl(service_to_wsdl(service), loaded_at=EPOCH + timedelta(microseconds=i))
        for i, service in enumerate(generated)
    ]
    for service, back in zip(generated, imported):
        assert (back.name, back.url) == (service.name, service.url)
        assert [o.name for o in back.operations] == [o.name for o in service.operations]
        for operation, read in zip(service.operations, back.operations):
            assert _parameters(read.inputs) == _parameters(operation.inputs)
            assert _parameters(read.outputs) == _parameters(operation.outputs)
            assert read.qos_history == ()
    registry = ServiceRegistry([ServiceCategory("imported", {"imported"}, imported)])
    assert _through_a_file(registry) == registry


# Names and raw types for a WSDL, and operation names that repeat. One in
# nine is a blank name or a type that normalizes to nothing, so that about
# one drawn service in five has neither.
_WSDL_NAMES = st.sampled_from(["user", "mail status", " user", "op0"] * 6 + [" ", "  ", "\t"])
_WSDL_TYPES = st.sampled_from(["xsd:string", "xsd:int", "XSD:Long", "tns:Money", "a:b:double"] * 7 + ["xsd:", "xsd: ", ":", " "])


@st.composite
def _wsdl_services(draw):
    parameters = st.lists(st.builds(Parameter, _WSDL_NAMES, _WSDL_TYPES), max_size=3)
    operations = [
        Operation(draw(_WSDL_NAMES), draw(parameters), draw(parameters)) for _ in range(draw(st.integers(1, 3)))
    ]
    return WebService("drawn", "", "", "ws.drawn", draw(st.sampled_from(["", "http://example.com/ws"])), "", operations)


@settings(max_examples=300, deadline=None, database=None)
@given(service=_wsdl_services())
def test_every_service_import_wsdl_accepts_comes_back_equal_through_a_file(service):
    """import_wsdl refuses a service whose record a load refuses (a blank
    operation or part name, a type that normalizes to nothing), and every
    service it accepts comes back equal from a saved registry."""
    first = list({operation.name: operation for operation in reversed(service.operations)}.values())
    faulty = any(
        not operation.name.strip()
        or any(not p.name.strip() or not normalize_datatype(p.datatype) for p in operation.inputs + operation.outputs)
        for operation in first
    )
    if faulty:
        with pytest.raises(RegistryError, match="^WSDL service 'drawn'.operations"):
            import_wsdl(service_to_wsdl(service), loaded_at=EPOCH)
        return
    imported = import_wsdl(service_to_wsdl(service), loaded_at=EPOCH)
    assert [o.name for o in imported.operations] == list(dict.fromkeys(o.name for o in service.operations))
    registry = ServiceRegistry([ServiceCategory("imported", {"imported"}, [imported])])
    assert _through_a_file(registry) == registry


_QOS_VALUES = st.one_of(
    st.booleans(), st.integers(-1, 1000), st.floats(-1.0, 1000.0), st.sampled_from([math.nan, math.inf, 1e101, 10**400]),
)


def _mostly(*good):
    """A value from one of `good` five times in six, else any of _QOS_VALUES."""
    return st.sampled_from([*good] * 5 + [_QOS_VALUES]).flatmap(lambda strategy: strategy)


@st.composite
def _drawn_snapshots(draw, after: datetime):
    when = after + timedelta(hours=draw(st.integers(-12, 60)))
    zone = draw(st.sampled_from([None, timezone.utc, timezone(timedelta(hours=1))]))
    return QosSnapshot(
        when.replace(tzinfo=None) if zone is None else when.astimezone(zone),  # naive: read as UTC
        draw(_mostly(st.floats(0.0, 1.0), st.sampled_from([0, 1]))),
        draw(_mostly(st.floats(0.5, 500.0), st.integers(1, 500))),
        draw(_mostly(st.integers(0, 1000))),
        draw(st.dictionaries(
            st.sampled_from(EXTRA_QOS_ATTRS), _mostly(st.floats(-100.0, 100.0), st.integers(-9, 9)), max_size=2,
        )),
    )


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_every_snapshot_append_snapshot_accepts_comes_back_equal_through_a_file(data):
    """append_snapshot and a snapshot write accept and refuse the same
    snapshots with the same text, and what they accept, the file gives back
    equal to the registry in memory."""
    registry = load_registry(SENDMAIL_REGISTRY)
    targets = [(s.service_key, o.name) for _, s in registry.iter_services() for o in s.operations]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "registry.json"
        save_registry(registry, path)
        for _ in range(data.draw(st.integers(1, 4))):
            key, name = data.draw(st.sampled_from(targets))
            history = _history(registry, key, name)
            last = history[-1].timestamp if history else EPOCH
            snapshot = data.draw(_drawn_snapshots(last))
            outcomes = []
            for write in (append_snapshot, record_snapshot):
                try:
                    write(registry if write is append_snapshot else path, key, name, snapshot)
                    outcomes.append(None)
                except RegistryError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        assert load_registry(path) == registry
    assert _through_a_file(registry) == registry


def _history(registry: ServiceRegistry, service_key: str, name: str) -> tuple[QosSnapshot, ...]:
    [history] = [op.qos_history for op in registry.find_service(service_key)[1].operations if op.name == name]
    return history


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    appends=st.lists(
        st.tuples(
            st.integers(0, 10**6),  # picks the operation
            st.integers(-30, 60),  # days after its last snapshot: at or before it is refused
            st.booleans(),  # an availability of 2 is refused
        ),
        min_size=1, max_size=5,
    ),
)
def test_an_append_changes_no_record_and_rebuilds_only_the_touched_path(seed, appends):
    rng = random.Random(seed)
    registry = gen_registry(rng, max_categories=4, max_services=4, max_operations=3)
    pairs = [(s.service_key, o.name) for _, s in registry.iter_services() for o in s.operations]
    config = QosConfig(n_gaps=100).validate()
    for pick, days, bad in appends:
        key, name = pairs[pick % len(pairs)]
        history = _history(registry, key, name)
        snapshot = make_snapshot(rng, (history[-1].timestamp if history else EPOCH) + timedelta(days=days))
        if bad:
            snapshot.availability = 2.0
        refused = bad or (history and days <= 0)
        categories = list(registry.categories)
        indexes = [category.operation_index for category in categories]
        copied = copy.deepcopy(categories)
        try:
            assert append_snapshot(registry, key, name, snapshot) is registry
        except RegistryError:
            assert refused
            assert all(map(operator.is_, registry.categories, categories))
            continue
        finally:
            # every category, service, operation and history taken before
            # the append is as it was
            assert categories == copied
        assert not refused
        assert _history(registry, key, name) == (*history, snapshot)
        [touched] = [i for i, c in enumerate(categories) if key in {s.service_key for s in c.services}]
        for position, (old, new) in enumerate(zip(categories, registry.categories, strict=True)):
            if position == touched:
                assert new is not old and "operation_index" not in vars(new)
            else:
                assert new is old and vars(new)["operation_index"] is indexes[position]
        category, service = registry.find_service(key)
        [operation] = [op for op in service.operations if op.name == name]
        requirement = TaskRequirement("t", "t", list(operation.inputs), list(operation.outputs), set(category.keywords))
        gated = gate_candidates(requirement, registry, EMPTY_LEXICON)
        [position] = [i for i, (s, op, _) in enumerate(gated) if (s.service_key, op.name) == (key, name)]
        assert gated[position][1] is operation
        scores = score_pool([op for _, op, _ in gated], config)[position]
        assert len(scores.uf_series) == len(history) + 1
    assert _through_a_file(registry) == registry


def test_registry_to_dict_matches_file():
    registry = load_registry(SENDMAIL_REGISTRY)
    on_disk = json.loads(SENDMAIL_REGISTRY.read_text(encoding="utf-8"))
    produced = registry_to_dict(registry)
    # keyword lists are sets in memory; compare them order-insensitively
    assert sorted(produced["categories"][0]["keywords"]) == sorted(on_disk["categories"][0]["keywords"])
    assert produced["categories"][0]["services"] == on_disk["categories"][0]["services"]


# --- the one-pass readers against the reference ---------------------------------

# Values no registry field of their kind may hold, or holds only at an edge:
# wrong JSON types, bools where numbers go, ints where floats go, huge
# ints, NaN and the infinities, out-of-range numbers, empty or blank
# strings and datatypes, naive or unparsable timestamps, and names that
# collide with the generated ones.
_IRREGULAR = st.sampled_from([
    None, True, False, 0, 1, -1, 10**400, -(10**400), 0.0, 0.5, 1.5, -0.5, 1e101, -1e101,
    math.nan, math.inf, -math.inf, "", " ", ":", "xsd:", "xsd:int", "op0", "ws.0",
    "2014-01-14T00:00:00", "2014-01-14T00:00:00Z", "2014-01-14T01:00:00+01:00", "not a time",
    [], {}, [1], ["mail"], {"latency": 1}, {"latency": None}, {"latency": True},
    {"latency": 10**400}, {"latency": math.nan}, {"latency": -1e101},
])
# Edge values for one field: equal, naive and unparsable timestamps, empty,
# blank and colliding names, datatypes that normalize to nothing.
_EDGES = {
    "timestamp": st.sampled_from([
        "2014-01-14T00:00:00", "2014-01-14T00:00:00Z", "2014-01-14T01:00:00+01:00",
        "2014-01-23T00:00:00Z", "2014-13-01T00:00:00Z", "not a time", "",
    ]),
    "name": st.sampled_from(["", " ", "op0", "op1", "svc0"]),
    "datatype": st.sampled_from(["", " ", ":", "xsd:", "XSD:Long"]),
    "serviceKey": st.sampled_from(["", "ws.0", "ws.1"]),
    "keywords": st.sampled_from([[], ["the"], ["mail", 1]]),
}
_MISSING = object()
# Keys a reader looks for that the generated records may not hold.
_OPTIONAL_KEYS = ("extra", "inputs", "outputs", "qos", "businessName", "securityNote", "services")
_ZONES = ("Z", "+00:00", "", "+01:00")


def _timestamp(day: int, zone: str) -> str:
    hour = 1 if zone == "+01:00" else 0  # the same instant in every zone
    return f"2014-01-{14 + day:02d}T{hour:02d}:00:00{zone}"


@st.composite
def _snapshot_dicts(draw, days=st.integers(0, 9)):
    data = {
        "timestamp": _timestamp(draw(days), draw(st.sampled_from(_ZONES))),
        "availability": draw(st.floats(0.0, 1.0)),
        "executionTimeMs": draw(st.floats(0.5, 500.0)),
        "totalCalls": draw(st.integers(0, 1000)),
    }
    extra = draw(st.lists(st.sampled_from(EXTRA_QOS_ATTRS), unique=True, max_size=2))
    if extra or draw(st.booleans()):
        data["extra"] = {name: draw(st.floats(-100.0, 100.0)) for name in extra}
    return data


@st.composite
def _registry_dicts(draw):
    parameters = st.fixed_dictionaries({
        "name": st.sampled_from(["user", "mail", "status"]),
        "datatype": st.sampled_from(["string", "xsd:int", "Integer", "ns:Money", "boolean"]),
    })
    counter = itertools.count()
    categories = []
    for c in range(draw(st.integers(1, 2))):
        services = []
        for _ in range(draw(st.integers(int(c == 0), 2))):
            k = next(counter)
            operations = []
            for j in range(draw(st.integers(1, 2))):
                days = sorted(draw(st.sets(st.integers(0, 9), max_size=4)))
                qos = [draw(_snapshot_dicts(days=st.just(day))) for day in days]
                operations.append({
                    "name": f"op{j}",
                    "inputs": draw(st.lists(parameters, max_size=2)),
                    "outputs": draw(st.lists(parameters, max_size=2)),
                    "qos": qos,
                })
            services.append({
                "name": f"svc{k}", "businessName": "", "businessKey": "", "serviceKey": f"ws.{k}",
                "url": "", "version": "", "operations": operations,
            })
        categories.append({"name": f"cat{c}", "keywords": ["mail"], "services": services})
    return {"categories": categories}


def _containers(node):
    """Every dict and list below `node`."""
    children = node.values() if isinstance(node, dict) else node
    for child in children:
        if isinstance(child, (dict, list)):
            yield child
            yield from _containers(child)


def _mutate(draw, data):
    """Set up to three drawn fields or items below the top of `data` to
    irregular values, or delete them."""
    for _ in range(draw(st.integers(0, 3))):
        records = [c for c in _containers(data) if isinstance(c, dict)]
        lists = [c for c in _containers(data) if isinstance(c, list) and c]
        if not records and not lists:
            return
        container = draw(st.sampled_from(records if records and (not lists or draw(st.integers(0, 3))) else lists))
        if isinstance(container, dict):
            key = draw(st.sampled_from([*container, *(k for k in _OPTIONAL_KEYS if k not in container)]))
        else:
            key = draw(st.integers(0, len(container) - 1))
        edge = _EDGES.get(key, _IRREGULAR)  # listed twice below, to be drawn more often
        value = draw(st.one_of(st.just(_MISSING), edge, edge, _IRREGULAR, st.floats(), st.integers(-2, 10**120)))
        if value is _MISSING:
            if isinstance(container, dict):
                container.pop(key, None)
            else:
                del container[key]
        else:
            container[key] = copy.deepcopy(value)


def _outcome(read):
    """The registry `read` builds, as its file text and itself, or its refusal."""
    try:
        registry = read()
    except RegistryError as exc:
        return "refused", str(exc)
    return dumps_indented(registry_to_dict(registry)), registry


@settings(max_examples=600, deadline=None, database=None)
@given(data=st.data())
def test_registry_readers_match_the_reference(data):
    raw = data.draw(_registry_dicts())
    _mutate(data.draw, raw)
    expected = _outcome(lambda: reference_registry_from_dict(copy.deepcopy(raw), "r.json"))
    assert _outcome(lambda: _read(raw, "r.json")) == expected


_OP = ("categories", 0, "services", 0, "operations", 0)
_SNAP = (*_OP, "qos", 0)


@pytest.mark.parametrize("where, key, value", [
    (_SNAP, "availability", _MISSING),
    (_SNAP, "availability", True),
    (_SNAP, "totalCalls", True),
    (_SNAP, "totalCalls", 3.0),
    (_SNAP, "availability", 1),
    (_SNAP, "executionTimeMs", 100),
    (_SNAP, "extra", None),
    (_SNAP, "extra", {"latency": 5}),
    (_SNAP, "extra", {"latency": False}),
    (_SNAP, "availability", math.nan),
    (_SNAP, "executionTimeMs", math.inf),
    (_SNAP, "extra", {"latency": -math.inf}),
    (_SNAP, "totalCalls", 10**400),
    (_SNAP, "executionTimeMs", -(10**400)),
    (_SNAP, "availability", 1.5),
    (_SNAP, "executionTimeMs", 0.0),
    (_SNAP, "totalCalls", -1),
    (_SNAP, "extra", {"latency": 1e101}),
    (_SNAP, "timestamp", "2014-01-14T00:00:00"),
    (_SNAP, "timestamp", "2014-02-14T00:00:00Z"),
    (_SNAP, "timestamp", "2014-02-14T01:00:00+01:00"),
    (_SNAP, "timestamp", "14/01/2014"),
    (_OP, "name", ""),
    (_OP, "qos", None),
    ((*_OP, "inputs", 0), "name", " "),
    ((*_OP, "inputs", 0), "datatype", ""),
    ((*_OP, "inputs", 0), "datatype", "xsd:"),
    (("categories", 0, "services", 0), "serviceKey", ""),
    (("categories", 0, "services", 0), "serviceKey", "ws.15.09.2013.09.43.45"),
    (("categories", 0, "services", 0, "operations", 1), "name", "login"),
    (_OP, "outputs", {}),
])
def test_each_irregular_field_is_read_as_the_reference_reads_it(where, key, value):
    raw = json.loads(SENDMAIL_REGISTRY.read_text(encoding="utf-8"))
    record = raw
    for step in where:
        record = record[step]
    if value is _MISSING:
        del record[key]
    else:
        record[key] = value
    expected = _outcome(lambda: reference_registry_from_dict(copy.deepcopy(raw), "r.json"))
    assert _outcome(lambda: _read(raw, "r.json")) == expected


_RAW_LINES = st.sampled_from(["", "nope", "{", "[1]", "null", '"x"', '{"serviceKey": 1}', "[" * 50 + "]" * 50])


@st.composite
def _log_lines(draw, service_keys):
    if draw(st.integers(0, 4)) == 0:
        return draw(_RAW_LINES)
    service_key, operation = draw(st.sampled_from(service_keys))
    line = {"serviceKey": service_key, "operation": operation, **draw(_snapshot_dicts(days=st.integers(0, 12)))}
    if draw(st.booleans()):
        _mutate(draw, line)
    return json.dumps(line)


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_log_replay_matches_the_reference(data):
    raw = data.draw(_registry_dicts())
    service_keys = [
        (service["serviceKey"], operation["name"])
        for category in raw["categories"]
        for service in category["services"]
        for operation in service["operations"]
    ] + [("ws.nope", "op0"), ("ws.0", "nope")]
    lines = data.draw(st.lists(_log_lines(service_keys), max_size=4))
    log = "".join(line + "\n" for line in lines).encode("utf-8")
    if data.draw(st.booleans()):
        log += data.draw(st.sampled_from([b"\xff\n", b'{"torn', b"\n"]))
    log_path = Path("r.json.snapshots")

    def reference():
        return reference_replay(reference_registry_from_dict(copy.deepcopy(raw), "r.json"), log, log_path)[0]

    def loaded():  # as load_registry reads the file and its log
        registry = _read(copy.deepcopy(raw), "r.json")
        histories, _ = registry_module._replay(registry_module._finder(registry), log, log_path)
        return registry_module._with_histories(registry, histories)

    assert _outcome(loaded) == _outcome(reference)


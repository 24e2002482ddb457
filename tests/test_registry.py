from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
from datetime import datetime, timedelta, timezone
from http.client import HTTPConnection
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import procsel.registry as registry_module
from procsel import DEFAULT_CONFIG, load_registry, select_for_process, serialize_report
from procsel.errors import RegistryError
from procsel.jsontext import dumps_indented
from procsel.lexicon import EMPTY_LEXICON
from procsel.registry import (
    MAX_QOS_MAGNITUDE,
    Operation,
    Parameter,
    QosSnapshot,
    ServiceRegistry,
    append_snapshot,
    import_wsdl,
    normalize_datatype,
    operation_to_dict,
    record_snapshot,
    registry_from_dict,
    registry_to_dict,
    save_registry,
    snapshot_log_path,
    update_registry,
)
from procsel.serve import make_server

from conftest import SENDMAIL_REGISTRY, WSDL_FILE
from generators import (
    EPOCH,
    EXTRA_QOS_ATTRS,
    gen_process,
    gen_registry,
    make_snapshot,
    permute_parameters,
    reference_registry_from_dict,
    reference_replay,
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


def test_load_sendmail_fixture():
    registry = load_registry(SENDMAIL_REGISTRY)
    assert len(registry.categories) == 1
    services = registry.categories[0].services
    assert [s.name for s in services] == ["authentication", "sendEmail"]
    assert sum(len(s.operations) for s in services) == 4
    assert registry.categories[0].keywords == {"system", "authentication", "login", "email", "send"}


def test_empty_categories_is_valid():
    registry = registry_from_dict({"categories": []})
    assert registry.categories == []


def test_duplicate_service_key_rejected():
    data = _minimal_registry()
    data["categories"][0]["services"].append(_minimal_service(service_key="ws.k1", op_name="other"))
    with pytest.raises(RegistryError, match="duplicate serviceKey"):
        registry_from_dict(data)


def test_duplicate_operation_name_rejected():
    data = _minimal_registry()
    data["categories"][0]["services"][0]["operations"].append(
        _minimal_registry()["categories"][0]["services"][0]["operations"][0]
    )
    with pytest.raises(RegistryError, match="duplicate operation name"):
        registry_from_dict(data)


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
        registry_from_dict(data)
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
        registry = registry_from_dict(data)
        appended = QosSnapshot(
            EPOCH, snapshot["availability"], snapshot["executionTimeMs"], 5, dict(snapshot["extra"])
        )
        with pytest.raises(RegistryError, match=field):
            append_snapshot(registry, "ws.k1", "op1", appended)
        assert registry.categories[0].services[0].operations[0].qos_history == []


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
        registry_from_dict(data)


def test_empty_keywords_rejected():
    data = _minimal_registry()
    data["categories"][0]["keywords"] = ["the", "of"]  # all stopwords
    with pytest.raises(RegistryError, match="keywords"):
        registry_from_dict(data)


def test_service_without_operations_rejected():
    data = _minimal_registry()
    data["categories"][0]["services"][0]["operations"] = []
    with pytest.raises(RegistryError, match="no operations"):
        registry_from_dict(data)


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


def test_round_trip_large_synthetic(tmp_path):
    rng = random.Random(42)
    registry = gen_registry(rng, max_categories=5, max_services=10, max_operations=4)
    # pad up to ~1000 services to exercise volume
    while sum(1 for _ in registry.iter_services()) < 1000:
        more = gen_registry(random.Random(rng.random()), max_categories=2, max_services=10)
        for i, category in enumerate(more.categories):
            category.name = f"{category.name}{rng.randrange(10 ** 9)}"
            for service in category.services:
                service.service_key = f"{service.service_key}.{rng.randrange(10 ** 9)}"
        registry.categories.extend(more.categories)
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


def test_saved_file_is_indented_json_bytes(tmp_path):
    rng = random.Random(7)
    registry = gen_registry(rng, max_categories=4, max_services=5, max_operations=3)
    for _, service in registry.iter_services():
        for op in service.operations:
            op.qos_history = [make_snapshot(rng, EPOCH + timedelta(days=30 * k), ["cost", "zéro"]) for k in range(3)]
    service.name = "naïve \"quoted\" \u0001 name"
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
    big = gen_registry(rng, max_categories=5, max_services=10, max_operations=4)
    for _, service in big.iter_services():
        for op in service.operations:
            op.qos_history = [make_snapshot(rng, EPOCH + timedelta(days=30 * k)) for k in range(8)]
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
    assert registry_from_dict(json.loads(path.read_text(encoding="utf-8"))) == expected
    assert load_registry(path) == expected


def test_save_registry_empties_the_log(tmp_path):
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    registry = load_registry(path)
    save_registry(registry, path)
    assert snapshot_log_path(path).read_bytes() == b""
    assert registry_from_dict(json.loads(path.read_text(encoding="utf-8"))) == registry
    assert load_registry(path) == registry


def test_update_registry_saves_only_on_a_clean_exit(tmp_path):
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    before = (path.read_bytes(), snapshot_log_path(path).read_bytes())
    with pytest.raises(RuntimeError):
        with update_registry(path) as registry:
            registry.categories.clear()
            raise RuntimeError("refused")
    assert (path.read_bytes(), snapshot_log_path(path).read_bytes()) == before
    with update_registry(path) as registry:
        registry.categories[0].name = "renamed"
    assert snapshot_log_path(path).read_bytes() == b""
    reloaded = load_registry(path)
    assert reloaded.categories[0].name == "renamed"
    assert reloaded.find_service(AUTH)[1].operations[0].qos_history[-1] == _snap(1)


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
    assert registry.find_service(AUTH)[1].operations[0].qos_history[-3:] == [_snap(1), _snap(2), _snap(4)]
    save_registry(registry, path)
    assert log.read_bytes() == b""
    assert load_registry(path) == registry


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
    assert history[-2:] == [_snap(1), _snap(3)]


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
        (b"[" * 200_000 + b"]" * 200_000 + b"\n", "not a JSON line: nested too deeply"),
    ):
        log.write_bytes(good + bad + good)
        with pytest.raises(RegistryError, match=rf"{re.escape(str(log))}: line 2: .*{message}"):
            load_registry(path)


def test_log_follows_the_resolved_registry_path(tmp_path):
    path = _sendmail_copy(tmp_path)
    link = tmp_path / "link.json"
    link.symlink_to(path)
    record_snapshot(link, AUTH, "login", _snap(1))
    assert snapshot_log_path(link) == snapshot_log_path(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "registry.json", "registry.json.snapshots"]
    assert load_registry(path) == load_registry(link)


@pytest.mark.parametrize("waiting", ["load_registry", "record_snapshot"])
def test_a_held_update_makes_loads_and_writes_wait(tmp_path, waiting):
    path = _sendmail_copy(tmp_path)
    record_snapshot(path, AUTH, "login", _snap(1))
    entered, release = threading.Event(), threading.Event()

    def hold():
        with update_registry(path) as registry:
            entered.set()
            release.wait(10)
            append_snapshot(registry, AUTH, "login", _snap(2))

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
    history = load_registry(path).find_service(AUTH)[1].operations[0].qos_history
    if waiting == "load_registry":
        assert loaded[0].find_service(AUTH)[1].operations[0].qos_history[-2:] == [_snap(1), _snap(2)]
        assert history[-2:] == [_snap(1), _snap(2)]
    else:
        assert history[-3:] == [_snap(1), _snap(2), _snap(3)]


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
        operations = [(s.service_key, o) for _, s in in_memory.iter_services() for o in s.operations]
        for pick, days, micros, attrs in writes:
            service_key, operation = operations[pick % len(operations)]
            last = operation.qos_history[-1].timestamp if operation.qos_history else EPOCH
            snapshot = make_snapshot(rng, last + timedelta(days=days, microseconds=micros), attrs)
            append_snapshot(in_memory, service_key, operation.name, snapshot)
            record_snapshot(path, service_key, operation.name, snapshot)
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


# --- operation shape -------------------------------------------------------------

def _operations(registry: ServiceRegistry) -> list[Operation]:
    return [op for _, service in registry.iter_services() for op in service.operations]


def test_shape_is_the_sorted_datatypes_and_the_names_however_the_operation_was_built():
    def recomputed(op: Operation):
        return (
            tuple(sorted(p.datatype for p in op.inputs)),
            tuple(sorted(p.datatype for p in op.outputs)),
            tuple(p.name for p in op.inputs),
            tuple(p.name for p in op.outputs),
        )

    rng = random.Random(31)
    loaded = registry_from_dict(json.loads(SENDMAIL_REGISTRY.read_text(encoding="utf-8")))
    generated = gen_registry(rng, max_categories=3, max_services=4, max_operations=3)
    permuted, _ = permute_parameters(rng, generated, gen_process(rng, generated))
    login = import_wsdl(WSDL_FILE.read_text(encoding="utf-8"), loaded_at=EPOCH).operations[0]
    retyped = dataclasses.replace(
        login, inputs=[Parameter("count", "integer"), Parameter("alias", "string")]
    )
    operations = [
        *_operations(loaded),
        login,
        *_operations(copy.deepcopy(loaded)),
        retyped,
        *_operations(generated),
    ]
    assert retyped.shape == (
        ("integer", "string"), ("boolean",), ("count", "alias"), login.shape[3]
    )
    assert len({op.shape for op in operations}) > 3
    for op in operations + _operations(permuted):
        assert "shape" not in json.dumps(operation_to_dict(op))
    for op in operations:
        assert op.shape == recomputed(op), op.name
    # Shuffled in place, an operation keeps the name order it was built
    # with, and the same name multisets, which is all the gate reads.
    for op, built in zip(_operations(permuted), _operations(generated), strict=True):
        assert op.shape == built.shape
        assert [sorted(names) for names in op.shape[2:]] == [
            sorted(p.name for p in op.inputs),
            sorted(p.name for p in op.outputs),
        ]

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
    assert login.qos_history == []


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


def test_imported_service_is_loadable(tmp_path):
    service = import_wsdl(WSDL_FILE.read_text(encoding="utf-8"), loaded_at=EPOCH)
    registry = registry_from_dict(
        {"categories": [{"name": "auth", "keywords": ["authentication"], "services": []}]}
    )
    registry.categories[0].services.append(service)
    out = tmp_path / "imported.json"
    save_registry(registry, out)
    assert load_registry(out) == registry


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
    assert _outcome(lambda: registry_from_dict(raw, "r.json")) == expected


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
    assert _outcome(lambda: registry_from_dict(raw, "r.json")) == expected


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

    def replayed(read, replay):
        registry = read(copy.deepcopy(raw), "r.json")
        replay(registry, log, log_path)
        return registry

    expected = _outcome(lambda: replayed(reference_registry_from_dict, reference_replay))
    assert _outcome(lambda: replayed(registry_from_dict, registry_module._replay)) == expected


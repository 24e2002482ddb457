from __future__ import annotations

import errno
import json
import math
import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import timedelta
from email.utils import formatdate, parsedate_to_datetime
from http.client import HTTPConnection

import pytest

from procsel import (
    DEFAULT_CONFIG,
    load_lexicon,
    load_registry,
    parse_bpmn,
    select_for_process,
    serialize_report,
)
from procsel.config import config_from_dict
from procsel.jsontext import dumps_indented
from procsel.registry import (
    Operation, Parameter, ServiceCategory, ServiceRegistry, WebService, registry_to_dict, save_registry,
    service_to_dict,
)
import procsel.serve as serve_module
from procsel.serve import MAX_BODY_BYTES, MAX_TASKS, make_server

from conftest import (
    GOLDEN_REPORT, LEXICON_FILE, SENDMAIL_BPMN, SENDMAIL_REGISTRY, needs_amplification_bound, nested_entities,
)
from generators import EPOCH, gen_process, make_snapshot, process_to_xml


@pytest.fixture()
def server():
    registry = load_registry(SENDMAIL_REGISTRY)
    lexicon = load_lexicon(LEXICON_FILE)
    srv = make_server(registry, lexicon, DEFAULT_CONFIG, host="127.0.0.1", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _request(srv, method, path, body=None):
    conn = HTTPConnection("127.0.0.1", srv.server_address[1], timeout=10)
    payload = json.dumps(body).encode("utf-8") if body is not None else None
    conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, data


def test_list_services(server):
    status, body = _request(server, "GET", "/services")
    assert status == 200
    services = json.loads(body)
    assert [s["serviceKey"] for s in services] == [
        "ws.15.09.2013.08.43.40",
        "ws.15.09.2013.09.43.45",
    ]
    assert all(s["category"] == "communication" for s in services)
    assert all(s["operationCount"] == 2 for s in services)


def test_get_service_record(server):
    status, body = _request(server, "GET", "/services/ws.15.09.2013.08.43.40")
    assert status == 200
    record = json.loads(body)
    assert record["category"] == "communication"
    assert record["name"] == "authentication"
    assert len(record["operations"]) == 2
    assert len(record["operations"][0]["qos"]) == 2


def test_a_security_note_is_kept_by_load_and_save_and_served(tmp_path):
    raw = registry_to_dict(load_registry(SENDMAIL_REGISTRY))  # the fields in the order a save writes them
    raw["categories"][0]["services"][0]["securityNote"] = "WS-Security UsernameToken, \"signed\""
    path = tmp_path / "registry.json"
    path.write_bytes((dumps_indented(raw) + "\n").encode("utf-8"))
    registry = load_registry(path)
    save_registry(registry, tmp_path / "saved.json")
    assert (tmp_path / "saved.json").read_bytes() == path.read_bytes()
    srv = make_server(registry, load_lexicon(LEXICON_FILE), DEFAULT_CONFIG, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        status, body = _request(srv, "GET", "/services/ws.15.09.2013.08.43.40")
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    assert status == 200
    assert json.loads(body)["securityNote"] == "WS-Security UsernameToken, \"signed\""


def test_get_unknown_service_is_404(server):
    status, body = _request(server, "GET", "/services/nope")
    assert status == 404
    assert "nope" in json.loads(body)["error"]


def test_unknown_path_is_404(server):
    status, _ = _request(server, "GET", "/everything")
    assert status == 404
    status, _ = _request(server, "POST", "/everything", body={})
    assert status == 404


def test_list_services_on_empty_registry():
    srv = make_server(ServiceRegistry(), load_lexicon(LEXICON_FILE), DEFAULT_CONFIG, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        status, body = _request(srv, "GET", "/services")
        assert status == 200
        assert json.loads(body) == []
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def test_select_endpoint_matches_pipeline(server):
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    status, body = _request(server, "POST", "/select", body={"bpmn": bpmn})
    assert status == 200
    report = select_for_process(
        parse_bpmn(bpmn), server.registry, server.lexicon, DEFAULT_CONFIG
    )
    assert body == (serialize_report(report) + "\n").encode("utf-8")


def test_select_endpoint_applies_config_overrides(server):
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    overrides = {"functional_weight": 1.0}
    status, body = _request(server, "POST", "/select", body={"bpmn": bpmn, "config": overrides})
    assert status == 200
    merged = config_from_dict(overrides, base=DEFAULT_CONFIG)
    report = select_for_process(parse_bpmn(bpmn), server.registry, server.lexicon, merged)
    assert body == (serialize_report(report) + "\n").encode("utf-8")
    assert json.loads(body)["config"]["functional_weight"] == 1.0


def test_select_endpoint_rejects_malformed_xml(server):
    status, body = _request(server, "POST", "/select", body={"bpmn": "<definitions"})
    assert status == 400
    assert "malformed" in json.loads(body)["error"]


def test_select_endpoint_rejects_bad_json(server):
    conn = HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    conn.request("POST", "/select", body=b"{nope", headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    status, body = response.status, response.read()
    conn.close()
    assert status == 400
    assert "JSON" in json.loads(body)["error"]


def test_select_endpoint_answers_a_body_nested_too_deeply_with_400(server):
    conn = HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    conn.request("POST", "/select", body=b"[" * 100000, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    status, body = response.status, response.read()
    conn.close()
    assert status == 400
    assert json.loads(body)["error"] == "request body is not valid JSON: nested too deeply"
    assert _request(server, "GET", "/services")[0] == 200  # the server still answers


def test_select_endpoint_answers_a_lone_surrogate_with_400(server):
    # json.dumps sends the escape \ud800: valid JSON that decodes to a lone surrogate
    status, body = _request(server, "POST", "/select", body={"bpmn": "<a>\ud800</a>"})
    assert status == 400
    assert json.loads(body)["error"].startswith("malformed XML: ")
    assert _request(server, "GET", "/services")[0] == 200  # the server still answers


@needs_amplification_bound
def test_select_endpoint_answers_nested_entities_with_400(server):
    bpmn = nested_entities(
        '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">'
        '<process id="p1"><serviceTask id="t1" name="&e10;"/></process></definitions>'
    )
    started = time.perf_counter()
    status, body = _request(server, "POST", "/select", body={"bpmn": bpmn})
    assert status == 400
    error = json.loads(body)["error"]
    assert error.startswith("malformed XML: ") and "amplification" in error, error
    assert time.perf_counter() - started < 5
    assert _request(server, "GET", "/services")[0] == 200  # the server still answers


def test_select_endpoint_requires_bpmn_string(server):
    status, body = _request(server, "POST", "/select", body={"config": {}})
    assert status == 400
    assert "bpmn" in json.loads(body)["error"]


def test_select_endpoint_rejects_path_overrides(server):
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    status, body = _request(
        server, "POST", "/select", body={"bpmn": bpmn, "config": {"registry_path": "/etc/x"}}
    )
    assert status == 400
    assert "registry_path" in json.loads(body)["error"]


def test_select_endpoint_rejects_invalid_override_values(server):
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    for overrides, field in (
        ({"functional_weight": 9}, "functional_weight"),
        ({"qos": {"epsilon": math.nan}}, "epsilon"),  # sent as a bare NaN
        (3, "'config' must be an object"),
    ):
        status, body = _request(server, "POST", "/select", body={"bpmn": bpmn, "config": overrides})
        assert status == 400
        assert field in json.loads(body)["error"]


def _raw(srv, request: bytes) -> tuple[bytes, bytes]:
    """Send request bytes as they are; return the response's head and body,
    both empty if the server closed the connection unanswered."""
    chunks = []
    with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=10) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # closed with part of a refused head unread
            pass
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head, body


def _raw_post(srv, content_length: str) -> tuple[int, dict]:
    """POST /select with a given Content-Length header and no body sent.

    The socket stays open for writing, so the server must answer without
    reading a body; the socket timeout makes a server that waits for one
    fail the test instead of hanging it.
    """
    head, body = _raw(srv, f"POST /select HTTP/1.0\r\nContent-Length: {content_length}\r\n\r\n".encode("latin-1"))
    return int(head.split()[1]), json.loads(body)


def test_select_endpoint_rejects_bad_content_length(server):
    # int() reads "1_3" and "+13" as 13; "²" passes str.isdigit but is not ASCII.
    for value in ("-1", "abc", "1_3", "+13", "\u00b2"):
        status, body = _raw_post(server, value)
        assert status == 400
        assert "Content-Length" in body["error"]


def test_select_endpoint_rejects_oversized_body_unread(server):
    # int() refuses more than 4300 digits, leading zeros included
    for value in (str(MAX_BODY_BYTES + 1), "9" * 5000, "0" * 5000 + str(MAX_BODY_BYTES + 1)):
        status, body = _raw_post(server, value)
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]


def _headers(count: int) -> bytes:
    return b"".join(b"X-Filler-%d: 1\r\n" % i for i in range(count))


# 65,537 bytes and no line end: the server reads all of it, so that closing
# leaves nothing unread that would reset the connection before it is read
_LONG_LINE = b"GET /" + b"a" * (65537 - len(b"GET /"))


# Each refusal gets the status that http.server gives it.
@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /services HTTP/1.0\r\n\r\n", 200),
    (b"GET /services HTTP/1.1\r\n\r\n", 200),
    (_LONG_LINE, 414),
    (b"GET /services HTTP/1.0\r\n" + _LONG_LINE, 431),
    (b"GET /services HTTP/1.0\r\n" + _headers(99) + b"\r\n", 200),
    (b"GET /services HTTP/1.0\r\n" + _headers(100) + b"\r\n", 431),  # 101 lines with the blank one
    (b"GET /services\r\n\r\n", 400),  # HTTP/0.9
    (b"GET\r\n\r\n", 400),
    (b"GET /services HTTP/1.0 more\r\n\r\n", 400),
    (b"GET /a b HTTP/1.0\r\n\r\n", 400),
    (b"GET /services FTP/1.0\r\n\r\n", 400),
    (b"GET /services HTTP/1\r\n\r\n", 400),
    (b"GET /services HTTP/1.\xb2\r\n\r\n", 400),  # str.isdigit takes "\u00b2"; int() does not
    (b"GET /services HTTP/2.0\r\n\r\n", 505),
    (b"GET /services HTTP/10.1\r\n\r\n", 505),
    (b"PUT /services HTTP/1.0\r\n\r\n", 501),
    (b"HEAD /services HTTP/1.0\r\n\r\n", 501),
    (b"get /services HTTP/1.0\r\n\r\n", 501),
])
def test_request_heads_are_answered_with_the_stdlib_status(server, request_bytes, status):
    head, _ = _raw(server, request_bytes)
    assert head.startswith(b"HTTP/1.0 %d " % status), head[:80]


@pytest.mark.parametrize("request_bytes", [b"\r\n", b" \t \r\n"])
def test_a_blank_request_line_is_closed_unanswered(server, request_bytes):
    assert _closed_unanswered(server, request_bytes)


def test_every_answer_is_json_under_three_headers(server):
    started = time.time()
    for request_bytes, status in (
        (b"GET /services HTTP/1.0\r\n\r\n", 200),
        (b"GET /nowhere HTTP/1.0\r\n\r\n", 404),
        (_LONG_LINE, 414),
        (b"GET /services HTTP/1.0\r\n" + _headers(100) + b"\r\n", 431),
        (b"GET /services\r\n\r\n", 400),
        (b"GET /services HTTP/2.0\r\n\r\n", 505),
        (b"DELETE /services HTTP/1.0\r\n\r\n", 501),
    ):
        head, body = _raw(server, request_bytes)
        status_line, *fields = head.decode("latin-1").split("\r\n")
        assert status_line.startswith(f"HTTP/1.0 {status} "), status_line
        names = [field.partition(": ")[0] for field in fields]
        assert names == ["Date", "Content-Type", "Content-Length"]  # no Server header
        values = dict(field.split(": ", 1) for field in fields)
        assert values["Content-Type"] == "application/json"
        assert int(values["Content-Length"]) == len(body)
        sent = parsedate_to_datetime(values["Date"]).timestamp()
        assert values["Date"] == formatdate(sent, usegmt=True)
        assert started - 1 <= sent <= time.time() + 1
        data = json.loads(body)
        assert status == 200 or list(data) == ["error"], data


def test_a_leading_double_slash_in_the_path_reads_as_one(server):
    for path in (b"//services", b"///services/ws.15.09.2013.08.43.40"):
        head, body = _raw(server, b"GET " + path + b" HTTP/1.0\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 "), head
    assert json.loads(body)["serviceKey"] == "ws.15.09.2013.08.43.40"


def test_the_first_content_length_counts_in_any_case(server):
    body = json.dumps({"bpmn": SENDMAIL_BPMN.read_text(encoding="utf-8")}).encode("utf-8")
    head, served = _raw(server, (
        f"POST /select HTTP/1.0\r\ncOnTeNt-LeNgTh: {len(body)}\r\nContent-Length: x\r\n\r\n"
    ).encode("ascii") + body)
    assert head.startswith(b"HTTP/1.0 200 "), head
    assert served == GOLDEN_REPORT.read_bytes()


def _process_of(count: int) -> str:
    """A BPMN process of `count` service tasks, each the sendmail process's login task."""
    tasks = "".join(
        f'<serviceTask id="t{i}" name="authentication"/>'
        f'<textAnnotation id="a{i}"><text>input: username=string, password=string\n'
        f'output: authentication=boolean\ncontext: authentication, login</text></textAnnotation>'
        f'<association id="s{i}" sourceRef="t{i}" targetRef="a{i}"/>'
        for i in range(count)
    )
    return f'<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"><process id="p">{tasks}</process></definitions>'


def test_select_endpoint_refuses_more_than_max_tasks_before_selecting(server, monkeypatch):
    status, body = _request(server, "POST", "/select", body={"bpmn": _process_of(MAX_TASKS)})
    assert status == 200
    assert len(json.loads(body)["tasks"]) == MAX_TASKS
    with monkeypatch.context() as patched:
        def fail(*args):
            raise RuntimeError("selected a process over the task bound")

        patched.setattr(serve_module, "select_for_process", fail)
        status, body = _request(server, "POST", "/select", body={"bpmn": _process_of(MAX_TASKS + 1)})
    assert status == 413
    assert json.loads(body) == {"error": f"process has more than {MAX_TASKS} service tasks"}
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    assert _request(server, "POST", "/select", body={"bpmn": bpmn}) == (200, GOLDEN_REPORT.read_bytes())


_SERVE_FOOTPRINT = """
import json, socket, sys, threading
from procsel import DEFAULT_CONFIG, load_lexicon, load_registry
from procsel.serve import make_server
registry_file, lexicon_file, bpmn_file = sys.argv[1:]
srv = make_server(load_registry(registry_file), load_lexicon(lexicon_file), DEFAULT_CONFIG, port=0)
threading.Thread(target=srv.serve_forever, daemon=True).start()
with open(bpmn_file, encoding="utf-8") as f:
    body = json.dumps({"bpmn": f.read()}).encode("utf-8")
with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=30) as sock:
    sock.sendall(b"POST /select HTTP/1.0\\r\\nContent-Length: %d\\r\\n\\r\\n" % len(body) + body)
    reply = b"".join(iter(lambda: sock.recv(65536), b""))
srv.server_close()
print(reply.partition(b"\\r\\n")[0].decode())
print([m for m in ("http.server", "http.client", "email", "ssl") if m in sys.modules])
"""


def test_a_served_select_imports_no_http_server_modules():
    # http.server brings http.client, email and ssl with it: the server
    # needs none of them, and each costs start-up time and memory
    result = subprocess.run(
        [sys.executable, "-c", _SERVE_FOOTPRINT, str(SENDMAIL_REGISTRY), str(LEXICON_FILE), str(SENDMAIL_BPMN)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["HTTP/1.0 200 OK", "[]"]


@contextmanager
def _serving(registry):
    srv = make_server(registry, load_lexicon(LEXICON_FILE), DEFAULT_CONFIG, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def test_get_service_record_is_indented_json_bytes(server):
    key = "ws.15.09.2013.08.43.40"
    status, body = _request(server, "GET", f"/services/{key}")
    assert status == 200
    category, service = server.registry.find_service(key)
    record = {"category": category.name, **service_to_dict(service)}
    assert body == (json.dumps(record, indent=2) + "\n").encode("utf-8")


def test_get_service_percent_decodes_the_key():
    registry = load_registry(SENDMAIL_REGISTRY)
    (category,) = registry.categories
    first, second = category.services
    registry.categories[0] = replace(category, services=(
        replace(first, service_key="ws key"), replace(second, service_key="ws cl\u00e9")
    ))
    with _serving(registry) as srv:
        for key, path in (("ws key", "/services/ws%20key"), ("ws cl\u00e9", "/services/ws%20cl%C3%A9")):
            status, body = _request(srv, "GET", path)
            assert status == 200, body
            assert json.loads(body)["serviceKey"] == key


def test_select_endpoint_checks_attribute_entries_like_every_config_object(server):
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    for attribute, message in (
        ({"name": None, "direction": "maximize"}, "qos.attributes[0].name must be a string"),
        ({"name": "availability", "direction": "maximize", "wieght": 1.0}, "unknown keys in qos.attributes[0]: wieght"),
    ):
        overrides = {"qos": {"attributes": [attribute]}}
        status, body = _request(server, "POST", "/select", body={"bpmn": bpmn, "config": overrides})
        assert status == 400
        assert json.loads(body)["error"] == f"request config: {message}"


def test_select_endpoint_rejects_huge_integer_overrides(server):
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    huge = 10**400  # sent as a 401-digit JSON integer, beyond the float range
    attributes = [{"name": "availability", "direction": "maximize", "weight": huge}]
    for overrides, field in (
        ({"qos": {"epsilon": huge}}, "epsilon"),
        ({"functional_weight": huge}, "functional_weight"),
        ({"qos": {"attributes": attributes}}, "weight"),
    ):
        status, body = _request(server, "POST", "/select", body={"bpmn": bpmn, "config": overrides})
        assert status == 400
        assert field in json.loads(body)["error"]


def test_select_endpoint_scores_around_a_candidate_missing_an_attribute():
    # cost is configured; login carries it, sendEmail does not: only the
    # sendEmail task learns why, and the login task is scored as usual
    registry = load_registry(SENDMAIL_REGISTRY)
    _, auth = registry.find_service("ws.15.09.2013.08.43.40")
    for i, snapshot in enumerate(auth.operations[0].qos_history):
        snapshot.extra["cost"] = 2.0 + i
    overrides = {"qos": {"attributes": [
        {"name": "availability", "direction": "maximize", "weight": 0.5},
        {"name": "cost", "direction": "minimize", "weight": 0.5},
    ]}}
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    with _serving(registry) as srv:
        status, body = _request(srv, "POST", "/select", body={"bpmn": bpmn, "config": overrides})
    assert status == 200
    login_task, send_task = json.loads(body)["tasks"]
    assert login_task["diagnostics"] == []
    assert [c["rated"] for c in login_task["candidates"]] == [True]
    assert send_task["diagnostics"] == [
        "qos attribute 'cost' missing for ws.15.09.2013.09.43.45/sendEmail"
    ]
    assert [c["rated"] for c in send_task["candidates"]] == [False, False]


def test_select_endpoint_answers_an_oversized_score_table_with_400(server):
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    overrides = {"score_table": {"string_same": 10**400}}
    status, body = _request(server, "POST", "/select", body={"bpmn": bpmn, "config": overrides})
    assert status == 400
    assert "score_table.string_same" in json.loads(body)["error"]
    status, _ = _request(server, "POST", "/select", body={"bpmn": bpmn})
    assert status == 200


def test_idle_and_trickling_connections_are_closed(monkeypatch):
    monkeypatch.setattr(serve_module, "REQUEST_TIMEOUT_S", 0.2)
    with _serving(load_registry(SENDMAIL_REGISTRY)) as srv:
        for sent in (b"", b"POST /select HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"):
            with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5) as sock:
                sock.sendall(sent)
                started = time.monotonic()
                assert sock.recv(1) == b""  # closed by the server, with nothing sent
                assert time.monotonic() - started < 4


def test_connections_beyond_the_worker_cap_wait_for_a_free_worker(monkeypatch):
    monkeypatch.setattr(serve_module, "MAX_WORKERS", 2)
    with _serving(load_registry(SENDMAIL_REGISTRY)) as srv:
        address = ("127.0.0.1", srv.server_address[1])
        first = socket.create_connection(address, timeout=5)
        second = socket.create_connection(address, timeout=5)
        with first, second, socket.create_connection(address, timeout=5) as third:
            third.sendall(b"GET /services HTTP/1.0\r\n\r\n")
            third.settimeout(0.5)
            with pytest.raises(socket.timeout):  # both workers wait on idle connections
                third.recv(1)
            first.close()
            third.settimeout(5)
            assert third.makefile("rb").readline().startswith(b"HTTP/1.0 200 ")


def _closed_unanswered(srv, request: bytes) -> bool:
    with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=10) as sock:
        sock.sendall(request)
        return sock.recv(1) == b""


def _select_answered_beside_an_idle_connection(srv, bpmn: str) -> bytes:
    """POST /select while another connection holds a worker, idle: answered
    only if the pool still has a second worker."""
    with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=10):
        status, body = _request(srv, "POST", "/select", body={"bpmn": bpmn})
    assert status == 200
    return body


class _AbortsOnce:
    """A listening socket whose next accept() fails, as one does when a
    client resets its connection before a worker takes it."""

    def __init__(self, sock):
        self._sock = sock
        self.aborted = threading.Event()

    def accept(self):
        if not self.aborted.is_set():
            self.aborted.set()
            raise ConnectionAbortedError(errno.ECONNABORTED, os.strerror(errno.ECONNABORTED))
        return self._sock.accept()

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_failing_request_or_accept_ends_no_worker(monkeypatch):
    monkeypatch.setattr(serve_module, "MAX_WORKERS", 2)
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    body = json.dumps({"bpmn": bpmn}).encode("utf-8")
    request = f"POST /select HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode("ascii") + body
    with _serving(load_registry(SENDMAIL_REGISTRY)) as srv:
        with monkeypatch.context() as patched:
            def fail(*args):
                raise RuntimeError("a bug in the pipeline")

            patched.setattr(serve_module, "select_for_process", fail)
            patched.setattr(srv, "handle_error", lambda request, client_address: None)  # no traceback
            assert all(_closed_unanswered(srv, request) for _ in range(5))
        assert _select_answered_beside_an_idle_connection(srv, bpmn) == GOLDEN_REPORT.read_bytes()

        srv.socket = _AbortsOnce(srv.socket)
        assert _request(srv, "GET", "/services")[0] == 200  # its worker then meets the abort
        assert srv.socket.aborted.wait(timeout=5)
        assert _select_answered_beside_an_idle_connection(srv, bpmn) == GOLDEN_REPORT.read_bytes()


def _select_at_once(port: int, bpmn: str, count: int, held=lambda: None) -> list[bytes]:
    """POST /select over `count` connections open at once: every request's
    headers are sent, then held() runs, then every body. Returns the
    response bodies; every response must be a 200."""
    body = json.dumps({"bpmn": bpmn}).encode("utf-8")
    socks = [socket.create_connection(("127.0.0.1", port), timeout=30) for _ in range(count)]
    try:
        for sock in socks:
            sock.sendall(f"POST /select HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode("ascii"))
        held()
        for sock in socks:
            sock.sendall(body)
        replies = [sock.makefile("rb").read() for sock in socks]
    finally:
        for sock in socks:
            sock.close()
    heads, _, bodies = zip(*(reply.partition(b"\r\n\r\n") for reply in replies))
    assert all(head.startswith(b"HTTP/1.0 200 ") for head in heads), heads
    return list(bodies)


@pytest.mark.parametrize("stops", [("shutdown", "server_close"), ("server_close",)])
def test_shutdown_ends_every_worker(monkeypatch, stops):
    """server_close() alone is how `procsel serve` stops on SIGINT."""
    monkeypatch.setattr(serve_module, "MAX_WORKERS", 4)
    registry = load_registry(SENDMAIL_REGISTRY)
    lexicon = load_lexicon(LEXICON_FILE)
    bpmn = SENDMAIL_BPMN.read_text(encoding="utf-8")
    others = set(threading.enumerate())
    srv = make_server(registry, lexicon, DEFAULT_CONFIG, port=0)
    port = srv.server_address[1]
    threading.Thread(target=srv.serve_forever, daemon=True).start()

    def grown():  # each worker holds a connection and waits for its body
        deadline = time.monotonic() + 10
        while len(set(threading.enumerate()) - others) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)

    try:
        bodies = _select_at_once(port, bpmn, 4, held=grown)
        workers = set(threading.enumerate()) - others
    finally:
        for stop in stops:
            getattr(srv, stop)()
    report = select_for_process(parse_bpmn(bpmn), registry, lexicon, DEFAULT_CONFIG)
    assert bodies == [(serialize_report(report) + "\n").encode("utf-8")] * 4
    assert len(workers) == 4  # the serve_forever thread and the three it grew
    for worker in workers:
        worker.join(timeout=5)
        assert not worker.is_alive()
    with socket.socket() as again:  # as HTTPServer binds: connections closed here may sit in TIME_WAIT
        again.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        again.bind(("127.0.0.1", port))
        again.listen()


@contextmanager
def _serve_command(files: list[str], env: dict):
    """`procsel serve` on a free port: yields the process and the port, and
    kills the process if it is still running at the end."""
    process = subprocess.Popen(
        [sys.executable, "-m", "procsel", "serve", "--port", "0", *files],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert select.select([process.stderr], [], [], 60)[0], "no line from procsel serve"
        line = process.stderr.readline().decode()
        assert line.startswith("listening on http://127.0.0.1:"), line
        yield process, int(line.rsplit(":", 1)[1])
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stderr.close()


def test_serve_command_stops_on_sigint_once_its_pool_has_grown():
    env = dict(os.environ)
    env.pop("PROCSEL_CONFIG", None)
    files = ["--registry", str(SENDMAIL_REGISTRY), "--lexicon", str(LEXICON_FILE)]
    with _serve_command(files, env) as (process, port):
        bodies = _select_at_once(port, SENDMAIL_BPMN.read_text(encoding="utf-8"), 2)
        assert bodies == [GOLDEN_REPORT.read_bytes()] * 2
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0
        assert process.stderr.read() == b""  # no traceback from any worker


def test_serve_command_answers_as_select_prints_and_stops_on_sigterm():
    env = dict(os.environ)
    env.pop("PROCSEL_CONFIG", None)
    files = ["--registry", str(SENDMAIL_REGISTRY), "--lexicon", str(LEXICON_FILE)]
    with _serve_command(files, env) as (process, port):
        conn = HTTPConnection("127.0.0.1", port, timeout=30)
        body = json.dumps({"bpmn": SENDMAIL_BPMN.read_text(encoding="utf-8")}).encode("utf-8")
        conn.request("POST", "/select", body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        served = response.read()
        conn.close()
        printed = subprocess.run(
            [sys.executable, "-m", "procsel", "select", "--bpmn", str(SENDMAIL_BPMN), *files],
            capture_output=True, env=env, timeout=60,
        )
        assert printed.returncode == 0, printed.stderr
        assert response.status == 200
        assert served == printed.stdout == GOLDEN_REPORT.read_bytes()

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == -signal.SIGTERM


# --- answers larger than one write ---------------------------------------------

def _crowded_registry(services: int = 40, history: int = 25) -> ServiceRegistry:
    """One category of `services` equivalent services, each of one operation
    with `history` QoS snapshots: every one passes the gate of a task that
    mirrors it."""
    rng = random.Random(33)
    inputs, outputs = (Parameter("user", "string"),), (Parameter("token", "string"),)
    return ServiceRegistry(categories=[ServiceCategory(name="authentication", keywords={"authentication"}, services=[
        WebService(
            name=f"service{i}", business_name="generated", business_key=f"bk{i}",
            service_key=f"ws.gen.{i:04d}", url="", version="1.0",
            operations=[Operation(
                name="login", inputs=inputs, outputs=outputs,
                qos_history=tuple(make_snapshot(rng, EPOCH + timedelta(days=30 * k)) for k in range(history)),
            )],
        )
        for i in range(services)
    ])])


def test_an_answer_over_one_write_arrives_whole_under_three_headers():
    registry = _crowded_registry()
    process = gen_process(random.Random(5), registry, n_tasks=2, match_probability=1.0, mirror_probability=1.0)
    bpmn = process_to_xml(process)
    overrides = {"qos": {"n_gaps": 20}}
    body = json.dumps({"bpmn": bpmn, "config": overrides}).encode("utf-8")
    with _serving(registry) as srv:
        head, served = _raw(srv, b"POST /select HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
        expected = select_for_process(
            parse_bpmn(bpmn), registry, srv.lexicon, config_from_dict(overrides, base=DEFAULT_CONFIG)
        )
    status_line, *fields = head.decode("latin-1").split("\r\n")
    assert status_line == "HTTP/1.0 200 OK"
    assert [field.partition(": ")[0] for field in fields] == ["Date", "Content-Type", "Content-Length"]
    assert int(dict(field.split(": ", 1) for field in fields)["Content-Length"]) == len(served)
    assert served == (serialize_report(expected) + "\n").encode("utf-8")
    assert len(served) > 2 * serve_module.WRITE_BYTES  # three writes


def test_a_client_that_closes_after_the_head_stops_no_worker(server, monkeypatch):
    # the golden answer in writes of 256 bytes: most of it is still unsent
    # when the client closes, so the worker meets a reset or a broken pipe
    monkeypatch.setattr(serve_module, "WRITE_BYTES", 256)
    errors = []
    monkeypatch.setattr(server, "handle_error", lambda request, client_address: errors.append(sys.exc_info()))
    body = json.dumps({"bpmn": SENDMAIL_BPMN.read_text(encoding="utf-8")}).encode("utf-8")
    request = b"POST /select HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    for _ in range(3):
        with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=10) as sock:
            sock.sendall(request)
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(1)
        assert head.startswith(b"HTTP/1.0 200 OK\r\n"), head
    head, served = _raw(server, request)
    assert head.startswith(b"HTTP/1.0 200 OK\r\n"), head
    assert served == GOLDEN_REPORT.read_bytes()
    assert errors == []  # a client gone is no error of the server's, and gets no 500


def test_every_served_connection_has_nagle_off(server, monkeypatch):
    nodelay = []
    handle = serve_module._Handler.handle

    def probed(self):
        nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        handle(self)

    monkeypatch.setattr(serve_module._Handler, "handle", probed)
    assert _request(server, "GET", "/services")[0] == 200
    assert _request(server, "GET", "/nowhere")[0] == 404
    assert _request(server, "POST", "/select", body={"bpmn": SENDMAIL_BPMN.read_text(encoding="utf-8")}) == (
        200, GOLDEN_REPORT.read_bytes()
    )
    assert len(nodelay) == 3 and all(nodelay), nodelay


_FREEZE_PROBE = """
import gc, sys
import procsel.serve
procsel.serve.SelectionServer.serve_forever = lambda self: print(gc.get_freeze_count())
from procsel.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_serve_command_freezes_what_it_loaded_before_serving():
    # the loaded registry and lexicon are in the permanent generation, which
    # the collector's full collections do not traverse
    result = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, "serve", "--port", "0",
         "--registry", str(SENDMAIL_REGISTRY), "--lexicon", str(LEXICON_FILE)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0

"""JSON-over-HTTP facade around the selection pipeline.

The registry and lexicon are loaded once at startup and never mutated;
every request works against that immutable snapshot, so the pipeline
takes no lock but the registry's own: a category's operation index is
built once, on first use, under registry._INDEX_LOCK, also when two
requests reach it at the same time.

Connections are served by a pool of worker threads, each blocked in
accept() on the listening socket; the kernel hands each connection to
one of them, which serves it and goes back to accept(). No thread is
started per connection and no connection passes between threads. The
thread that calls serve_forever() is the first worker, and the pool
grows by one whenever its last idle worker takes a connection, up to
MAX_WORKERS, counted under the server's lock; workers live until
shutdown(). Endpoints:

    POST /select            body {"bpmn": "<xml>", "config": {...}}
    GET  /services          projections of all registered services
    GET  /services/<key>    one full service record incl. QoS history
                            (<key> percent-encoded)

Each connection carries one request, read with http.server's bounds on
the request line and headers, of which only Content-Length is kept. Its
answer is one HTTP/1.0 status line with Date, Content-Type and
Content-Length headers and a JSON body; the connection then closes. The
body is encoded piece by piece (a report, one piece per candidate) and
never joined whole: Content-Length is the sum of the pieces' lengths, and
the head and body go out in writes of at most WRITE_BYTES, with Nagle's
algorithm off, so that the short tail of a write does not wait for the
client's delayed ACK of the one before it. An answer under WRITE_BYTES,
every error among them, is one write. A request line of two words
(HTTP/0.9) is refused with 400.

A /select response body is byte-identical to the CLI `select` output for
the same effective config. Domain errors map to 400 with the same
diagnostic text the CLI prints. No handler sends a 500: an exception that
is not a domain error is a bug, and closes the connection unanswered. A
client that closes its connection before the whole answer is sent is not
one: its worker drops the rest of the answer and goes back to accept().
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from collections.abc import Iterable
from http import HTTPStatus
from urllib.parse import unquote

from .bpmn import parse_bpmn
from .config import AppConfig, config_from_dict
from .errors import ProcselError, RegistryError
from .jsontext import dumps_indented
from .lexicon import SynonymLexicon
from .ranking import report_chunks, select_for_process
from .registry import ServiceRegistry, service_to_dict

# Largest /select body read; selection requests are a few KB.
MAX_BODY_BYTES = 1 << 20
# Most service tasks one /select may ask to rank. Each task costs a gate,
# a QoS scoring and a report section over every category it matches: on
# 400 equivalent services about 20 ms and 0.4 MB of report, so 64 tasks
# come to about 1.3 s and 25 MB.
MAX_TASKS = 64
# Seconds a connection may sit idle, or trickle a request, before it is
# closed and its worker goes back to accept().
REQUEST_TIMEOUT_S = 30.0
# Connections served at once: the most workers a server's pool grows to.
# A further connection waits in the listen queue until a worker accepts it.
MAX_WORKERS = 64
# Most bytes of an answer handed to one sendall(). An answer goes out from
# its encoded pieces, so no copy of the whole of it is made: a report of 400
# equivalent services is about 380 KB a task.
WRITE_BYTES = 1 << 16

# http.server's bounds on a request's head: the bytes of one line, and the
# lines of the header block, the blank line that ends it included.
_MAX_LINE = 65536
_MAX_HEADER_LINES = 100

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def service_projection(category_name: str, service) -> dict:
    return {
        "serviceKey": service.service_key,
        "name": service.name,
        "category": category_name,
        "operationCount": len(service.operations),
    }


def _http_date() -> str:
    """The current time as an HTTP Date value: `Tue, 20 Oct 2026 08:49:37 GMT`."""
    t = time.gmtime()
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


def _version(word: str) -> tuple[int, int] | None:
    """(major, minor) of an `HTTP/<major>.<minor>` word, read as http.server
    reads it, or None where it would answer 400."""
    if not word.startswith("HTTP/"):
        return None
    numbers = word[len("HTTP/"):].split(".")
    if len(numbers) != 2 or not all(n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers):
        return None
    return int(numbers[0]), int(numbers[1])


class SelectionServer(socketserver.TCPServer):
    allow_reuse_address = True  # as HTTPServer binds: a restart may meet TIME_WAIT connections

    def __init__(
        self,
        address: tuple[str, int],
        registry: ServiceRegistry,
        lexicon: SynonymLexicon,
        config: AppConfig,
    ):
        super().__init__(address, _Handler)
        self.registry = registry
        self.lexicon = lexicon
        self.config = config
        self._cap = MAX_WORKERS  # read per server, not frozen at import
        self._lock = threading.Lock()
        self._acceptors = 1  # the thread in serve_forever()
        self._busy = 0
        self._stopping = False

    def serve_forever(self) -> None:
        """Accept and serve connections until shutdown() or server_close().

        Every worker of the pool runs this loop; the calling thread is the
        first. A worker that takes a connection while no other worker
        waits in accept() starts one more, while fewer than the cap exist.
        """
        while not self._stopping:
            try:
                request, client_address = self.socket.accept()
            except OSError:  # woken by shutdown(), or a connection lost before it was taken
                continue
            try:
                with self._lock:
                    self._busy += 1
                    if self._busy == self._acceptors < self._cap:
                        threading.Thread(target=self.serve_forever, daemon=True).start()
                        self._acceptors += 1
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
                with self._lock:
                    self._busy -= 1

    def shutdown(self) -> None:
        """Stop every worker once it has finished the connection it serves.

        Returns at once, unlike socketserver's, which waits for
        serve_forever() to return. Shutting the listening socket down makes
        every blocked accept() fail on Linux, so each waiting worker sees
        the stop.
        """
        self._stopping = True
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # shut down or closed already
            pass

    def server_close(self) -> None:
        self.shutdown()  # closing alone would leave the workers blocked in accept()
        super().server_close()


class _Handler(socketserver.StreamRequestHandler):
    server: SelectionServer
    disable_nagle_algorithm = True  # TCP_NODELAY: see _send

    def setup(self) -> None:
        self.timeout = REQUEST_TIMEOUT_S  # read per connection, not frozen at import
        super().setup()

    def handle(self) -> None:
        try:
            if self._read_head():
                getattr(self, "do_" + self.command)()
        except TimeoutError:  # an idle or trickling client: closed unanswered
            pass
        except ConnectionError:  # a client gone before its answer was sent whole
            pass

    def _read_head(self) -> bool:
        """Read the request line and headers, and say whether to serve them.

        Keeps the method, the path and the first Content-Length value (its
        name in any case). A head that it does not serve is answered with
        the status http.server gives it, or closed unanswered if its
        request line is blank.
        """
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return self._refuse(414, f"request line exceeds {_MAX_LINE} bytes")
        request_line = line.decode("iso-8859-1").rstrip("\r\n")
        words = request_line.split()
        if not words:
            return False
        if len(words) >= 3:
            version = _version(words[-1])
            if version is None:
                return self._refuse(400, f"bad request version {words[-1]!r}")
            if version >= (2, 0):
                return self._refuse(505, f"HTTP version {words[-1]!r} is not supported")
        if len(words) != 3:
            return self._refuse(400, f"bad request syntax {request_line!r}")
        self.command, path, _ = words
        # as http.server reads it: a leading // would read as a host to a client
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.content_length = None
        for _ in range(_MAX_HEADER_LINES):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                return self._refuse(431, f"a header line exceeds {_MAX_LINE} bytes")
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if colon and self.content_length is None and name.lower() == "content-length":
                self.content_length = value.lstrip(" \t").rstrip("\r\n")
        else:
            return self._refuse(431, f"request headers exceed {_MAX_HEADER_LINES} lines")
        if self.command not in ("GET", "POST"):
            return self._refuse(501, f"unsupported method {self.command!r}")
        return True

    def _refuse(self, status: int, error: str) -> bool:
        self._send_json(status, {"error": error})
        return False

    def _send(self, status: int, chunks: Iterable[str]) -> None:
        """Answer with a body of the chunks' text and a newline."""
        body = [chunk.encode("utf-8") for chunk in chunks]
        body.append(b"\n")
        batch = bytearray(
            f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
            f"Date: {_http_date()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {sum(map(len, body))}\r\n\r\n".encode("latin-1")
        )
        # Full batches go out as they fill, and the rest in one last write,
        # so an answer under WRITE_BYTES is one write. With Nagle's algorithm
        # off, the short segment that ends a batch is sent at once, rather
        # than held until the client ACKs the batch's earlier segments.
        for part in body:
            batch += part
            while len(batch) >= WRITE_BYTES:
                self.connection.sendall(batch[:WRITE_BYTES])
                del batch[:WRITE_BYTES]
        if batch:
            self.connection.sendall(batch)

    def _send_json(self, status: int, data) -> None:
        self._send(status, [dumps_indented(data)])

    def do_GET(self) -> None:
        registry = self.server.registry
        if self.path == "/services":
            self._send_json(
                200,
                [
                    service_projection(category.name, service)
                    for category, service in registry.iter_services()
                ],
            )
            return
        if self.path.startswith("/services/"):
            try:
                category, service = registry.find_service(unquote(self.path[len("/services/"):]))
            except RegistryError as exc:
                self._send_json(404, {"error": str(exc)})
                return
            record = {"category": category.name}
            record.update(service_to_dict(service))
            self._send_json(200, record)
            return
        self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:
        if self.path != "/select":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        declared = "0" if self.content_length is None else self.content_length
        if not (declared.isascii() and declared.isdigit()):  # int() also takes "+1", "1_0"
            self._send_json(400, {"error": "Content-Length must be a non-negative integer"})
            return
        digits = declared.lstrip("0") or "0"
        # int() refuses strings past 4300 digits; one longer than the bound is over it
        length = int(digits) if len(digits) <= len(str(MAX_BODY_BYTES)) else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"})
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
            self._send_json(400, {"error": f"request body is not valid JSON: {exc}"})
            return
        except RecursionError:  # the decoder recurses once per nested array or object
            self._send_json(400, {"error": "request body is not valid JSON: nested too deeply"})
            return
        if not isinstance(payload, dict) or not isinstance(payload.get("bpmn"), str) or not payload["bpmn"]:
            self._send_json(400, {"error": "request body must be {\"bpmn\": \"<xml>\", ...}"})
            return

        try:
            config = self.server.config
            overrides = payload.get("config")
            if overrides is not None:
                if not isinstance(overrides, dict):
                    raise ProcselError("'config' must be an object")
                if "lexicon_path" in overrides or "registry_path" in overrides:
                    raise ProcselError("lexicon_path/registry_path cannot be overridden over HTTP")
                config = config_from_dict(overrides, base=config, source="request config")
            process = parse_bpmn(payload["bpmn"])
            if len(process.tasks) > MAX_TASKS:
                self._send_json(413, {"error": f"process has more than {MAX_TASKS} service tasks"})
                return
            report = select_for_process(process, self.server.registry, self.server.lexicon, config)
        except ProcselError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._send(200, report_chunks(report))


def make_server(
    registry: ServiceRegistry,
    lexicon: SynonymLexicon,
    config: AppConfig,
    host: str = "127.0.0.1",
    port: int = 8080,
) -> SelectionServer:
    return SelectionServer((host, port), registry, lexicon, config)

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

A /select response body is byte-identical to the CLI `select` output for
the same effective config. Domain errors map to 400 with the same
diagnostic text the CLI prints. No handler sends a 500: an exception that
is not a domain error is a bug, and closes the connection unanswered.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import unquote

from .bpmn import parse_bpmn
from .config import AppConfig, config_from_dict
from .errors import ProcselError, RegistryError
from .jsontext import dumps_indented
from .lexicon import SynonymLexicon
from .ranking import select_for_process, serialize_report
from .registry import ServiceRegistry, service_to_dict

# Largest /select body read; selection requests are a few KB.
MAX_BODY_BYTES = 1 << 20
# Seconds a connection may sit idle, or trickle a request, before it is
# closed and its worker goes back to accept().
REQUEST_TIMEOUT_S = 30.0
# Connections served at once: the most workers a server's pool grows to.
# A further connection waits in the listen queue until a worker accepts it.
MAX_WORKERS = 64


def service_projection(category_name: str, service) -> dict:
    return {
        "serviceKey": service.service_key,
        "name": service.name,
        "category": category_name,
        "operationCount": len(service.operations),
    }


class SelectionServer(HTTPServer):
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


class _Handler(BaseHTTPRequestHandler):
    server: SelectionServer

    def setup(self) -> None:
        self.timeout = REQUEST_TIMEOUT_S  # read per connection, not frozen at import
        super().setup()

    def log_message(self, format: str, *args) -> None:
        pass  # request logging is noise for a facade driven by pipelines

    def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, data) -> None:
        self._send(status, (dumps_indented(data) + "\n").encode("utf-8"))

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
        declared = self.headers.get("Content-Length", "0")
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
            report = select_for_process(process, self.server.registry, self.server.lexicon, config)
        except ProcselError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._send(200, (serialize_report(report) + "\n").encode("utf-8"))


def make_server(
    registry: ServiceRegistry,
    lexicon: SynonymLexicon,
    config: AppConfig,
    host: str = "127.0.0.1",
    port: int = 8080,
) -> SelectionServer:
    return SelectionServer((host, port), registry, lexicon, config)

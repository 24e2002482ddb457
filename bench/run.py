"""End-to-end benchmark of procsel, driven from outside through its CLI and HTTP server.

    python3 bench/run.py --workload serve-broad --seed 1 --seconds 30 --trace 0

Run from the root of a procsel checkout; the program is run from its
src/ directory. Generated inputs and trace files go under .bench_work/.
The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the end-to-end ones, measured with
nothing traced; with --trace 1 the run also makes the traced in-process
pass of bench/trace.py and the metrics are the per-layer ones. See
bench/README.md for what each workload and metric is.

Every workload drives both entry points:

  * `procsel serve`: several starts (setup_s), one warm-up round over the
    pool, then a closed loop on one connection (select_p50_ms,
    select_p90_ms) and one on `nproc` connections (select_rps);
  * `procsel select` and `procsel registry snapshot` as cold processes
    (cli_select_s, cli_snapshot_s, cli_rss_mb).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import ROOT, WORKLOADS, Case, Inputs, generate  # noqa: E402  (checks the checkout)
import checks  # noqa: E402
import layers  # noqa: E402
from procsel.registry import registry_to_dict  # noqa: E402

WORK = ROOT / ".bench_work"
SERVER_STARTS = 5
STARTUP_SAMPLES = 5
MIN_TIMED_REQUESTS = 100
START_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 60.0


@dataclass
class Plan:
    """What one cycle of a workload's measured loop sends.

    A run repeats whole cycles for about --seconds, so that every metric is
    sampled over the whole run rather than over one phase of it.
    """

    one_rounds: int      # rounds over the pool on one connection
    many_rounds: int     # rounds over the pool shared by `nproc` connections
    cli_selects: int     # cold `procsel select` processes, for the next processes of the pool
    cli_snapshots: int   # `procsel registry snapshot` writes


PLANS = {
    "serve-broad": Plan(one_rounds=3, many_rounds=1, cli_selects=4, cli_snapshots=1),
    "serve-crowded": Plan(one_rounds=3, many_rounds=2, cli_selects=4, cli_snapshots=1),
}


class Tally:
    """Operations attempted and failed; client threads share one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(what)


def program_env() -> dict:
    env = dict(os.environ)
    env.pop("PROCSEL_CONFIG", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # String hashing decides set iteration order, and with it where the
    # context filter's any() stops; a fixed hash seed removes that source
    # of run-to-run spread. Reports do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


PROGRAM = [sys.executable, "-m", "procsel"]


# --- the server -------------------------------------------------------------------

class Server:
    """One `procsel serve` process, started and waited on until it listens."""

    def __init__(self, inputs: Inputs):
        command = [*PROGRAM, "serve", "--registry", str(inputs.registry_path), "--port", "0"]
        if inputs.lexicon_path:
            command += ["--lexicon", str(inputs.lexicon_path)]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=program_env(), cwd=ROOT,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        line = self._first_line()
        self.setup_s = time.perf_counter() - started
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"procsel serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        # Drain stderr, so a chatty server never blocks on a full pipe, and
        # keep its end for the report of a failed run.
        self.stderr_tail: list[str] = []
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _first_line(self) -> str:
        result: list[str] = []
        reader = threading.Thread(target=lambda: result.append(self.process.stderr.readline().decode()))
        reader.start()
        reader.join(START_TIMEOUT_S)
        return result[0].strip() if result else ""

    def _drain_stderr(self) -> None:
        for raw in self.process.stderr:
            self.stderr_tail = (self.stderr_tail + [raw.decode(errors="replace")])[-20:]

    def peak_rss_mb(self) -> float:
        """VmHWM: the high-water mark of the server's own memory since its exec."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(10)
        self.process.stderr.close()


def request_bytes(case: Case) -> bytes:
    payload = {"bpmn": case.bpmn_path.read_text(encoding="utf-8")}
    if case.overrides is not None:
        payload["config"] = case.overrides
    body = json.dumps(payload).encode("utf-8")
    head = (
        "POST /select HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("ascii")
    return head + body


def post(port: int, request: bytes) -> bytes:
    """Send one prepared request and return the whole raw response."""
    with socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(1 << 18)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def split_response(raw: bytes) -> tuple[bool, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.startswith(b"HTTP/1.0 200 ") or head.startswith(b"HTTP/1.1 200 "), body


class Pool:
    """The workload's distinct processes, sent in the seeded order."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.requests = [request_bytes(case) for case in inputs.cases]
        self.expected: dict[int, bytes] = {}

    def round_order(self) -> list[int]:
        return list(self.inputs.order)


def send(server: Server, pool: Pool, tally: Tally, order: list[int]) -> tuple[list[float], list[float]]:
    """Send the processes in order, one at a time: (latencies, completion times).

    Each response is compared, as bytes, with the checked warm-up response
    of its process; nothing is parsed.
    """
    latencies: list[float] = []
    finished: list[float] = []
    for index in order:
        started = time.perf_counter()
        raw = post(server.port, pool.requests[index])
        done = time.perf_counter()
        ok, body = split_response(raw)
        tally.record(ok and body == pool.expected.get(index), pool.inputs.cases[index].name)
        latencies.append(done - started)
        finished.append(done)
    return latencies, finished


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def start_servers(inputs: Inputs) -> tuple[Server, list[float]]:
    """Start the server SERVER_STARTS times; keep the last one running."""
    starts = []
    server = None
    for _ in range(SERVER_STARTS):
        if server is not None:
            server.stop()
        server = Server(inputs)
        starts.append(server.setup_s)
    return server, starts


class Measures:
    """Samples gathered over a run."""

    def __init__(self):
        self.one: list[float] = []          # latency, one connection
        self.many: list[float] = []         # latency, `nproc` connections
        self.busy_s = 0.0                   # time all `nproc` connections were busy
        self.busy_completed = 0             # requests completed in that time
        self.select_s: list[float] = []
        self.select_rss: list[float] = []
        self.snapshot_s: list[float] = []


def many_connections(server: Server, pool: Pool, tally: Tally, rounds: int, measures: Measures) -> None:
    """`nproc` clients, each sending its share of `rounds` rounds, closed loop."""
    connections = len(os.sched_getaffinity(0))
    order = pool.round_order() * rounds
    results: list[tuple[list[float], list[float]]] = [([], [])] * connections

    def client(k: int) -> None:
        results[k] = send(server, pool, tally, order[k::connections])

    began = time.perf_counter()
    threads = [threading.Thread(target=client, args=(k,)) for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Throughput counts only the window in which every connection was busy.
    window_end = min(finished[-1] for _, finished in results)
    measures.busy_s += window_end - began
    measures.busy_completed += sum(t <= window_end for _, finished in results for t in finished)
    for latencies, _ in results:
        measures.many.extend(latencies)


# --- the CLI --------------------------------------------------------------------------

class Launcher:
    """bench/launch.py, which runs the CLI processes and times them."""

    def __init__(self, directory: Path):
        self.stdout_path = directory / "cli-stdout"
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "launch.py")],
            env=program_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args: list[str]) -> tuple[float, float, int, bytes, str]:
        """Run one procsel command: (wall seconds, peak RSS MB, exit code, stdout, stderr)."""
        request = {"args": [*PROGRAM, *args], "stdout": str(self.stdout_path)}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("bench/launch.py exited early")
        reply = json.loads(line)
        return (reply["seconds"], reply["rss_mb"], reply["code"], self.stdout_path.read_bytes(),
                reply["stderr"])

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def select_args(inputs: Inputs, case: Case) -> list[str]:
    args = ["select", "--bpmn", str(case.bpmn_path), "--registry", str(inputs.registry_path)]
    if inputs.lexicon_path:
        args += ["--lexicon", str(inputs.lexicon_path)]
    if case.config_path:
        args += ["--config", str(case.config_path)]
    return args


def snapshot_args(registry_path: Path, write) -> list[str]:
    return [
        "registry", "snapshot", "--into", str(registry_path), "--service", write.service_key,
        "--op", write.operation, "--availability", repr(write.availability),
        "--exec-ms", repr(write.exec_ms), "--calls", str(write.calls), "--timestamp", write.timestamp,
    ]


def measure(inputs: Inputs, pool: Pool, plan: Plan, seconds: float, tally: Tally,
            server: Server, launcher: Launcher,
            cli_bodies: dict[int, list[bytes]]) -> tuple[Measures, Path, int]:
    """Repeat whole cycles for about `seconds`; returns the samples, the
    registry file written to and the number of writes made.

    A cycle sends `plan.one_rounds` rounds over the pool on one connection
    and `plan.many_rounds` on `nproc` connections, runs `plan.cli_selects`
    cold selects on the next processes of the pool, and makes
    `plan.cli_snapshots` snapshot writes to a copy of the registry, which
    the server and the selects never read. The run ends after
    a whole *rotation*: the cycles that send every process of the pool to
    the CLI equally often. It ends on the rotation boundary nearest the
    deadline, and only once it has MIN_TIMED_REQUESTS one-connection
    latencies.
    """
    write_path = inputs.directory / "registry-writes.json"
    shutil.copyfile(inputs.registry_path, write_path)
    n = len(pool.requests)
    rotation = n // math.gcd(n, plan.cli_selects)
    measures = Measures()
    writes = 0
    cycles = 0
    boundary = time.perf_counter()
    deadline = boundary + seconds
    while True:
        latencies, _ = send(server, pool, tally, pool.round_order() * plan.one_rounds)
        measures.one.extend(latencies)
        many_connections(server, pool, tally, plan.many_rounds, measures)
        for k in range(plan.cli_selects):
            index = pool.inputs.order[(cycles * plan.cli_selects + k) % n]
            elapsed, rss, code, stdout, _ = launcher.run(select_args(inputs, inputs.cases[index]))
            tally.record(code == 0, f"cli select {inputs.cases[index].name}")
            measures.select_s.append(elapsed)
            measures.select_rss.append(rss)
            cli_bodies.setdefault(index, []).append(stdout)
        for _ in range(plan.cli_snapshots):
            elapsed, _, code, _, _ = launcher.run(snapshot_args(write_path, inputs.writes[writes]))
            tally.record(code == 0, "cli snapshot")
            measures.snapshot_s.append(elapsed)
            writes += 1
        cycles += 1
        if cycles % rotation:
            continue
        now = time.perf_counter()
        rotation_s, boundary = now - boundary, now
        # End on the rotation boundary nearest the deadline, so that a run
        # measures `seconds` on average however long a rotation takes.
        if now + rotation_s / 2 >= deadline and len(measures.one) >= MIN_TIMED_REQUESTS:
            return measures, write_path, writes


# --- the run ----------------------------------------------------------------------------

UNITS = {
    "setup_s": "s",
    "select_p50_ms": "ms",
    "select_p90_ms": "ms",
    "select_rps": "1/s",
    "server_rss_mb": "MB",
    "cli_select_s": "s",
    "cli_snapshot_s": "s",
    "cli_rss_mb": "MB",
}


def verify(inputs: Inputs, pool: Pool, oracle: checks.Oracle, original: dict,
           cli_bodies: dict[int, list[bytes]], write_path: Path, writes: int) -> list[str]:
    """Every check of the run, made after the measured loop; returns the failures."""
    failures = []
    for index, case in enumerate(inputs.cases):
        try:
            expected = oracle.expected_body(case)
            checks.check_case(pool.expected.get(index, b""), expected, case, oracle, "HTTP")
            for body in cli_bodies.get(index, []):
                if body != expected:
                    raise checks.CheckError(f"{case.name}: CLI report differs from the HTTP one")
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            failures.append(f"{case.name}: {exc!r}")
    missing = [case.name for index, case in enumerate(inputs.cases) if index not in cli_bodies]
    if missing:
        failures.append(f"processes never run through the CLI: {missing}")
    try:
        checks.check_writes(original, write_path, inputs.writes[:writes])
    except checks.CheckError as exc:
        failures.append(str(exc))
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    directory = WORK / f"{workload}-{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        return run_in(generate(workload, seed, directory), seconds, trace)
    finally:
        # Several megabytes per run; only the trace file is kept.
        shutil.rmtree(directory, ignore_errors=True)


def run_in(inputs: Inputs, seconds: float, trace: bool) -> dict:
    launcher = Launcher(inputs.directory)
    try:
        return measure_and_check(inputs, seconds, trace, launcher)
    finally:
        launcher.close()


def measure_and_check(inputs: Inputs, seconds: float, trace: bool, launcher: Launcher) -> dict:
    workload, seed = inputs.workload, inputs.seed
    oracle = checks.Oracle(inputs)
    original = registry_to_dict(oracle.registry)
    pool = Pool(inputs)
    tally = Tally()
    validate = ["validate", "--bpmn", str(inputs.validate_path)]

    # Compile the program's bytecode before anything is timed.
    _, _, code, _, stderr = launcher.run(validate)
    if code != 0:
        raise RuntimeError(f"procsel validate failed: {stderr}")

    server, starts = start_servers(inputs)
    cli_bodies: dict[int, list[bytes]] = {}
    try:
        # Warm-up: every distinct process once, which also fills the
        # server's keyword cache; these are the responses checked below.
        for index in pool.round_order():
            ok, body = split_response(post(server.port, pool.requests[index]))
            tally.record(ok, inputs.cases[index].name)
            if ok:
                pool.expected[index] = body
        measures, write_path, writes = measure(inputs, pool, PLANS[workload], seconds, tally,
                                               server, launcher, cli_bodies)
        server_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    failures = verify(inputs, pool, oracle, original, cli_bodies, write_path, writes)
    for failure in failures + tally.problems:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    if tally.failed:
        print("bench: server stderr ends with:\n" + "".join(server.stderr_tail), file=sys.stderr)

    measured = {
        "setup_s": statistics.median(starts),
        "select_p50_ms": statistics.median(measures.one) * 1e3,
        "select_p90_ms": percentile(measures.one, 90) * 1e3,
        "select_rps": measures.busy_completed / measures.busy_s,
        "server_rss_mb": server_rss_mb,
        "cli_select_s": statistics.median(measures.select_s),
        "cli_snapshot_s": statistics.median(measures.snapshot_s),
        "cli_rss_mb": statistics.median(measures.select_rss),
        "p50_many_ms": statistics.median(measures.many) * 1e3,
    }
    print(f"bench: {workload} seed {seed}: {len(measures.one)} + {len(measures.many)} requests, "
          f"{len(measures.select_s)} selects, {writes} writes; server starts "
          + ", ".join(f"{s:.3f}" for s in starts) + " s", file=sys.stderr)
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in UNITS.items()}
    if trace:
        startup_ms = [launcher.run(validate)[0] * 1e3 for _ in range(STARTUP_SAMPLES)]
        layer, side_by_side = layers.traced_run(inputs, measured, startup_ms,
                                                WORK / f"trace-{workload}-{seed}.json")
        print("bench: end to end " + json.dumps(measured), file=sys.stderr)
        print("bench: in-process request p50, untraced and traced: " + json.dumps(side_by_side),
              file=sys.stderr)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in layers.PER_LAYER.items()}
    return {
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="procsel end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

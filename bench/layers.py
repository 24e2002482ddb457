"""The traced in-process pass: per-layer metrics of one workload.

It calls the public functions of procsel's modules on the workload's
inputs and records a span around each call into a layer: a name, a start,
an end, the enclosing span and a request id. Spans stay in memory and are
written out as JSON when the pass ends. Calls made inside
select_for_process are reached by wrapping the module attributes it
looks up (procsel.ranking.gate_candidates, procsel.ranking.score_pool,
procsel.functional.match_context, ...) for the length of the pass;
nothing in src/ is changed, and the wrappers are removed afterwards.

Rounds with and without the wrappers alternate, so the difference of
their medians is the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from inputs import Inputs  # first: puts the checkout's src/ on sys.path
from checks import Oracle, effective_config
import procsel.functional
import procsel.ranking
from procsel.bpmn import bind_requirements, parse_bpmn
from procsel.lexicon import extract_keywords
from procsel.ranking import select_for_process, serialize_report
from procsel.registry import QosSnapshot, append_snapshot, load_registry, save_registry

ROUNDS = 3
REPEATS = 3
APPENDS = 20

# name -> (unit, better); the order of the result.
PER_LAYER = {
    "registry.load_ms": ("ms", "lower"),
    "registry.load_peak_mb": ("MB", "lower"),
    "registry.file_mb": ("MB", "lower"),
    "registry.save_ms": ("ms", "lower"),
    "registry.append_ms": ("ms", "lower"),
    "cli.startup_ms": ("ms", "lower"),
    "bpmn.parse_ms": ("ms", "lower"),
    "lexicon.keyword_cache_hits": ("count", "lower"),
    "lexicon.keyword_cache_misses": ("count", "lower"),
    "functional.context_ms": ("ms", "lower"),
    "functional.categories_matched": ("count", "lower"),
    "functional.gate_ms": ("ms", "lower"),
    "functional.ops_scored": ("count", "lower"),
    "functional.ops_gated": ("count", "higher"),
    "functional.gate_yield": ("ratio", "higher"),
    "functional.us_per_op_scored": ("us", "lower"),
    "qos.score_pool_ms": ("ms", "lower"),
    "qos.candidates_rated": ("count", "higher"),
    "qos.snapshots_aligned": ("count", "lower"),
    "ranking.select_ms": ("ms", "lower"),
    "ranking.other_ms": ("ms", "lower"),
    "ranking.serialize_ms": ("ms", "lower"),
    "ranking.report_kb": ("KB", "lower"),
    "serve.overhead_ms": ("ms", "lower"),
    "serve.wait_ms": ("ms", "lower"),
}


class Tracer:
    """In-memory spans and counters; `span` nests through a stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.request = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                  "request": self.request, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer calls select_for_process makes; restore them on exit."""
    original = {
        (procsel.ranking, "gate_candidates"): procsel.ranking.gate_candidates,
        (procsel.ranking, "score_pool"): procsel.ranking.score_pool,
        (procsel.ranking, "match_context"): procsel.ranking.match_context,
        (procsel.functional, "match_context"): procsel.functional.match_context,
        (procsel.functional, "score_functional"): procsel.functional.score_functional,
    }
    gate, pool, diagnostic, context, score = original.values()

    def traced_gate(*args, **kwargs):
        with tracer.span("functional.gate_candidates"):
            gated = gate(*args, **kwargs)
        tracer.count("functional.ops_gated", len(gated))
        return gated

    def traced_context(*args, **kwargs):
        with tracer.span("functional.match_context"):
            matched = context(*args, **kwargs)
        tracer.count("functional.categories_matched", int(matched))
        return matched

    def traced_diagnostic(*args, **kwargs):
        with tracer.span("ranking.diagnostic_match_context"):
            return diagnostic(*args, **kwargs)

    def counted_score(*args, **kwargs):
        tracer.count("functional.ops_scored")
        return score(*args, **kwargs)

    def traced_pool(candidates, config, *rest):
        with tracer.span("qos.score_pool"):
            scores = pool(candidates, config, *rest)
        tracer.count("qos.candidates_rated", sum(s.rated for s in scores))
        tracer.count("qos.snapshots_aligned",
                     sum(min(len(op.qos_history), config.n_gaps) for op in candidates))
        return scores

    wrappers = [traced_gate, traced_pool, traced_diagnostic, traced_context, counted_score]
    try:
        for (module, name), wrapper in zip(original, wrappers):
            setattr(module, name, wrapper)
        yield
    finally:
        for (module, name), function in original.items():
            setattr(module, name, function)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median_ms(action, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        samples.append(time.perf_counter() - started)
    return _ms(statistics.median(samples))


def registry_layer(inputs: Inputs) -> dict:
    path = inputs.registry_path
    metrics = {"registry.file_mb": path.stat().st_size / 2**20,
               "registry.load_ms": _median_ms(lambda: load_registry(path))}
    tracemalloc.start()
    try:
        registry = load_registry(path)
        metrics["registry.load_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    scratch = inputs.directory / "layer-save.json"
    metrics["registry.save_ms"] = _median_ms(lambda: save_registry(registry, scratch))
    scratch.unlink()
    appends = []
    for write in inputs.writes[:APPENDS]:
        snapshot = QosSnapshot(
            datetime.fromisoformat(write.timestamp.replace("Z", "+00:00")).astimezone(timezone.utc),
            write.availability, write.exec_ms, write.calls,
        )
        started = time.perf_counter()
        append_snapshot(registry, write.service_key, write.operation, snapshot)
        appends.append(time.perf_counter() - started)
    metrics["registry.append_ms"] = _ms(statistics.median(appends))
    return metrics


def traced_run(inputs: Inputs, measured: dict, startup_ms: list[float],
               trace_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics, keyed as PER_LAYER, and the traced and untraced medians.

    `measured` holds the run's end-to-end figures; `startup_ms` the times
    of `procsel validate` on a one-task file. Writes the spans to trace_path.
    """
    metrics = registry_layer(inputs)
    metrics["cli.startup_ms"] = statistics.median(startup_ms)

    cases = [inputs.cases[i] for i in inputs.order]
    texts = {case.name: case.bpmn_path.read_text(encoding="utf-8") for case in cases}
    parse = []
    for _ in range(REPEATS):
        for case in cases:
            started = time.perf_counter()
            bind_requirements(parse_bpmn(texts[case.name]))
            parse.append(time.perf_counter() - started)
    metrics["bpmn.parse_ms"] = _ms(statistics.median(parse))

    # A cold keyword cache, as a freshly started server has it.
    extract_keywords.cache_clear()
    oracle = Oracle(inputs)
    tracer = Tracer()

    def one_round() -> list[dict]:
        requests = []
        for case in cases:
            tracer.request += 1
            config = effective_config(case)
            with tracer.span("request") as request:
                with tracer.span("bpmn.parse_bpmn"):
                    process = parse_bpmn(texts[case.name])
                with tracer.span("ranking.select_for_process") as select:
                    report = select_for_process(process, oracle.registry, oracle.lexicon, config)
                with tracer.span("ranking.serialize_report") as serialize:
                    body = serialize_report(report)
            requests.append({"request": request, "select": select, "serialize": serialize,
                             "kb": len(body.encode("utf-8")) / 1024})
        return requests

    before = extract_keywords.cache_info()
    with instrumented(tracer):
        one_round()
    after = extract_keywords.cache_info()
    metrics["lexicon.keyword_cache_hits"] = after.hits - before.hits
    metrics["lexicon.keyword_cache_misses"] = after.misses - before.misses

    traced, untraced = [], []
    counts_per_round = None
    for _ in range(ROUNDS):
        tracer.counts = {}
        with instrumented(tracer):
            traced.extend(one_round())
        counts_per_round = dict(tracer.counts)
        untraced.extend(one_round())

    children: dict[int, dict[str, float]] = {}
    for span in tracer.spans:
        if span["parent"] is not None:
            sums = children.setdefault(span["request"], {})
            sums[span["name"]] = sums.get(span["name"], 0.0) + span["end"] - span["start"]

    def per_request(name: str) -> list[float]:
        return [children.get(r["request"]["request"], {}).get(name, 0.0) for r in traced]

    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    select = [duration(r["select"]) for r in traced]
    gate = per_request("functional.gate_candidates")
    pool = per_request("qos.score_pool")
    metrics["functional.context_ms"] = _ms(statistics.median(per_request("functional.match_context")))
    metrics["functional.gate_ms"] = _ms(statistics.median(gate))
    metrics["qos.score_pool_ms"] = _ms(statistics.median(pool))
    metrics["ranking.select_ms"] = _ms(statistics.median(select))
    metrics["ranking.other_ms"] = _ms(statistics.median(s - g - p for s, g, p in zip(select, gate, pool)))
    metrics["ranking.serialize_ms"] = _ms(statistics.median(duration(r["serialize"]) for r in traced))
    metrics["ranking.report_kb"] = statistics.median(r["kb"] for r in traced)
    for name in ("functional.categories_matched", "functional.ops_scored", "functional.ops_gated",
                 "qos.candidates_rated", "qos.snapshots_aligned"):
        metrics[name] = counts_per_round.get(name, 0)
    scored = counts_per_round.get("functional.ops_scored", 0)
    metrics["functional.gate_yield"] = metrics["functional.ops_gated"] / scored if scored else 0.0
    metrics["functional.us_per_op_scored"] = (
        sum(gate) / ROUNDS / scored * 1e6 if scored else 0.0
    )

    untraced_ms = [_ms(duration(r["request"])) for r in untraced]
    traced_ms = [_ms(duration(r["request"])) for r in traced]
    in_process = statistics.median(_ms(duration(r["select"]) + duration(r["serialize"])) for r in untraced)
    metrics["serve.overhead_ms"] = measured["select_p50_ms"] - in_process
    metrics["serve.wait_ms"] = measured["p50_many_ms"] - measured["select_p50_ms"]

    side_by_side = {
        "untraced_request_p50_ms": statistics.median(untraced_ms),
        "traced_request_p50_ms": statistics.median(traced_ms),
        "gate_share_of_select": sum(gate) / sum(select),
    }
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0]["start"] if tracer.spans else 0.0
    trace_path.write_text(json.dumps({
        "workload": inputs.workload,
        "seed": inputs.seed,
        "side_by_side": side_by_side,
        "metrics": metrics,
        "spans": [
            {"id": s["id"], "name": s["name"], "parent": s["parent"], "request": s["request"],
             "start_us": round((s["start"] - origin) * 1e6, 1), "end_us": round((s["end"] - origin) * 1e6, 1)}
            for s in tracer.spans
        ],
    }, indent=1) + "\n", encoding="utf-8")
    return metrics, side_by_side

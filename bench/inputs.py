"""Seeded inputs for the procsel benchmark workloads.

    python3 bench/inputs.py --workload serve-broad --seed 1 --out DIR

writes the registry, lexicon, BPMN and config files of one workload into
DIR. The same workload and seed always give the same bytes. The builders
come from tests/generators.py, unchanged; the program under test only
ever sees the files written here.

Every workload has a fixed shape (counts of categories, services,
operations, snapshots, tasks and parameters); the seed only picks names,
datatypes, keywords and QoS values. Requests therefore cost about the
same whatever the seed, which keeps the benchmark's spread across seeds
close to its spread across repeated runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-broad", "serve-crowded")


def import_program():
    """Put the checkout's src/ and tests/ on sys.path; fail when they are absent."""
    for part in ("src/procsel/__init__.py", "tests/generators.py"):
        if not (ROOT / part).is_file():
            raise SystemExit(f"bench: {part} not found under {ROOT}; run from a procsel checkout")
    for part in ("src", "tests"):
        path = str(ROOT / part)
        if path not in sys.path:
            sys.path.insert(0, path)


import_program()

from generators import (  # noqa: E402  (needs the path set up above)
    CONTEXTS,
    DATATYPES,
    EPOCH,
    WORDS,
    annotation_text,
    make_snapshot,
    process_to_xml,
    substitute_synonyms,
)
from procsel.bpmn import (  # noqa: E402
    AssociationEdge,
    BusinessProcess,
    ServiceTaskNode,
    TextAnnotationNode,
)
from procsel.registry import (  # noqa: E402
    Operation,
    Parameter,
    ServiceCategory,
    ServiceRegistry,
    WebService,
    save_registry,
)

# Names no registry parameter or category keyword ever carries.
NO_MATCH_CONTEXT = "zzznomatch"
UNMATCHED_OUTPUTS = ("zzzfirst", "zzzsecond")
CROWDED_EXTRAS = ("latency", "cost", "throughput")


@dataclass
class Mirror:
    """A task that copies one registry operation's signature."""

    service_key: str
    operation: str
    n_in: int
    n_out: int


@dataclass
class Case:
    """One distinct process of a workload's pool."""

    name: str
    bpmn_path: Path
    config_path: Path | None
    overrides: dict | None
    mirrors: dict[str, Mirror] = field(default_factory=dict)
    built_to_pass: dict[str, int] = field(default_factory=dict)


@dataclass
class SnapshotWrite:
    service_key: str
    operation: str
    timestamp: str
    availability: float
    exec_ms: float
    calls: int


@dataclass
class Inputs:
    workload: str
    seed: int
    directory: Path
    registry_path: Path
    lexicon_path: Path | None
    cases: list[Case]
    order: list[int]
    writes: list[SnapshotWrite] = field(default_factory=list)
    validate_path: Path | None = None


def _params(rng: random.Random, n: int) -> list[Parameter]:
    return [Parameter(rng.choice(WORDS), rng.choice(DATATYPES)) for _ in range(n)]


def _history(rng: random.Random, n: int, attrs: list[str] | None = None):
    return [make_snapshot(rng, EPOCH + timedelta(days=30 * k), attrs) for k in range(n)]


def _service(key: int, prefix: str, operations: list[Operation]) -> WebService:
    return WebService(
        name=f"{prefix}service{key}",
        business_name=f"{prefix} provider",
        business_key=f"bk.{prefix}.{key}",
        service_key=f"ws.{prefix}.{key:05d}",
        url=f"http://example.com/{prefix}/{key}?wsdl",
        version="1.0",
        operations=operations,
    )


def _process(pid: str, tasks: list[tuple[list[Parameter], list[Parameter], set[str]]]) -> BusinessProcess:
    process = BusinessProcess(id=pid)
    previous = "start"
    for i, (inputs, outputs, context) in enumerate(tasks, start=1):
        task_id, ann_id = f"task{i}", f"ann{i}"
        process.tasks.append(ServiceTaskNode(task_id, f"Task {i}"))
        process.annotations.append(TextAnnotationNode(ann_id, annotation_text(inputs, outputs, context)))
        process.associations.append(AssociationEdge(f"assoc{i}", task_id, ann_id))
        process.flows.append((previous, task_id))
        previous = task_id
    return process


def _write_case(directory: Path, name: str, process: BusinessProcess, overrides: dict | None) -> Case:
    bpmn_path = directory / f"{name}.bpmn"
    bpmn_path.write_text(process_to_xml(process), encoding="utf-8")
    config_path = None
    if overrides is not None:
        config_path = directory / f"{name}.config.json"
        config_path.write_text(json.dumps(overrides, indent=2) + "\n", encoding="utf-8")
    return Case(name, bpmn_path, config_path, overrides)


def _mirror_task(service: WebService, op: Operation, context: set[str]):
    task = ([Parameter(p.name, p.datatype) for p in op.inputs],
            [Parameter(p.name, p.datatype) for p in op.outputs],
            context)
    return task, Mirror(service.service_key, op.name, len(op.inputs), len(op.outputs))


# --- serve-broad ---------------------------------------------------------------
# 1000 services in 40 categories whose keywords come from the same ten
# context words (plus the category's own name), so a task context of those
# words matches every category. Half of the parameter names are swapped
# for synonyms, so matching goes through the lexicon. Each process asks
# for one operation's signature: every operation is scored, few pass.

BROAD_CATEGORIES = 40
BROAD_SERVICES_PER_CATEGORY = 25
BROAD_PROCESSES = 12


def _broad(rng: random.Random, directory: Path) -> tuple[ServiceRegistry, dict, list[Case]]:
    categories = []
    key = 0
    for c in range(BROAD_CATEGORIES):
        keywords = set(rng.sample(CONTEXTS, 3)) | {rng.choice(WORDS)}
        services = []
        for _ in range(BROAD_SERVICES_PER_CATEGORY):
            key += 1
            operations = [
                Operation(f"op{j}", _params(rng, rng.randint(1, 3)), _params(rng, rng.randint(1, 2)),
                          _history(rng, 3))
                for j in range(rng.randint(1, 2))
            ]
            services.append(_service(key, "broad", operations))
        name = "broad" + "".join(chr(ord("a") + d) for d in divmod(c, 26))  # one token: no digits
        categories.append(ServiceCategory(name, keywords | {name}, services))
    registry = ServiceRegistry(categories)

    # Every process asks for the signature of a two-in, two-out operation,
    # with a context of all ten words, which matches every category: each
    # request scores the same operations, so requests cost about the same.
    shaped = [
        (category, service, op)
        for category in categories for service in category.services for op in service.operations
        if len(op.inputs) == 2 and len(op.outputs) == 2
    ]
    cases = []
    for i in range(BROAD_PROCESSES):
        category, service, op = rng.choice(shaped)
        task, mirror = _mirror_task(service, op, set(CONTEXTS))
        tasks = [task]
        # One process in four adds a task that matches no category, and one
        # in four a task whose two outputs no operation offers, within a
        # single category, so that both diagnostics are produced.
        if i % 4 == 1:
            tasks.append((_params(rng, 2), _params(rng, 2), {NO_MATCH_CONTEXT}))
        elif i % 4 == 3:
            tasks.append((_params(rng, 2),
                          [Parameter(name, rng.choice(DATATYPES)) for name in UNMATCHED_OUTPUTS],
                          {rng.choice(categories).name}))
        case = _write_case(directory, f"broad{i:02d}", _process(f"broad{i:02d}", tasks), None)
        case.mirrors["task1"] = mirror
        cases.append(case)

    lexicon, substituted = substitute_synonyms(rng, registry)
    return substituted, lexicon, cases


# --- serve-crowded ------------------------------------------------------------
# 400 services split over two market categories, every one offering an
# operation with the same signature as the task (some under synonyms or
# with a surplus output, which still passes the gate); one in twenty is
# built to fail the gate. Histories are 24 snapshots long and carry three
# extra attributes, which each request's config override asks for with a
# long n_gaps, so the QoS stage, ranking and the large report carry the time.

CROWDED_MARKETS = ("payments", "bookings")
CROWDED_SERVICES_PER_MARKET = 200
CROWDED_HISTORY = 24
# Every request aligns the same number of gaps, so that requests cost about
# the same and the latency percentiles do not straddle a cost step.
CROWDED_GAPS = 20
CROWDED_PROCESSES = 8
CROWDED_FAIL_EVERY = 20


def _crowded(rng: random.Random, directory: Path) -> tuple[ServiceRegistry, dict, list[Case]]:
    lexicon = {word: [f"alt{word}"] for word in WORDS}
    categories = []
    signatures = {}
    passing = {}
    key = 0
    for market in CROWDED_MARKETS:
        words = rng.sample(WORDS, 3)
        inputs = [Parameter(words[0], rng.choice(DATATYPES))]
        outputs = [Parameter(words[1], rng.choice(DATATYPES)), Parameter(words[2], rng.choice(DATATYPES))]
        signatures[market] = (inputs, outputs)
        services = []
        passing[market] = 0
        for s in range(CROWDED_SERVICES_PER_MARKET):
            key += 1
            op_inputs = [Parameter(p.name, p.datatype) for p in inputs]
            op_outputs = [Parameter(p.name, p.datatype) for p in outputs]
            if s % CROWDED_FAIL_EVERY == CROWDED_FAIL_EVERY - 1:
                op_outputs = op_outputs[:1]  # misses a requested output: below the gate
            else:
                passing[market] += 1
                if rng.random() < 0.5:
                    op_outputs[0] = Parameter(f"alt{op_outputs[0].name}", op_outputs[0].datatype)
                if rng.random() < 0.25:
                    op_outputs.append(Parameter(rng.choice(WORDS), rng.choice(DATATYPES)))
            history = _history(rng, CROWDED_HISTORY, list(CROWDED_EXTRAS))
            services.append(_service(key, market, [Operation("quote", op_inputs, op_outputs, history)]))
        categories.append(ServiceCategory(market, {market, "market"}, services))
    registry = ServiceRegistry(categories)

    cases = []
    for i in range(CROWDED_PROCESSES):
        market = CROWDED_MARKETS[i % len(CROWDED_MARKETS)]
        inputs, outputs = signatures[market]
        process = _process(f"crowded{i:02d}", [(list(inputs), list(outputs), {market})])
        weights = [rng.uniform(0.1, 1.0) for _ in range(3 + len(CROWDED_EXTRAS))]
        total = sum(weights)
        names = ["availability", "executionTimeMs", "totalCalls", *CROWDED_EXTRAS]
        directions = ["maximize", "minimize", "maximize", "minimize", "minimize", "maximize"]
        overrides = {
            "qos": {
                "attributes": [
                    {"name": n, "direction": d, "weight": w / total}
                    for n, d, w in zip(names, directions, weights)
                ],
                "n_gaps": CROWDED_GAPS,
                "stability_weight": round(rng.uniform(0.3, 0.9), 3),
            },
            "functional_weight": round(rng.uniform(0.2, 0.8), 3),
        }
        case = _write_case(directory, f"crowded{i:02d}", process, overrides)
        case.built_to_pass["task1"] = passing[market]
        cases.append(case)
    return registry, lexicon, cases


def _writes(rng: random.Random, registry: ServiceRegistry, count: int) -> list[SnapshotWrite]:
    """count snapshot writes, round-robin over fixed targets, timestamps rising."""
    ops = [(service, op) for _, service in registry.iter_services() for op in service.operations]
    targets = rng.sample(ops, WRITE_TARGETS)
    start = EPOCH + timedelta(days=3650)  # after every generated history
    writes = []
    for k in range(count):
        service, op = targets[k % len(targets)]
        stamp = start + timedelta(hours=k)
        writes.append(SnapshotWrite(
            service.service_key, op.name, stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
            round(rng.uniform(0.5, 1.0), 6), round(rng.uniform(50.0, 500.0), 3), rng.randint(0, 1000),
        ))
    return writes


BUILDERS = {"serve-broad": _broad, "serve-crowded": _crowded}
WRITE_TARGETS = 8
# Enough snapshot writes for the longest run; a run takes them in order.
MAX_WRITES = 500


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    """Write one workload's inputs into directory and describe them."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    registry, lexicon, cases = BUILDERS[workload](rng, directory)
    registry_path = directory / "registry.json"
    save_registry(registry, registry_path)
    lexicon_path = None
    if lexicon:
        lexicon_path = directory / "lexicon.json"
        lexicon_path.write_text(json.dumps(lexicon, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    order = list(range(len(cases)))
    rng.shuffle(order)
    inputs = Inputs(workload, seed, directory, registry_path, lexicon_path, cases, order)
    inputs.writes = _writes(rng, registry, MAX_WRITES)
    inputs.validate_path = directory / "validate.bpmn"
    one_task = _process("validate", [(_params(rng, 1), _params(rng, 1), {CONTEXTS[0]})])
    inputs.validate_path.write_text(process_to_xml(one_task), encoding="utf-8")
    return inputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed, args.out)
    print(f"{inputs.workload} seed {inputs.seed}: {len(inputs.cases)} processes, "
          f"registry {inputs.registry_path.stat().st_size / 1e6:.1f} MB in {inputs.directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

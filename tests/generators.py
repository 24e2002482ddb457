"""Seeded random fixture builders plus the brute-force selection oracle."""

from __future__ import annotations

import copy
import json
import math
import random
from bisect import bisect_left
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from operator import attrgetter
from xml.sax.saxutils import escape, quoteattr

from procsel.bpmn import (
    BPMN_NS,
    AssociationEdge,
    BusinessProcess,
    ServiceTaskNode,
    TaskRequirement,
    TextAnnotationNode,
    bind_requirements,
)
from procsel.config import AppConfig, config_echo
from procsel.functional import match_context, score_functional
from procsel.qos import AttributeSpec, QosConfig, normalize_pool, score_pool
from procsel.ranking import (
    NO_CONTEXT_MATCH,
    NO_GATED_OPERATION,
    Candidate,
    SelectionReport,
    TaskSelection,
    global_score,
    missing_attribute_diagnostics,
)
from procsel.errors import RegistryError
from procsel.lexicon import SynonymLexicon, extract_keywords
from procsel.registry import (
    MAX_QOS_MAGNITUDE,
    Operation,
    Parameter,
    QosSnapshot,
    ServiceCategory,
    ServiceRegistry,
    WebService,
    append_snapshot,
    format_timestamp,
    load_registry,
    normalize_datatype,
    save_registry,
    snapshot_log_path,
    snapshot_to_dict,
)

WORDS = [
    "account", "address", "amount", "balance", "booking", "city", "code",
    "content", "currency", "customer", "date", "email", "flight", "hotel",
    "invoice", "item", "message", "night", "order", "passenger", "payment",
    "person", "price", "product", "quantity", "rate", "receiver", "reply",
    "reservation", "room", "sender", "session", "status", "stock", "ticket",
    "token", "total", "user", "vendor", "zone",
]
DATATYPES = ["string", "integer", "boolean", "double"]
CONTEXTS = [
    "authentication", "billing", "bookings", "communication", "inventory",
    "logistics", "payments", "reporting", "search", "shipping",
]
EXTRA_QOS_ATTRS = ["latency", "throughput", "cost", "errorrate"]
EPOCH = datetime(2014, 1, 14, tzinfo=timezone.utc)


def make_snapshot(rng: random.Random, when: datetime, attrs: list[str] | None = None) -> QosSnapshot:
    extra = {name: rng.uniform(-100.0, 100.0) for name in (attrs or [])}
    return QosSnapshot(
        timestamp=when,
        availability=rng.uniform(0.5, 1.0),
        execution_time_ms=rng.uniform(50.0, 500.0),
        total_calls=rng.randint(0, 1000),
        extra=extra,
    )


def gen_operation(rng: random.Random, name: str, max_history: int = 4) -> Operation:
    inputs = tuple(Parameter(rng.choice(WORDS), rng.choice(DATATYPES)) for _ in range(rng.randint(0, 3)))
    outputs = tuple(Parameter(rng.choice(WORDS), rng.choice(DATATYPES)) for _ in range(rng.randint(1, 2)))
    history = tuple(
        make_snapshot(rng, EPOCH + timedelta(days=30 * k))
        for k in range(rng.randint(0, max_history))
    )
    return Operation(name=name, inputs=inputs, outputs=outputs, qos_history=history)


def gen_registry(
    rng: random.Random,
    max_categories: int = 3,
    max_services: int = 3,
    max_operations: int = 3,
) -> ServiceRegistry:
    counter = 0
    categories = []
    for context in rng.sample(CONTEXTS, rng.randint(1, max_categories)):
        keywords = {context} | set(rng.sample(WORDS, rng.randint(1, 3)))
        services = []
        for _ in range(rng.randint(1, max_services)):
            counter += 1
            operations = [gen_operation(rng, f"op{j}") for j in range(rng.randint(1, max_operations))]
            services.append(
                WebService(
                    name=f"service{counter}",
                    business_name="generated",
                    business_key=f"bk{counter}",
                    service_key=f"ws.gen.{counter:04d}",
                    url="",
                    version="1.0",
                    operations=operations,
                )
            )
        categories.append(ServiceCategory(name=context, keywords=keywords, services=services))
    return ServiceRegistry(categories=categories)


def annotation_text(inputs: list[Parameter], outputs: list[Parameter], context: set[str]) -> str:
    lines = []
    if inputs:
        lines.append("input: " + ", ".join(f"{p.name}={p.datatype}" for p in inputs))
    lines.append("output: " + ", ".join(f"{p.name}={p.datatype}" for p in outputs))
    lines.append("context: " + ", ".join(sorted(context)))
    return "\n".join(lines)


def gen_process(
    rng: random.Random,
    registry: ServiceRegistry,
    n_tasks: int | None = None,
    match_probability: float = 0.85,
    mirror_probability: float = 0.6,
) -> BusinessProcess:
    """A process whose tasks usually hit a category and often mirror an op."""
    all_ops = [op for cat in registry.categories for svc in cat.services for op in svc.operations]
    n = n_tasks if n_tasks is not None else rng.randint(1, 3)
    process = BusinessProcess(id=f"proc{rng.randrange(10 ** 6)}")
    previous = "start"
    for i in range(1, n + 1):
        task_id, ann_id = f"task{i}", f"ann{i}"
        if registry.categories and rng.random() < match_probability:
            category = rng.choice(registry.categories)
            context = set(rng.sample(sorted(category.keywords), 1))
        else:
            context = {"zzznomatch"}
        if all_ops and rng.random() < mirror_probability:
            source = rng.choice(all_ops)
            inputs = [Parameter(p.name, p.datatype) for p in source.inputs]
            outputs = [Parameter(p.name, p.datatype) for p in source.outputs]
        else:
            inputs = [Parameter(rng.choice(WORDS), rng.choice(DATATYPES)) for _ in range(rng.randint(0, 3))]
            outputs = [Parameter(rng.choice(WORDS), rng.choice(DATATYPES)) for _ in range(rng.randint(1, 2))]
        process.tasks.append(ServiceTaskNode(id=task_id, display_name=f"Task {i}"))
        process.annotations.append(TextAnnotationNode(id=ann_id, raw_text=annotation_text(inputs, outputs, context)))
        if rng.random() < 0.5:
            process.associations.append(AssociationEdge(f"assoc{i}", task_id, ann_id))
        else:
            process.associations.append(AssociationEdge(f"assoc{i}", ann_id, task_id))
        process.flows.append((previous, task_id))
        previous = task_id
    return process


def process_to_xml(process: BusinessProcess) -> str:
    """Emit a BPMN document that parse_bpmn reads back identically."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<definitions xmlns="{BPMN_NS}" targetNamespace="http://example.com/generated">',
        f"  <process id={quoteattr(process.id)}>",
        '    <startEvent id="start"/>',
    ]
    for task in process.tasks:
        lines.append(f"    <serviceTask id={quoteattr(task.id)} name={quoteattr(task.display_name)}/>")
    for ann in process.annotations:
        lines.append(f"    <textAnnotation id={quoteattr(ann.id)}><text>{escape(ann.raw_text)}</text></textAnnotation>")
    for edge in process.associations:
        lines.append(
            f"    <association id={quoteattr(edge.id)} sourceRef={quoteattr(edge.source_id)} "
            f"targetRef={quoteattr(edge.target_id)}/>"
        )
    for i, (source, target) in enumerate(process.flows, start=1):
        lines.append(
            f'    <sequenceFlow id="genflow{i}" sourceRef={quoteattr(source)} targetRef={quoteattr(target)}/>'
        )
    lines.extend(["  </process>", "</definitions>", ""])
    return "\n".join(lines)


def service_to_wsdl(service: WebService) -> str:
    """Emit a WSDL 1.1 document of `service`: one message per operation input
    and output, one portType, and a SOAP address from its url. import_wsdl
    reads it back with the same name, url, operations and parameters."""
    wsdl, soap = "http://schemas.xmlsoap.org/wsdl/", "http://schemas.xmlsoap.org/wsdl/soap/"
    lines = [f'<definitions xmlns="{wsdl}" xmlns:soap="{soap}" xmlns:tns="urn:generated">']
    for i, operation in enumerate(service.operations):
        for kind, parameters in (("input", operation.inputs), ("output", operation.outputs)):
            lines.append(f'  <message name="{kind}{i}">')
            lines.extend(f"    <part name={quoteattr(p.name)} type={quoteattr(p.datatype)}/>" for p in parameters)
            lines.append("  </message>")
    lines.append('  <portType name="generated">')
    for i, operation in enumerate(service.operations):
        lines.append(
            f'    <operation name={quoteattr(operation.name)}><input message="tns:input{i}"/>'
            f'<output message="tns:output{i}"/></operation>'
        )
    lines.extend([
        "  </portType>",
        f"  <service name={quoteattr(service.name)}>",
        f'    <port name="port" binding="tns:binding"><soap:address location={quoteattr(service.url)}/></port>',
        "  </service>",
        "</definitions>",
        "",
    ])
    return "\n".join(lines)


# --- six-case functional fixtures -------------------------------------------

def gen_case_fixture(rng: random.Random, case: int) -> tuple[TaskRequirement, Operation]:
    """A (requirement, operation) pair in taxonomy case 1..6.

    All parameters present on both sides match exactly (same names, same
    datatypes); count mismatches come from extra parameters with fresh
    names, so the matched count always equals min(count, count).
    """
    names = rng.sample(WORDS, 14)

    def take(n: int) -> list[Parameter]:
        return [Parameter(names.pop(), rng.choice(DATATYPES)) for _ in range(n)]

    shared_in = take(rng.randint(0, 3))
    shared_out = take(rng.randint(1, 3))
    user_in, op_in = list(shared_in), list(shared_in)
    user_out, op_out = list(shared_out), list(shared_out)
    if case in (2, 4, 6):  # input counts differ, either direction
        if rng.random() < 0.5:
            user_in = user_in + take(rng.randint(1, 2))
        else:
            op_in = op_in + take(rng.randint(1, 2))
    if case in (3, 4):  # op offers extra outputs
        op_out = op_out + take(rng.randint(1, 2))
    if case in (5, 6):  # op covers fewer outputs than requested
        user_out = user_out + take(rng.randint(1, 2))
    requirement = TaskRequirement("task", "task", user_in, user_out, {"ctx"})
    return requirement, Operation("op", tuple(op_in), tuple(op_out))


# --- QoS pool fixtures -------------------------------------------------------

def gen_qos_pool(rng: random.Random) -> tuple[list[Operation], QosConfig]:
    """A rated candidate pool and a matching random config (1-4 attributes)."""
    n_attributes = rng.randint(1, 4)
    names = rng.sample(["availability", "executionTimeMs", "totalCalls"] + EXTRA_QOS_ATTRS, n_attributes)
    raw_weights = [rng.uniform(0.05, 1.0) for _ in names]
    total = sum(raw_weights)
    specs = tuple(
        AttributeSpec(name, rng.choice(("maximize", "minimize")), w / total)
        for name, w in zip(names, raw_weights)
    )
    n_gaps = rng.randint(1, 4)
    config = QosConfig(
        attributes=specs,
        n_gaps=n_gaps,
        stability_weight=rng.uniform(0.1, 1.0),
        epsilon=1e-9,
    ).validate()

    extra_names = [n for n in names if n in EXTRA_QOS_ATTRS]
    candidates = []
    for i in range(rng.randint(2, 10)):
        history = tuple(
            make_snapshot(rng, EPOCH + timedelta(days=30 * k), extra_names)
            for k in range(rng.randint(1, n_gaps))
        )
        candidates.append(Operation(name=f"op{i}", outputs=(Parameter("out", "string"),), qos_history=history))
    return candidates, config


def snapshots_by_offset(candidates: list[Operation], n_gaps: int) -> dict[int, list[QosSnapshot]]:
    """Each offset back from the newest snapshot of the candidates' last n_gaps
    snapshots, mapped to the snapshots there in input order (the pool there)."""
    by_offset: dict[int, list[QosSnapshot]] = {}
    for op in candidates:
        for back, snapshot in enumerate(reversed(op.qos_history[-n_gaps:])):
            by_offset.setdefault(back, []).append(snapshot)
    return by_offset


# --- invariance transforms ---------------------------------------------------

def map_operations(registry: ServiceRegistry, rebuild) -> ServiceRegistry:
    """A new registry with each operation replaced by rebuild(service, operation).

    Operations are rebuilt in registry order. Categories, services and
    operations are frozen, so each category and service is rebuilt around
    its new members; `registry` is left as it was.
    """
    return ServiceRegistry([
        replace(category, services=[
            replace(service, operations=[rebuild(service, op) for op in service.operations])
            for service in category.services
        ])
        for category in registry.categories
    ])


def permute_registry(rng: random.Random, registry: ServiceRegistry) -> ServiceRegistry:
    clone = copy.deepcopy(registry)
    rng.shuffle(clone.categories)
    # Categories and services are frozen, so each is rebuilt around its
    # shuffled members.
    for position, category in enumerate(clone.categories):
        services = list(category.services)
        rng.shuffle(services)
        for k, service in enumerate(services):
            operations = list(service.operations)
            rng.shuffle(operations)
            services[k] = replace(service, operations=operations)
        clone.categories[position] = replace(category, services=services)
    return clone


def permute_parameters(rng: random.Random, registry: ServiceRegistry, process: BusinessProcess):
    """Shuffle parameter order everywhere; scores must not move."""

    def shuffled(parameters: tuple[Parameter, ...]) -> tuple[Parameter, ...]:
        parameters = list(parameters)
        rng.shuffle(parameters)
        return tuple(parameters)

    # Draws in registry order, inputs before outputs: the seeded checks
    # that use this (c09) depend on that order.
    reg_clone = map_operations(
        registry, lambda _, op: replace(op, inputs=shuffled(op.inputs), outputs=shuffled(op.outputs))
    )
    proc_clone = copy.deepcopy(process)
    requirements = {r.task_id: r for r in bind_requirements(process)}
    bound = {}
    for edge in proc_clone.associations:
        if edge.source_id in requirements:
            bound[edge.target_id] = requirements[edge.source_id]
        elif edge.target_id in requirements:
            bound[edge.source_id] = requirements[edge.target_id]
    for ann in proc_clone.annotations:
        requirement = bound[ann.id]
        inputs = list(requirement.inputs)
        outputs = list(requirement.outputs)
        rng.shuffle(inputs)
        rng.shuffle(outputs)
        ann.raw_text = annotation_text(inputs, outputs, requirement.context_keywords)
    return reg_clone, proc_clone


def substitute_synonyms(rng: random.Random, registry: ServiceRegistry):
    """Swap some registry parameter names for fresh synonyms.

    Returns (lexicon_entries, substituted_registry); running selection with
    a lexicon built from those entries must give identical reports for the
    original and the substituted registry.
    """
    entries = {word: [f"alt{word}"] for word in WORDS}

    def substitute(params: tuple[Parameter, ...]) -> tuple[Parameter, ...]:
        return tuple([
            replace(p, name=f"alt{p.name}") if p.name in entries and rng.random() < 0.5 else p
            for p in params
        ])

    # Draws in registry order, inputs before outputs, as the seeded
    # benchmark inputs depend on.
    return entries, map_operations(
        registry, lambda _, op: replace(op, inputs=substitute(op.inputs), outputs=substitute(op.outputs))
    )


# --- pairwise references -------------------------------------------------------

def pairwise_terms_match(a: str, b: str, lexicon: SynonymLexicon) -> bool:
    """The term relation by its definition: {a} | syn(a) meets {b} | syn(b)."""
    return not ({a} | lexicon.synonyms(a)).isdisjoint({b} | lexicon.synonyms(b))


def reference_change_series(uf_series: list[float], epsilon: float) -> list[float]:
    """qos.change_series as first written, clamping with nested min and max."""
    return [
        0.0 if abs(earlier) < epsilon else max(-1.0, min(1.0, (later - earlier) / abs(earlier)))
        for earlier, later in zip(uf_series, uf_series[1:])
    ]


# --- brute-force pipeline oracle ----------------------------------------------

def rank_candidates(candidates: list[Candidate]) -> list[Candidate]:
    """Sort built candidates by the documented rule and number them 1..k.

    The rule: global score descending, then functional total descending,
    then serviceKey ascending, then operation name ascending. Written here
    apart from the pipeline's sort, so the oracle checks the ordering too.
    """
    ordered = sorted(
        candidates,
        key=lambda c: (-c.global_score, -c.functional.total, c.service_key, c.operation_name),
    )
    return [replace(c, rank=position) for position, c in enumerate(ordered, start=1)]


def oracle_select(
    process: BusinessProcess,
    registry: ServiceRegistry,
    lexicon,
    config: AppConfig,
) -> SelectionReport:
    """Score every (task, operation) pair, then filter, then rank.

    The production pipeline short-circuits on the context filter and the
    functional gate; this oracle applies them as post-filters instead, so
    any behavioural difference in the short-circuiting shows up as a
    report mismatch.
    """
    tasks = []
    for requirement in bind_requirements(process):
        scored = []
        for category in registry.categories:
            context_ok = match_context(requirement, category, lexicon)
            for service in category.services:
                for op in service.operations:
                    fs = score_functional(requirement, op, lexicon, config.score_table)
                    scored.append((context_ok, service, op, fs))
        gated = [(svc, op, fs) for ok, svc, op, fs in scored if ok and fs.passed]
        diagnostics = []
        if not gated:
            if any(match_context(requirement, c, lexicon) for c in registry.categories):
                diagnostics.append(NO_GATED_OPERATION)
            else:
                diagnostics.append(NO_CONTEXT_MATCH)
        qos_scores = score_pool([op for _, op, _ in gated], config.qos)
        diagnostics.extend(missing_attribute_diagnostics(gated, qos_scores))
        fp_norms = normalize_pool([float(fs.total) for _, _, fs in gated], config.qos.epsilon)
        candidates = [
            Candidate(
                service_key=service.service_key,
                service_name=service.name,
                operation_name=op.name,
                functional=fs,
                qos=qos,
                fp_norm=fp_norm,
                global_score=global_score(fp_norm, qos.nfp, config.functional_weight),
            )
            for (service, op, fs), qos, fp_norm in zip(gated, qos_scores, fp_norms)
        ]
        tasks.append(TaskSelection(requirement, rank_candidates(candidates), diagnostics))
    return SelectionReport(process_id=process.id, tasks=tasks, config=config_echo(config))


# --- report writer oracle --------------------------------------------------------

def oracle_candidate_dict(candidate: Candidate) -> dict:
    fp = candidate.functional
    return {
        "rank": candidate.rank,
        "serviceKey": candidate.service_key,
        "serviceName": candidate.service_name,
        "operation": candidate.operation_name,
        "scores": {
            "fp": {
                "nbInput": fp.nb_input,
                "nbOutput": fp.nb_output,
                "strInputName": fp.str_input_name,
                "strOutputName": fp.str_output_name,
                "strInputDatatype": fp.str_input_datatype,
                "strOutputDatatype": fp.str_output_datatype,
                "total": fp.total,
                "minAcceptable": fp.min_acceptable,
            },
            "fpNorm": candidate.fp_norm,
            "uf_series": list(candidate.qos.uf_series),
            "changes": list(candidate.qos.changes),
            "score_ac": candidate.qos.aggregate_change,
            "uf_norm": candidate.qos.uf_latest_norm,
            "nfp": candidate.qos.nfp,
            "global": candidate.global_score,
        },
        "rated": candidate.qos.rated,
    }


def oracle_dict(report: SelectionReport) -> dict:
    """The report as nested dicts: serialize_report must write, byte for
    byte, json.dumps(oracle_dict(report), indent=2)."""
    return {
        "processId": report.process_id,
        "tasks": [
            {
                "taskId": task.requirement.task_id,
                "taskName": task.requirement.task_name,
                "candidates": [oracle_candidate_dict(c) for c in task.candidates],
                "diagnostics": list(task.diagnostics),
            }
            for task in report.tasks
        ],
        "config": report.config,
    }


# --- reference record readers ---------------------------------------------------
#
# The registry readers as they were before each became one inline-checked
# pass: a field at a time through _expect and _number, with each record's
# place worded up front. The loader must build an equal registry from any
# dict or log these accept, and raise the same RegistryError text for any
# they refuse.

def _ref_parse_timestamp(raw: str, context: str) -> datetime:
    try:
        parsed = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except (ValueError, TypeError) as exc:
        raise RegistryError(f"{context}: invalid ISO-8601 timestamp {raw!r}") from exc
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def _ref_expect(data: dict, key: str, kinds, path: str, default=None, required=True):
    if key not in data:
        if required:
            raise RegistryError(f"{path}: missing required field {key!r}")
        return default
    value = data[key]
    if kinds is not None and not isinstance(value, kinds):
        raise RegistryError(f"{path}: field {key!r} has wrong type")
    return value


def _ref_number(data: dict, key: str, path: str) -> float:
    value = _ref_expect(data, key, (int, float), path)
    if isinstance(value, bool):
        raise RegistryError(f"{path}: field {key!r} has wrong type")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _ref_check_snapshot(snapshot: QosSnapshot, path: str) -> QosSnapshot:
    if not 0.0 <= snapshot.availability <= 1.0:
        raise RegistryError(f"{path}: availability {snapshot.availability} outside [0, 1]")
    bound = MAX_QOS_MAGNITUDE
    if not 0.0 < snapshot.execution_time_ms <= bound:
        raise RegistryError(f"{path}: executionTimeMs must be positive and at most {bound:g}")
    if isinstance(snapshot.total_calls, bool) or not 0 <= snapshot.total_calls <= bound:
        raise RegistryError(f"{path}: totalCalls must be a non-negative integer at most {bound:g}")
    for name, value in snapshot.extra.items():
        if not -bound <= value <= bound:
            raise RegistryError(f"{path}: extra attribute {name!r} must be of magnitude at most {bound:g}")
    return snapshot


def _ref_record(history: list[QosSnapshot], snapshot: QosSnapshot, path: str) -> None:
    if history and snapshot.timestamp <= history[-1].timestamp:
        raise RegistryError(
            f"{path}: timestamps must be strictly increasing, and "
            f"{format_timestamp(snapshot.timestamp)} is not after {format_timestamp(history[-1].timestamp)}"
        )
    history.append(snapshot)


def _ref_snapshot(data: dict, path: str) -> QosSnapshot:
    if not isinstance(data, dict):
        raise RegistryError(f"{path}: snapshot must be an object")
    timestamp = _ref_parse_timestamp(_ref_expect(data, "timestamp", str, path), path)
    availability = _ref_number(data, "availability", path)
    execution_time_ms = _ref_number(data, "executionTimeMs", path)
    total_calls = _ref_expect(data, "totalCalls", int, path)
    extra = _ref_expect(data, "extra", dict, path, default={}, required=False)
    extra = {name: _ref_number(extra, name, f"{path}.extra") for name in extra}
    snapshot = QosSnapshot(timestamp, availability, execution_time_ms, total_calls, extra)
    return _ref_check_snapshot(snapshot, path)


def _ref_parameter(data: dict, path: str) -> Parameter:
    if not isinstance(data, dict):
        raise RegistryError(f"{path}: parameter must be an object")
    name = _ref_expect(data, "name", str, path)
    if not name.strip():
        raise RegistryError(f"{path}: parameter name is empty")
    datatype = normalize_datatype(_ref_expect(data, "datatype", str, path))
    if not datatype:
        raise RegistryError(f"{path}: parameter {name!r} has an empty datatype")
    return Parameter(name=name, datatype=datatype)


def _ref_operation(data: dict, path: str) -> Operation:
    if not isinstance(data, dict):
        raise RegistryError(f"{path}: operation must be an object")
    name = _ref_expect(data, "name", str, path)
    if not name.strip():
        raise RegistryError(f"{path}: operation name is empty")
    inputs = [
        _ref_parameter(p, f"{path}.inputs[{i}]")
        for i, p in enumerate(_ref_expect(data, "inputs", list, path, default=[], required=False))
    ]
    outputs = [
        _ref_parameter(p, f"{path}.outputs[{i}]")
        for i, p in enumerate(_ref_expect(data, "outputs", list, path, default=[], required=False))
    ]
    history: list[QosSnapshot] = []
    for i, s in enumerate(_ref_expect(data, "qos", list, path, default=[], required=False)):
        where = f"{path}.qos[{i}]"
        _ref_record(history, _ref_snapshot(s, where), where)
    return Operation(name=name, inputs=tuple(inputs), outputs=tuple(outputs), qos_history=tuple(history))


def _ref_keywords(raw: list, path: str) -> set[str]:
    keywords: set[str] = set()
    for entry in raw:
        if not isinstance(entry, str):
            raise RegistryError(f"{path}: keywords must be strings")
        keywords.update(extract_keywords(entry))
    if not keywords:
        raise RegistryError(f"{path}: keywords are empty after normalization")
    return keywords


def _ref_service(data: dict, path: str) -> WebService:
    if not isinstance(data, dict):
        raise RegistryError(f"{path}: service must be an object")
    service_key = _ref_expect(data, "serviceKey", str, path)
    if not service_key:
        raise RegistryError(f"{path}: serviceKey is empty")
    operations = [
        _ref_operation(o, f"{path}.operations[{i}]")
        for i, o in enumerate(_ref_expect(data, "operations", list, path))
    ]
    if not operations:
        raise RegistryError(f"{path}: service {service_key!r} has no operations")
    seen_ops: set[str] = set()
    for operation in operations:
        if operation.name in seen_ops:
            raise RegistryError(f"{path}: duplicate operation name {operation.name!r}")
        seen_ops.add(operation.name)
    return WebService(
        name=_ref_expect(data, "name", str, path),
        business_name=_ref_expect(data, "businessName", str, path, default="", required=False),
        business_key=_ref_expect(data, "businessKey", str, path, default="", required=False),
        service_key=service_key,
        url=_ref_expect(data, "url", str, path, default="", required=False),
        version=_ref_expect(data, "version", str, path, default="", required=False),
        operations=operations,
        security_note=_ref_expect(data, "securityNote", str, path, default=None, required=False),
    )


def reference_registry_from_dict(data, source: str = "registry") -> ServiceRegistry:
    if not isinstance(data, dict):
        raise RegistryError(f"{source}: top level must be an object")
    categories = []
    for i, cat in enumerate(_ref_expect(data, "categories", list, source)):
        path = f"{source}: categories[{i}]"
        if not isinstance(cat, dict):
            raise RegistryError(f"{path}: category must be an object")
        services = [
            _ref_service(s, f"{path}.services[{j}]")
            for j, s in enumerate(_ref_expect(cat, "services", list, path, default=[], required=False))
        ]
        categories.append(
            ServiceCategory(
                name=_ref_expect(cat, "name", str, path),
                keywords=_ref_keywords(_ref_expect(cat, "keywords", list, path), path),
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


def reference_replay(registry: ServiceRegistry, log: bytes, log_path) -> tuple[ServiceRegistry, int]:
    """The log replay as it was, on a list per operation. It let a
    RecursionError out of a line nested too deeply for the decoder, so the
    property gives it none. Returns the replayed registry, a new one, and
    the number of lines skipped as already recorded."""
    try:
        lines = log.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        number = log.count(b"\n", 0, exc.start) + 1
        raise RegistryError(f"{log_path}: line {number}: not UTF-8 text") from None
    skipped = 0
    histories = {
        (service.service_key, operation.name): list(operation.qos_history)
        for _, service in registry.iter_services()
        for operation in service.operations
    }
    for number, line in enumerate(lines, start=1):
        where = f"{log_path}: line {number}"
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise RegistryError(f"{where}: not a JSON line: {exc}") from None
        if not isinstance(data, dict):
            raise RegistryError(f"{where}: snapshot must be an object")
        service_key = _ref_expect(data, "serviceKey", str, where)
        name = _ref_expect(data, "operation", str, where)
        snapshot = _ref_snapshot(data, where)
        try:
            history = histories.get((service_key, name))
            if history is None:
                registry.find_service(service_key)
                raise RegistryError(f"service {service_key!r} has no operation {name!r}")
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
            _ref_record(history, snapshot, f"{service_key}/{name}")
        except RegistryError as exc:
            raise RegistryError(f"{where}: {exc}") from None
    replayed = map_operations(registry, lambda service, op: replace(
        op, qos_history=tuple(histories[service.service_key, op.name])
    ))
    return replayed, skipped


def reference_record_snapshot(path, service_key: str, operation_name: str, snapshot: QosSnapshot) -> None:
    """The snapshot write as it was: load the whole registry and append_snapshot
    to it, then append the line, cutting off a torn final one, or fold once the
    log would reach a quarter of the file or holds a line that its replay skips
    as already recorded (left by a fold that was cut off). Unlocked, and the
    log must exist."""
    registry = load_registry(path)
    append_snapshot(registry, service_key, operation_name, snapshot)
    line = json.dumps(
        {"serviceKey": service_key, "operation": operation_name, **snapshot_to_dict(snapshot)},
        separators=(",", ":"),
    ).encode("ascii") + b"\n"
    log = snapshot_log_path(path)
    held = log.read_bytes()
    kept = held.rfind(b"\n") + 1
    file_only = reference_registry_from_dict(json.loads(path.read_bytes()), str(path))
    if reference_replay(file_only, held, log)[1] or 4 * (kept + len(line)) >= path.stat().st_size:
        save_registry(registry, path)
    else:
        log.write_bytes(held[:kept] + line)

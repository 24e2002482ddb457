"""BPMN 2.0 ingestion: service tasks, text annotations and associations.

Only the subset the selection pipeline consumes is parsed. Sequence flows
are recorded as (source, target) id pairs but never interpreted; gateways,
events and every other BPMN construct are ignored without error. Each
service task must be associated (in either direction) with exactly one
text annotation whose content follows the line grammar::

    input: name=datatype, name=datatype
    output: name=datatype
    context: keyword, keyword

The input line is optional, output and context are mandatory. Repeated
keys merge in order.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .errors import AnnotationError, BpmnError
from .lexicon import extract_keywords
from .registry import Parameter, normalize_datatype

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"


@dataclass
class ServiceTaskNode:
    id: str
    display_name: str


@dataclass
class TextAnnotationNode:
    id: str
    raw_text: str


@dataclass
class AssociationEdge:
    id: str
    source_id: str
    target_id: str


@dataclass
class BusinessProcess:
    id: str
    tasks: list[ServiceTaskNode] = field(default_factory=list)
    annotations: list[TextAnnotationNode] = field(default_factory=list)
    associations: list[AssociationEdge] = field(default_factory=list)
    flows: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class TaskRequirement:
    task_id: str
    task_name: str
    inputs: list[Parameter]
    outputs: list[Parameter]
    context_keywords: set[str]


def _tag(name: str) -> str:
    return f"{{{BPMN_NS}}}{name}"


def parse_bpmn(xml_text: str) -> BusinessProcess:
    """Parse the first process element of a BPMN 2.0 document."""
    try:
        root = ET.fromstring(xml_text)
    except (ET.ParseError, UnicodeEncodeError) as exc:  # the latter: a lone surrogate
        raise BpmnError(f"malformed XML: {exc}") from exc

    if root.tag == _tag("process"):
        process_el = root
    else:
        process_el = root.find(f".//{_tag('process')}")
        if process_el is None:
            raise BpmnError("document contains no BPMN process element")

    known_ids: set[str] = set()
    for element in process_el.iter():
        element_id = element.get("id")
        if element_id is None:
            continue
        if element_id in known_ids:
            raise BpmnError(f"duplicate node id {element_id!r}")
        known_ids.add(element_id)

    process = BusinessProcess(id=process_el.get("id", ""))
    for element in process_el.iter():
        if element.tag == _tag("serviceTask"):
            task_id = element.get("id", "")
            if not task_id:
                raise BpmnError("serviceTask without an id")
            process.tasks.append(
                ServiceTaskNode(id=task_id, display_name=element.get("name", task_id))
            )
        elif element.tag == _tag("textAnnotation"):
            ann_id = element.get("id", "")
            if not ann_id:
                raise BpmnError("textAnnotation without an id")
            text_el = element.find(_tag("text"))
            process.annotations.append(
                TextAnnotationNode(id=ann_id, raw_text=(text_el.text or "") if text_el is not None else "")
            )
        elif element.tag == _tag("association"):
            source = element.get("sourceRef", "")
            target = element.get("targetRef", "")
            for ref in (source, target):
                if ref not in known_ids:
                    raise BpmnError(
                        f"association {element.get('id', '?')!r} references unknown id {ref!r}"
                    )
            process.associations.append(
                AssociationEdge(id=element.get("id", ""), source_id=source, target_id=target)
            )
        elif element.tag == _tag("sequenceFlow"):
            process.flows.append((element.get("sourceRef", ""), element.get("targetRef", "")))
    return process


def parse_annotation(raw: str) -> tuple[list[Parameter], list[Parameter], set[str]]:
    """Parse annotation text into (inputs, outputs, context keywords)."""
    inputs: list[Parameter] = []
    outputs: list[Parameter] = []
    context: set[str] = set()
    seen_output = seen_context = False

    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        key, sep, rest = stripped.partition(":")
        keyword = key.strip().lower()
        if not sep or keyword not in ("input", "output", "context"):
            raise AnnotationError(
                f"line {lineno}: expected 'input:', 'output:' or 'context:', got {stripped!r}"
            )
        items = [item.strip() for item in rest.split(",")]
        items = [item for item in items if item]
        if keyword == "context":
            seen_context = True
            for item in items:
                context.update(extract_keywords(item))
            continue
        seen_output = seen_output or keyword == "output"
        for item in items:
            name, eq, datatype_raw = item.partition("=")
            name = name.strip()
            datatype = normalize_datatype(datatype_raw)
            if not eq or not name or not datatype:
                raise AnnotationError(
                    f"line {lineno}: expected name=datatype, got {item!r}"
                )
            target = inputs if keyword == "input" else outputs
            target.append(Parameter(name=name, datatype=datatype))

    if not seen_output:
        raise AnnotationError("missing 'output:' line")
    if not outputs:
        raise AnnotationError("'output:' line lists no parameters")
    if not seen_context:
        raise AnnotationError("missing 'context:' line")
    if not context:
        raise AnnotationError("'context:' line yields no keywords after normalization")
    return inputs, outputs, context


def bind_requirements(process: BusinessProcess) -> list[TaskRequirement]:
    """Attach each service task to its annotation, in document order.

    Associations are accepted in either direction. A task with no
    annotation or with more than one is an error; associations that do not
    link a task to an annotation are ignored.
    """
    annotations = {a.id: a for a in process.annotations}
    task_ids = {t.id for t in process.tasks}
    bound: dict[str, dict[str, TextAnnotationNode]] = {t.id: {} for t in process.tasks}
    for edge in process.associations:
        if edge.source_id in task_ids and edge.target_id in annotations:
            bound[edge.source_id][edge.target_id] = annotations[edge.target_id]
        elif edge.target_id in task_ids and edge.source_id in annotations:
            bound[edge.target_id][edge.source_id] = annotations[edge.source_id]

    unbound = [t.id for t in process.tasks if not bound[t.id]]
    if unbound:
        raise BpmnError(
            "service tasks without an associated annotation: " + ", ".join(unbound)
        )
    ambiguous = [t.id for t in process.tasks if len(bound[t.id]) > 1]
    if ambiguous:
        raise BpmnError(
            "service tasks with more than one associated annotation: " + ", ".join(ambiguous)
        )

    requirements = []
    for task in process.tasks:
        annotation = next(iter(bound[task.id].values()))
        try:
            inputs, outputs, context = parse_annotation(annotation.raw_text)
        except AnnotationError as exc:
            raise AnnotationError(
                f"annotation {annotation.id!r} for task {task.id!r}: {exc}"
            ) from exc
        requirements.append(
            TaskRequirement(
                task_id=task.id,
                task_name=task.display_name,
                inputs=inputs,
                outputs=outputs,
                context_keywords=context,
            )
        )
    return requirements

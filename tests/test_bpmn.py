from __future__ import annotations

import pytest

from procsel import parse_bpmn
from procsel.bpmn import bind_requirements, parse_annotation
from procsel.errors import AnnotationError, BpmnError

from conftest import SENDMAIL_BPMN

NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"


def _wrap(body: str, process_id: str = "p1") -> str:
    return (
        f'<definitions xmlns="{NS}" targetNamespace="http://example.com/t">'
        f'<process id="{process_id}">{body}</process></definitions>'
    )


def test_parse_sendmail_counts(sendmail_process):
    assert sendmail_process.id == "sendEmailProcess"
    assert [t.id for t in sendmail_process.tasks] == ["servicetask1", "servicetask2"]
    assert len(sendmail_process.annotations) == 2
    assert len(sendmail_process.associations) == 2
    assert len(sendmail_process.flows) == 3


def test_parse_without_service_tasks():
    process = parse_bpmn(_wrap('<startEvent id="s"/><endEvent id="e"/>'))
    assert process.tasks == []
    assert process.annotations == []


def test_dangling_association_names_the_id():
    xml = _wrap(
        '<serviceTask id="t1"/>'
        '<association id="a1" sourceRef="t1" targetRef="ghost99"/>'
    )
    with pytest.raises(BpmnError, match="ghost99"):
        parse_bpmn(xml)


def test_duplicate_id_rejected():
    xml = _wrap('<serviceTask id="t1"/><serviceTask id="t1"/>')
    with pytest.raises(BpmnError, match="duplicate"):
        parse_bpmn(xml)


def test_malformed_xml_rejected():
    with pytest.raises(BpmnError, match="malformed"):
        parse_bpmn("<definitions>")


@pytest.mark.parametrize(
    "text", ["<a>\ud800</a>", _wrap('<serviceTask id="t\udfff"/>'), "\udc80"]
)
def test_lone_surrogate_is_malformed_xml(text):
    # valid in a JSON string, but not encodable, so the XML parser raises
    # UnicodeEncodeError before it reads a byte
    with pytest.raises(BpmnError, match="^malformed XML: .*surrogates not allowed"):
        parse_bpmn(text)


@pytest.mark.parametrize("element, message", [
    ('<serviceTask name="T"/>', "serviceTask without an id"),
    ('<serviceTask id="" name="T"/>', "serviceTask without an id"),
    ("<textAnnotation><text>context: email</text></textAnnotation>", "textAnnotation without an id"),
])
def test_a_task_or_annotation_without_an_id_is_refused(element, message):
    with pytest.raises(BpmnError) as excinfo:
        parse_bpmn(_wrap(element))
    assert str(excinfo.value) == message


def test_a_process_as_the_root_element_parses_as_one_inside_definitions():
    body = (
        '<serviceTask id="t1" name="T"/>'
        '<textAnnotation id="a1"><text>output: reply=boolean\ncontext: email</text></textAnnotation>'
        '<association id="x1" sourceRef="t1" targetRef="a1"/>'
    )
    process = parse_bpmn(f'<process xmlns="{NS}" id="p1">{body}</process>')
    assert process == parse_bpmn(_wrap(body))
    assert [t.id for t in process.tasks] == ["t1"]


def test_no_process_element_rejected():
    with pytest.raises(BpmnError, match="no BPMN process"):
        parse_bpmn(f'<definitions xmlns="{NS}"/>')


def test_unknown_elements_are_ignored():
    plain = parse_bpmn(SENDMAIL_BPMN.read_text(encoding="utf-8"))
    enriched = SENDMAIL_BPMN.read_text(encoding="utf-8").replace(
        "<endEvent id=\"endevent1\"/>",
        '<endEvent id="endevent1"/><exclusiveGateway id="gw1"/>'
        '<userTask id="manual1" name="review"/><dataObject id="do1"/>',
    )
    extended = parse_bpmn(enriched)
    assert extended.tasks == plain.tasks
    assert extended.annotations == plain.annotations
    assert extended.associations == plain.associations
    assert extended.flows == plain.flows


# --- annotation grammar -------------------------------------------------------

def test_parse_annotation_full():
    inputs, outputs, context = parse_annotation(
        "input: username=string, password=string\n"
        "output: authentication=boolean\n"
        "context: authentication, login"
    )
    assert [(p.name, p.datatype) for p in inputs] == [
        ("username", "string"),
        ("password", "string"),
    ]
    assert [(p.name, p.datatype) for p in outputs] == [("authentication", "boolean")]
    assert context == {"authentication", "login"}


def test_parse_annotation_input_line_optional():
    inputs, outputs, context = parse_annotation("output: reply=boolean\ncontext: email")
    assert inputs == []
    assert len(outputs) == 1
    assert context == {"email"}


def test_parse_annotation_missing_output():
    with pytest.raises(AnnotationError, match="output"):
        parse_annotation("input: customer=string\ncontext: billing")


@pytest.mark.parametrize("line", ["output:", "output: , ,"])
def test_parse_annotation_output_line_without_parameters(line):
    with pytest.raises(AnnotationError) as excinfo:
        parse_annotation(f"{line}\ncontext: email")
    assert str(excinfo.value) == "'output:' line lists no parameters"


def test_parse_annotation_missing_context():
    with pytest.raises(AnnotationError, match="context"):
        parse_annotation("output: reply=boolean")


def test_parse_annotation_unknown_key_reports_line():
    with pytest.raises(AnnotationError, match="line 2"):
        parse_annotation("output: reply=boolean\nooutput: x=string\ncontext: email")


def test_parse_annotation_bad_parameter_reports_line():
    with pytest.raises(AnnotationError, match="line 1"):
        parse_annotation("output: reply boolean\ncontext: email")


def test_parse_annotation_datatypes_normalized():
    _, outputs, _ = parse_annotation("output: count=xsd:int\ncontext: stock")
    assert outputs[0].datatype == "integer"


def test_parse_annotation_repeated_keys_merge_in_order():
    inputs, outputs, context = parse_annotation(
        "input: sender=string\n"
        "output: reply=boolean\n"
        "input: receiver=string\n"
        "context: email\n"
        "context: message"
    )
    assert [p.name for p in inputs] == ["sender", "receiver"]
    assert [p.name for p in outputs] == ["reply"]
    assert context == {"email", "message"}


def test_parse_annotation_keys_case_insensitive():
    inputs, outputs, context = parse_annotation(
        "Input: customer=string\nOUTPUT: status=boolean\nContext: billing"
    )
    assert len(inputs) == 1 and len(outputs) == 1 and context == {"billing"}


def test_parse_annotation_context_of_stopwords_rejected():
    with pytest.raises(AnnotationError, match="context"):
        parse_annotation("output: reply=boolean\ncontext: the, of")


def test_parse_annotation_tolerates_odd_whitespace():
    inputs, outputs, context = parse_annotation(
        "  INPUT :  customer = string ,, vendor=integer  \n\n"
        "output:status = boolean\n"
        "  context :  billing  "
    )
    assert [(p.name, p.datatype) for p in inputs] == [("customer", "string"), ("vendor", "integer")]
    assert [(p.name, p.datatype) for p in outputs] == [("status", "boolean")]
    assert context == {"billing"}


# --- binding -------------------------------------------------------------------

def test_bind_sendmail(sendmail_process):
    requirements = bind_requirements(sendmail_process)
    assert [r.task_id for r in requirements] == ["servicetask1", "servicetask2"]
    first = requirements[0]
    assert [(p.name, p.datatype) for p in first.outputs] == [("authentication", "boolean")]
    assert first.context_keywords == {"authentication", "login"}


def test_bind_accepts_both_association_directions():
    annotation = "<text>output: reply=boolean\ncontext: email</text>"
    forward = _wrap(
        f'<serviceTask id="t1" name="T"/><textAnnotation id="a1">{annotation}</textAnnotation>'
        '<association id="x" sourceRef="t1" targetRef="a1"/>'
    )
    reverse = _wrap(
        f'<serviceTask id="t1" name="T"/><textAnnotation id="a1">{annotation}</textAnnotation>'
        '<association id="x" sourceRef="a1" targetRef="t1"/>'
    )
    assert bind_requirements(parse_bpmn(forward)) == bind_requirements(parse_bpmn(reverse))


def test_bind_lists_all_unbound_tasks():
    xml = _wrap('<serviceTask id="t1"/><serviceTask id="t2"/>')
    with pytest.raises(BpmnError) as excinfo:
        bind_requirements(parse_bpmn(xml))
    assert "t1" in str(excinfo.value) and "t2" in str(excinfo.value)


def test_bind_rejects_ambiguous_task():
    xml = _wrap(
        '<serviceTask id="t1"/>'
        '<textAnnotation id="a1"><text>output: reply=boolean\ncontext: email</text></textAnnotation>'
        '<textAnnotation id="a2"><text>output: reply=boolean\ncontext: email</text></textAnnotation>'
        '<association id="x1" sourceRef="t1" targetRef="a1"/>'
        '<association id="x2" sourceRef="t1" targetRef="a2"/>'
    )
    with pytest.raises(BpmnError, match="more than one"):
        bind_requirements(parse_bpmn(xml))


def test_bind_wraps_annotation_errors_with_context():
    xml = _wrap(
        '<serviceTask id="t1"/>'
        '<textAnnotation id="a1"><text>context: email</text></textAnnotation>'
        '<association id="x1" sourceRef="t1" targetRef="a1"/>'
    )
    with pytest.raises(AnnotationError, match="'a1' for task 't1'"):
        bind_requirements(parse_bpmn(xml))

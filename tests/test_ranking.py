from __future__ import annotations

import copy
import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from procsel import DEFAULT_CONFIG, select_for_process, serialize_report
from procsel.bpmn import TaskRequirement
from procsel.config import AppConfig, config_echo, config_from_dict
from procsel.errors import ConfigError, ReportError
from procsel.functional import FunctionalScore
from procsel.lexicon import EMPTY_LEXICON, SynonymLexicon
from procsel.qos import AttributeSpec, QosConfig, QosScores, UNRATED
from procsel.ranking import (
    Candidate,
    NO_CONTEXT_MATCH,
    NO_GATED_OPERATION,
    SelectionReport,
    TaskSelection,
    explain,
    global_score,
)

from generators import (
    EPOCH,
    EXTRA_QOS_ATTRS,
    gen_process,
    gen_registry,
    make_snapshot,
    map_operations,
    oracle_dict,
    oracle_select,
    permute_parameters,
    permute_registry,
    rank_candidates,
    substitute_synonyms,
)


def _fp(total, min_acceptable=10):
    return FunctionalScore(3, 3, 2, 2, 2, 2, total, min_acceptable, total >= min_acceptable)


def _cand(key, op, score, total=18, nfp=0.0, rated=True):
    qos = QosScores((), (), 0.0, 0.0, nfp, rated) if rated else UNRATED
    return Candidate(key, f"svc-{key}", op, _fp(total), qos, 0.0, score)


def test_global_score_blend():
    assert global_score(1.0, 0.7, 0.5) == pytest.approx(0.85, abs=1e-15)


def test_global_score_boundaries():
    assert global_score(0.42, 0.9, 1.0) == 0.42
    assert global_score(0.42, 0.9, 0.0) == 0.9


def test_rank_orders_by_global_score():
    ranked = rank_candidates([_cand("b", "op", 0.2), _cand("a", "op", 0.85)])
    assert [(c.rank, c.service_key) for c in ranked] == [(1, "a"), (2, "b")]


def test_rank_tie_breaks_by_service_key():
    ranked = rank_candidates([_cand("b", "op", 0.5), _cand("a", "op", 0.5)])
    assert [c.service_key for c in ranked] == ["a", "b"]


def test_rank_tie_breaks_by_functional_total_first():
    ranked = rank_candidates([_cand("a", "op", 0.5, total=16), _cand("b", "op", 0.5, total=20)])
    assert [c.service_key for c in ranked] == ["b", "a"]


def test_rank_is_input_order_independent():
    rng = random.Random(23)
    pool = [
        _cand(f"k{i}", f"op{i % 3}", rng.choice([0.1, 0.5, 0.9]), total=rng.randint(12, 20))
        for i in range(12)
    ]
    baseline = rank_candidates(pool)
    for _ in range(20):
        shuffled = rng.sample(pool, len(pool))
        assert rank_candidates(shuffled) == baseline


# --- select_for_process --------------------------------------------------------

def test_select_sendmail_heads(sendmail_process, sendmail_registry, fixture_lexicon):
    report = select_for_process(sendmail_process, sendmail_registry, fixture_lexicon, DEFAULT_CONFIG)
    assert report.process_id == "sendEmailProcess"
    task1, task2 = report.tasks
    assert task1.candidates[0].operation_name == "login"
    assert len(task1.candidates) == 1
    assert [c.operation_name for c in task2.candidates] == ["sendEmail", "sendEmailWithAttachment"]
    assert task2.candidates[1].qos.rated is False
    assert task2.candidates[1].qos.nfp == 0.0


def test_select_diagnostics_no_context(sendmail_registry, sendmail_process):
    process = copy.deepcopy(sendmail_process)
    for ann in process.annotations:
        ann.raw_text = ann.raw_text.replace("context: email", "context: astronomy")
        ann.raw_text = ann.raw_text.replace("context: authentication, login", "context: astronomy")
    report = select_for_process(process, sendmail_registry, EMPTY_LEXICON, DEFAULT_CONFIG)
    for task in report.tasks:
        assert task.candidates == []
        assert task.diagnostics == [NO_CONTEXT_MATCH]


def test_select_diagnostics_gate_failure(sendmail_registry, sendmail_process):
    process = copy.deepcopy(sendmail_process)
    for ann in process.annotations:
        ann.raw_text = (
            "output: inexistent=double, other=double, third=double\n"
            "context: email"
        )
    report = select_for_process(process, sendmail_registry, EMPTY_LEXICON, DEFAULT_CONFIG)
    for task in report.tasks:
        assert task.candidates == []
        assert task.diagnostics == [NO_GATED_OPERATION]


def test_pipeline_matches_bruteforce_oracle_sample():
    rng = random.Random(31)
    for _ in range(30):
        registry = gen_registry(rng)
        process = gen_process(rng, registry)
        config = config_from_dict({"functional_weight": rng.choice([0.0, 0.3, 0.5, 1.0])})
        fast = select_for_process(process, registry, EMPTY_LEXICON, config)
        slow = oracle_select(process, registry, EMPTY_LEXICON, config)
        assert serialize_report(fast) == serialize_report(slow)


def test_registry_permutation_invariance_sample():
    rng = random.Random(37)
    for _ in range(25):
        registry = gen_registry(rng)
        process = gen_process(rng, registry)
        baseline = serialize_report(select_for_process(process, registry, EMPTY_LEXICON, DEFAULT_CONFIG))
        permuted = permute_registry(rng, registry)
        again = serialize_report(select_for_process(process, permuted, EMPTY_LEXICON, DEFAULT_CONFIG))
        assert baseline == again


def test_parameter_permutation_invariance_sample():
    rng = random.Random(41)
    for _ in range(25):
        registry = gen_registry(rng)
        process = gen_process(rng, registry)
        baseline = serialize_report(select_for_process(process, registry, EMPTY_LEXICON, DEFAULT_CONFIG))
        registry2, process2 = permute_parameters(rng, registry, process)
        again = serialize_report(select_for_process(process2, registry2, EMPTY_LEXICON, DEFAULT_CONFIG))
        assert baseline == again


def test_synonym_substitution_invariance_sample():
    rng = random.Random(43)
    for _ in range(25):
        registry = gen_registry(rng)
        process = gen_process(rng, registry)
        entries, substituted = substitute_synonyms(rng, registry)
        lexicon = SynonymLexicon(entries)
        baseline = serialize_report(select_for_process(process, registry, lexicon, DEFAULT_CONFIG))
        again = serialize_report(select_for_process(process, substituted, lexicon, DEFAULT_CONFIG))
        assert baseline == again


def test_weight_boundary_functional_only():
    rng = random.Random(47)
    config = config_from_dict({"functional_weight": 1.0})
    for _ in range(20):
        registry = gen_registry(rng)
        process = gen_process(rng, registry)
        report = select_for_process(process, registry, EMPTY_LEXICON, config)
        for task in report.tasks:
            expected = sorted(
                task.candidates,
                key=lambda c: (-c.functional.total, c.service_key, c.operation_name),
            )
            assert [c.operation_name for c in task.candidates] == [c.operation_name for c in expected]
            assert [c.service_key for c in task.candidates] == [c.service_key for c in expected]


def test_weight_boundary_qos_only():
    rng = random.Random(53)
    config = config_from_dict({"functional_weight": 0.0})
    for _ in range(20):
        # give every operation a history so all candidates are rated
        registry = map_operations(gen_registry(rng), lambda _, op: (
            op if op.qos_history else dataclasses.replace(op, qos_history=(make_snapshot(rng, EPOCH),))
        ))
        process = gen_process(rng, registry)
        report = select_for_process(process, registry, EMPTY_LEXICON, config)
        for task in report.tasks:
            expected = sorted(
                task.candidates,
                key=lambda c: (-c.qos.nfp, -c.functional.total, c.service_key, c.operation_name),
            )
            assert task.candidates == expected


def test_attribute_scaling_keeps_ranks():
    # scaling one attribute by a positive constant scales its mean and
    # stddev alike, so z-terms and hence the ranking stay put
    rng = random.Random(59)
    for _ in range(15):
        registry = gen_registry(rng)
        process = gen_process(rng, registry)
        baseline = select_for_process(process, registry, EMPTY_LEXICON, DEFAULT_CONFIG)
        scaled_registry = copy.deepcopy(registry)
        for _, service in scaled_registry.iter_services():
            for op in service.operations:
                for snap in op.qos_history:
                    snap.execution_time_ms *= 3.0
        scaled = select_for_process(process, scaled_registry, EMPTY_LEXICON, DEFAULT_CONFIG)
        for base_task, scaled_task in zip(baseline.tasks, scaled.tasks):
            assert [
                (c.rank, c.service_key, c.operation_name) for c in base_task.candidates
            ] == [(c.rank, c.service_key, c.operation_name) for c in scaled_task.candidates]


# --- serialization and explanation ----------------------------------------------

def test_serialize_is_deterministic(sendmail_process, sendmail_registry, fixture_lexicon):
    one = serialize_report(select_for_process(sendmail_process, sendmail_registry, fixture_lexicon, DEFAULT_CONFIG))
    two = serialize_report(select_for_process(sendmail_process, sendmail_registry, fixture_lexicon, DEFAULT_CONFIG))
    assert one == two


def test_report_schema_keys(sendmail_process, sendmail_registry, fixture_lexicon):
    report = select_for_process(sendmail_process, sendmail_registry, fixture_lexicon, DEFAULT_CONFIG)
    data = json.loads(serialize_report(report))
    assert list(data) == ["processId", "tasks", "config"]
    task = data["tasks"][0]
    assert list(task) == ["taskId", "taskName", "candidates", "diagnostics"]
    candidate = task["candidates"][0]
    assert list(candidate) == ["rank", "serviceKey", "serviceName", "operation", "scores", "rated"]
    assert list(candidate["scores"]) == [
        "fp", "fpNorm", "uf_series", "changes", "score_ac", "uf_norm", "nfp", "global",
    ]
    assert list(candidate["scores"]["fp"]) == [
        "nbInput", "nbOutput", "strInputName", "strOutputName",
        "strInputDatatype", "strOutputDatatype", "total", "minAcceptable",
    ]


# st.floats() draws NaN, ±inf and subnormals too; these come up every run
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072e-308])
# quotes, backslashes, control characters, non-ASCII and lone surrogates
_TEXT = st.text() | st.sampled_from(['"', "\\", 'a\\"b', "\x00\x1f", "é", "\U0001f600", "\ud800", ""])
_SERIES = st.lists(_FLOATS, max_size=6).map(tuple)

_CANDIDATES = st.builds(
    Candidate,
    service_key=_TEXT,
    service_name=_TEXT,
    operation_name=_TEXT,
    functional=st.builds(FunctionalScore, *[st.integers()] * 8, passed=st.booleans()),
    qos=st.builds(QosScores, _SERIES, _SERIES, _FLOATS, _FLOATS, _FLOATS, st.booleans()) | st.just(UNRATED),
    fp_norm=_FLOATS,
    global_score=_FLOATS,
    rank=st.integers(0, 10**6),
)

_TASKS = st.builds(
    TaskSelection,
    requirement=st.builds(TaskRequirement, _TEXT, _TEXT, st.just([]), st.just([]), st.just(set())),
    candidates=st.lists(_CANDIDATES, max_size=4),
    diagnostics=st.lists(_TEXT, max_size=3),
)

_ATTRIBUTES = st.lists(
    st.builds(AttributeSpec, st.sampled_from(["availability", *EXTRA_QOS_ATTRS]) | _TEXT,
              st.sampled_from(["maximize", "minimize"]), _FLOATS),
    min_size=1, max_size=4,
).map(tuple)

_CONFIGS = st.builds(
    lambda attributes, n_gaps, stability, epsilon, weight: config_echo(
        AppConfig(qos=QosConfig(attributes, n_gaps, stability, epsilon), functional_weight=weight)
    ),
    _ATTRIBUTES, st.integers(1, 30), _FLOATS, _FLOATS, _FLOATS,
) | st.dictionaries(_TEXT, _TEXT | _FLOATS, max_size=3)


@settings(max_examples=300, deadline=None, database=None)
@given(report=st.builds(SelectionReport, _TEXT, st.lists(_TASKS, max_size=4), _CONFIGS))
def test_serialize_report_writes_json_dumps_of_the_oracle_dict(report):
    assert serialize_report(report) == json.dumps(oracle_dict(report), indent=2)


def _report_data(process, registry, lexicon) -> dict:
    """The report as `procsel explain` reads it from a file."""
    return json.loads(serialize_report(select_for_process(process, registry, lexicon, DEFAULT_CONFIG)))


def test_explain_contains_scores(sendmail_process, sendmail_registry, fixture_lexicon):
    report = _report_data(sendmail_process, sendmail_registry, fixture_lexicon)
    text = explain(report, "servicetask1", 1)
    assert "SCORE_FP = 18" in text
    assert "SCORE_min_FP = 15" in text
    assert "login" in text


def test_explain_unknown_task(sendmail_process, sendmail_registry, fixture_lexicon):
    report = _report_data(sendmail_process, sendmail_registry, fixture_lexicon)
    with pytest.raises(ReportError, match="no task"):
        explain(report, "nope", 1)


def test_explain_rank_out_of_range(sendmail_process, sendmail_registry, fixture_lexicon):
    report = _report_data(sendmail_process, sendmail_registry, fixture_lexicon)
    with pytest.raises(ReportError, match="rank 9"):
        explain(report, "servicetask1", 9)


def test_explain_rejects_non_report():
    with pytest.raises(ReportError, match="tasks"):
        explain({"something": 1}, "t", 1)


@pytest.mark.parametrize("report", [{"tasks": [1]}, {"tasks": [{"taskId": "t", "candidates": [7]}]}])
def test_explain_of_a_wrongly_typed_report_is_a_report_error(report):
    with pytest.raises(ReportError) as excinfo:
        explain(report, "t", 1)
    assert str(excinfo.value) == "not a selection report (a value has the wrong type)"


def test_explain_of_a_report_without_functional_weight_leaves_the_weights_open(
    sendmail_process, sendmail_registry, fixture_lexicon
):
    report = _report_data(sendmail_process, sendmail_registry, fixture_lexicon)
    del report["config"]["functional_weight"]
    text = explain(report, "servicetask1", 1)
    assert text.endswith("(? * fpNorm + ? * SCORE_NFP)")


# --- a candidate missing a configured QoS attribute -----------------------------------

_COST_CONFIG = config_from_dict({"qos": {"attributes": [
    {"name": "availability", "direction": "maximize", "weight": 0.4},
    {"name": "executionTimeMs", "direction": "minimize", "weight": 0.3},
    {"name": "cost", "direction": "minimize", "weight": 0.3},
]}})


@settings(max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_one_candidate_missing_an_attribute_changes_no_other_task(seed):
    rng = random.Random(seed)
    registry = gen_registry(rng)
    for _, service in registry.iter_services():
        for op in service.operations:
            for snapshot in op.qos_history:
                snapshot.extra["cost"] = rng.uniform(1.0, 10.0)
    process = gen_process(rng, registry, n_tasks=rng.randint(2, 4))
    clean = oracle_dict(select_for_process(process, registry, EMPTY_LEXICON, _COST_CONFIG))
    rated = sorted(
        (c["serviceKey"], c["operation"]) for t in clean["tasks"] for c in t["candidates"] if c["rated"]
    )
    with_history = [
        (service.service_key, op.name)
        for _, service in registry.iter_services() for op in service.operations if op.qos_history
    ]
    if not with_history:
        return
    bad = rng.choice(rated or with_history)
    broken = copy.deepcopy(registry)
    op = next(o for o in broken.find_service(bad[0])[1].operations if o.name == bad[1])
    del rng.choice(op.qos_history[-_COST_CONFIG.qos.n_gaps:]).extra["cost"]

    report = select_for_process(process, broken, EMPTY_LEXICON, _COST_CONFIG)
    assert serialize_report(report) == serialize_report(
        oracle_select(process, broken, EMPTY_LEXICON, _COST_CONFIG)
    )
    for before, after in zip(clean["tasks"], oracle_dict(report)["tasks"]):
        if bad not in [(c["serviceKey"], c["operation"]) for c in before["candidates"]]:
            assert after == before
        else:
            assert after["diagnostics"] == [f"qos attribute 'cost' missing for {bad[0]}/{bad[1]}"]
            [entry] = [c for c in after["candidates"] if (c["serviceKey"], c["operation"]) == bad]
            assert not entry["rated"] and entry["scores"]["uf_series"] == []


def test_missing_attribute_diagnostics_are_sorted_per_task(sendmail_registry, sendmail_process):
    config = config_from_dict({"qos": {"attributes": [
        {"name": "availability", "direction": "maximize", "weight": 0.5},
        {"name": "cost", "direction": "minimize", "weight": 0.5},
    ]}})
    registry = map_operations(sendmail_registry, lambda _, op: dataclasses.replace(
        op, qos_history=op.qos_history or (make_snapshot(random.Random(1), EPOCH),)
    ))
    report = select_for_process(sendmail_process, registry, EMPTY_LEXICON, config)
    send_task = report.tasks[1]
    assert send_task.diagnostics == [
        "qos attribute 'cost' missing for ws.15.09.2013.09.43.45/sendEmail",
        "qos attribute 'cost' missing for ws.15.09.2013.09.43.45/sendEmailWithAttachment",
    ]
    assert not any(c.qos.rated for task in report.tasks for c in task.candidates)


@pytest.mark.parametrize("key, value", [("string_same", 10**400), ("nb_unfavorable", -(10**400)),
                                        ("string_same", 2**53 + 1)])
def test_score_table_entry_beyond_exact_float_range_is_a_config_error(key, value):
    with pytest.raises(ConfigError, match=f"score_table.{key}"):
        config_from_dict({"score_table": {key: value}})


@pytest.mark.parametrize("data, message", [
    ([], "top level must be an object"),
    ({"wieghts": 1}, "unknown keys in top level: wieghts"),
    ({"qos": []}, "qos must be an object"),
    ({"qos": {"gaps": 3}}, "unknown keys in qos: gaps"),
    ({"score_table": {"string_sam": 3}}, "unknown keys in score_table: string_sam"),
    ({"qos": {"attributes": [7]}}, "qos.attributes[0] must be an object"),
    ({"qos": {"attributes": [{"name": "availability"}]}}, "qos.attributes[0] needs 'name' and 'direction'"),
    ({"qos": {"attributes": [{"name": None, "direction": "maximize"}]}}, "qos.attributes[0].name must be a string"),
    ({"qos": {"attributes": [{"name": "availability", "direction": 1}]}}, "qos.attributes[0].direction must be a string"),
    ({"qos": {"attributes": [{"name": "availability", "direction": "maximize", "weight": None}]}},
     "qos.attributes[0].weight must be a finite number"),
    ({"lexicon_path": 3}, "lexicon_path must be a string"),
    ({"qos": {"n_gaps": 2.5}}, "qos.n_gaps must be an integer"),
    ({"score_table": {"string_same": "3"}}, "score_table.string_same must be an integer"),
    ({"qos": {"attributes": []}}, "qos.attributes must be a non-empty array"),
    ({"qos": {"attributes": [{"name": "availability", "direction": "maximize", "weight": 1.0},
                             {"name": "totalCalls", "direction": "maximize"}]}},
     "qos attributes must all carry weights, or none (for equal weights)"),
    ({"qos": {"attributes": [{"name": "", "direction": "maximize"}]}}, "qos attribute with empty name"),
], ids=["top-array", "top-key", "qos-array", "qos-key", "table-key", "attribute-int", "attribute-no-direction",
        "null-name", "int-direction", "null-weight", "int-path", "float-n-gaps", "string-entry", "no-attributes",
        "some-weights", "empty-name"])
def test_every_config_object_refuses_unknown_keys_and_mistyped_values(data, message):
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(data, source="c.json")
    assert str(excinfo.value) == f"c.json: {message}"


def test_score_table_entries_at_the_bound_still_select(sendmail_registry, sendmail_process, fixture_lexicon):
    config = config_from_dict({"score_table": {"string_same": 2**53, "nb_unfavorable": -(2**53)}})
    report = select_for_process(sendmail_process, sendmail_registry, fixture_lexicon, config)
    assert [len(task.candidates) for task in report.tasks] == [1, 2]

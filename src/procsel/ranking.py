"""Pipeline orchestration: per-task gating, scoring, ranking, reporting.

Selection is local per task: each task's gated pool is scored and ranked
independently, with no cross-task constraints. The functional total is
min-max normalized over the gated pool before being blended with the
non-functional score, so the functional weight acts as a genuine
trade-off knob between two [0, 1] quantities.

A report is written by report_chunks, piece by piece, straight from the
SelectionReport: the CLI and the server write the pieces as they come,
and serialize_report joins them. No nested dicts are built for it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .bpmn import BusinessProcess, TaskRequirement, bind_requirements
from .config import AppConfig, config_echo
from .errors import ReportError
from .functional import FunctionalScore, gate_candidates, match_context
from .jsontext import dumps_indented, float_text, join_floats
from .lexicon import SynonymLexicon
from .qos import QosScores, normalize_pool, score_pool
from .registry import ServiceRegistry

NO_CONTEXT_MATCH = "no category matched context"
NO_GATED_OPERATION = "no operation passed functional gate"


@dataclass(frozen=True)
class Candidate:
    service_key: str
    service_name: str
    operation_name: str
    functional: FunctionalScore
    qos: QosScores
    fp_norm: float
    global_score: float
    rank: int = 0


@dataclass
class TaskSelection:
    requirement: TaskRequirement
    candidates: list[Candidate]
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class SelectionReport:
    process_id: str
    tasks: list[TaskSelection]
    config: dict


def global_score(fp_norm: float, nfp: float, functional_weight: float) -> float:
    """Blend normalized functional score with the non-functional score."""
    return functional_weight * fp_norm + (1.0 - functional_weight) * nfp


def missing_attribute_diagnostics(gated, qos_scores: list[QosScores]) -> list[str]:
    """One line per gated candidate left unrated for a missing QoS attribute.

    Sorted, so that registry order does not show in the report.
    """
    return sorted(
        f"qos attribute '{qos.missing_attribute}' missing for {service.service_key}/{op.name}"
        for (service, op, _), qos in zip(gated, qos_scores)
        if qos.missing_attribute is not None
    )


def select_for_process(
    process: BusinessProcess,
    registry: ServiceRegistry,
    lexicon: SynonymLexicon,
    config: AppConfig,
) -> SelectionReport:
    """Run the full selection pipeline for every task of a process."""
    tasks = []
    for requirement in bind_requirements(process):
        gated = gate_candidates(requirement, registry, lexicon, config.score_table)
        diagnostics: list[str] = []
        if not gated:
            matched = any(match_context(requirement, c, lexicon) for c in registry.categories)
            diagnostics.append(NO_GATED_OPERATION if matched else NO_CONTEXT_MATCH)

        qos_scores = score_pool([op for _, op, _ in gated], config.qos)
        diagnostics.extend(missing_attribute_diagnostics(gated, qos_scores))
        fp_norms = normalize_pool(
            [float(score.total) for _, _, score in gated], config.qos.epsilon
        )
        scored = sorted(
            (
                (global_score(fp_norm, qos.nfp, config.functional_weight), service, op, score, qos, fp_norm)
                for (service, op, score), qos, fp_norm in zip(gated, qos_scores, fp_norms)
            ),
            # global score descending, then functional total descending, then
            # serviceKey and operation name ascending: a total order, since
            # operation names are unique per service, so input order never matters
            key=lambda row: (-row[0], -row[3].total, row[1].service_key, row[2].name),
        )
        candidates = [
            Candidate(service.service_key, service.name, op.name, score, qos, fp_norm, blended, rank)
            for rank, (blended, service, op, score, qos, fp_norm) in enumerate(scored, start=1)
        ]
        tasks.append(TaskSelection(requirement=requirement, candidates=candidates, diagnostics=diagnostics))
    return SelectionReport(process_id=process.id, tasks=tasks, config=config_echo(config))


# --- serialization ----------------------------------------------------------
#
# A report is the text json.dumps(report, indent=2) would give for its
# fields as nested objects, written without building them: the skeleton by
# hand, each candidate by one %-format of a fixed template, and the
# diagnostics and config echo by dumps_indented at their depth.

_SERIES_SEPARATOR = ",\n              "

_CANDIDATE = """\
        {
          "rank": %d,
          "serviceKey": %s,
          "serviceName": %s,
          "operation": %s,
          "scores": {
            "fp": {
              "nbInput": %d,
              "nbOutput": %d,
              "strInputName": %d,
              "strOutputName": %d,
              "strInputDatatype": %d,
              "strOutputDatatype": %d,
              "total": %d,
              "minAcceptable": %d
            },
            "fpNorm": %s,
            "uf_series": %s,
            "changes": %s,
            "score_ac": %s,
            "uf_norm": %s,
            "nfp": %s,
            "global": %s
          },
          "rated": %s
        }"""


def _series_text(values: tuple[float, ...]) -> str:
    if not values:
        return "[]"
    return "[\n              " + join_floats(values, _SERIES_SEPARATOR) + "\n            ]"


def _candidate_text(candidate: Candidate) -> str:
    fp = candidate.functional
    qos = candidate.qos
    return _CANDIDATE % (
        candidate.rank,
        encode_basestring_ascii(candidate.service_key),
        encode_basestring_ascii(candidate.service_name),
        encode_basestring_ascii(candidate.operation_name),
        fp.nb_input,
        fp.nb_output,
        fp.str_input_name,
        fp.str_output_name,
        fp.str_input_datatype,
        fp.str_output_datatype,
        fp.total,
        fp.min_acceptable,
        float_text(candidate.fp_norm),
        _series_text(qos.uf_series),
        _series_text(qos.changes),
        float_text(qos.aggregate_change),
        float_text(qos.uf_latest_norm),
        float_text(qos.nfp),
        float_text(candidate.global_score),
        "true" if qos.rated else "false",
    )


def report_chunks(report: SelectionReport) -> Iterator[str]:
    """The report's JSON text, piece by piece: one piece per candidate, a
    few for the rest. Joined, they are serialize_report's text."""
    yield '{\n  "processId": %s,\n  "tasks": ' % encode_basestring_ascii(report.process_id)
    task_separator = "[\n"
    for task in report.tasks:
        yield task_separator + '    {\n      "taskId": %s,\n      "taskName": %s,\n      "candidates": ' % (
            encode_basestring_ascii(task.requirement.task_id),
            encode_basestring_ascii(task.requirement.task_name),
        )
        separator = "[\n"
        for candidate in task.candidates:
            yield separator + _candidate_text(candidate)
            separator = ",\n"
        yield (
            ("\n      ]" if task.candidates else "[]")
            + ',\n      "diagnostics": '
            + dumps_indented(task.diagnostics, 3)
            + "\n    }"
        )
        task_separator = ",\n"
    yield ("\n  ]" if report.tasks else "[]") + ',\n  "config": ' + dumps_indented(report.config, 1) + "\n}"


def serialize_report(report: SelectionReport) -> str:
    """Deterministic JSON text (no trailing newline); same input, same bytes."""
    return "".join(report_chunks(report))


# --- explanation ------------------------------------------------------------

def explain(data: dict, task_id: str, rank: int) -> str:
    """Human-readable breakdown of one ranked candidate's scores.

    data is a report as JSON-decoded from serialize_report's output; any
    other shape is a ReportError.
    """
    try:
        return _explain(data, task_id, rank)
    except KeyError as exc:
        raise ReportError(f"not a selection report (missing {exc})") from None
    except (AttributeError, TypeError):
        raise ReportError("not a selection report (a value has the wrong type)") from None


def _explain(data: dict, task_id: str, rank: int) -> str:
    for task in data["tasks"]:
        if task.get("taskId") == task_id:
            break
    else:
        raise ReportError(f"report has no task {task_id!r}")
    for candidate in task.get("candidates", []):
        if candidate.get("rank") == rank:
            break
    else:
        raise ReportError(f"task {task_id!r} has no candidate at rank {rank}")

    config = data.get("config", {})
    stability = config.get("qos", {}).get("stability_weight", "?")
    functional_weight = config.get("functional_weight", "?")
    scores = candidate["scores"]
    fp = scores["fp"]
    lines = [
        f"task {task_id} ({task.get('taskName', '')}) — rank {rank}: "
        f"{candidate['serviceName']} / {candidate['operation']} [{candidate['serviceKey']}]",
        "",
        "functional components:",
        f"  nbInput           = {fp['nbInput']}  (input-count comparison: equal > user-has-more > user-has-fewer)",
        f"  nbOutput          = {fp['nbOutput']}  (output-count comparison: equal > op-offers-more > op-offers-fewer)",
        f"  strInputName      = {fp['strInputName']}  (matched input names x string-same points)",
        f"  strOutputName     = {fp['strOutputName']}  (matched output names x string-same points)",
        f"  strInputDatatype  = {fp['strInputDatatype']}  (matched input datatypes x string-same points)",
        f"  strOutputDatatype = {fp['strOutputDatatype']}  (matched output datatypes x string-same points)",
        f"  SCORE_FP = {fp['total']}  (sum of the six components)",
        f"  SCORE_min_FP = {fp['minAcceptable']}  (gate: unfavorable + favorable "
        "+ 2*same*min(input counts) + 2*same*requested outputs)",
        "",
        "dynamic QoS:",
        f"  rated    = {str(candidate['rated']).lower()}  (false: no QoS history recorded yet)",
        f"  UF series = {scores['uf_series']}  (weighted pool z-scores per time gap, oldest to newest)",
        f"  changes   = {scores['changes']}  (relative UF change between consecutive gaps)",
        f"  SCORE_AC  = {scores['score_ac']}  (sum of changes)",
        f"  uf_norm   = {scores['uf_norm']}  (latest UF min-max normalized over the rated pool)",
        f"  SCORE_NFP = {scores['nfp']}  ({stability} * uf_norm + {_complement(stability)} * normalized SCORE_AC)",
        "",
        "global:",
        f"  fpNorm = {scores['fpNorm']}  (SCORE_FP min-max normalized over the gated pool)",
        f"  global score = {scores['global']}  ({functional_weight} * fpNorm "
        f"+ {_complement(functional_weight)} * SCORE_NFP)",
    ]
    return "\n".join(lines)


def _complement(weight) -> str:
    if isinstance(weight, (int, float)):
        return repr(round(1.0 - weight, 12))
    return "?"

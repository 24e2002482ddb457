"""Correctness checks for the benchmark's outputs.

Nothing here compares against a stored copy of earlier output. A report
must equal, byte for byte, what the brute-force oracle in
tests/generators.py computes from the same files, and it must satisfy the
properties the paper's scores promise. Every check raises CheckError
with a message naming the process and task.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from inputs import Case, Inputs, SnapshotWrite  # first: puts the checkout's src/ on sys.path
from generators import oracle_select
from procsel.bpmn import TaskRequirement, bind_requirements, parse_bpmn
from procsel.config import DEFAULT_CONFIG, AppConfig, config_from_dict
from procsel.errors import ProcselError
from procsel.functional import match_context
from procsel.lexicon import EMPTY_LEXICON, SynonymLexicon, load_lexicon
from procsel.ranking import serialize_report
from procsel.registry import ServiceCategory, ServiceRegistry, load_registry, registry_to_dict


class CheckError(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def effective_config(case: Case) -> AppConfig:
    return config_from_dict(case.overrides, source=case.name) if case.overrides else DEFAULT_CONFIG


class Oracle:
    """The registry and lexicon as the program loads them, plus the oracle's reports."""

    def __init__(self, inputs: Inputs):
        self.registry: ServiceRegistry = load_registry(inputs.registry_path)
        self.lexicon: SynonymLexicon = (
            load_lexicon(inputs.lexicon_path) if inputs.lexicon_path else EMPTY_LEXICON
        )
        self.category_of: dict[str, ServiceCategory] = {
            service.service_key: category for category, service in self.registry.iter_services()
        }

    def expected_body(self, case: Case) -> bytes:
        process = parse_bpmn(case.bpmn_path.read_text(encoding="utf-8"))
        report = oracle_select(process, self.registry, self.lexicon, effective_config(case))
        return (serialize_report(report) + "\n").encode("utf-8")


def check_properties(body: bytes, case: Case, oracle: Oracle) -> dict:
    """Properties every report must hold, whatever its exact numbers."""
    try:
        data = json.loads(body)
    except ValueError as exc:
        raise CheckError(f"{case.name}: report is not JSON: {exc}") from None
    config = effective_config(case)
    w = config.functional_weight
    requirements: dict[str, TaskRequirement] = {
        r.task_id: r for r in bind_requirements(parse_bpmn(case.bpmn_path.read_text(encoding="utf-8")))
    }
    _require([t["taskId"] for t in data["tasks"]] == list(requirements),
             f"{case.name}: report tasks differ from the process's tasks")
    for task in data["tasks"]:
        where = f"{case.name}/{task['taskId']}"
        requirement = requirements[task["taskId"]]
        candidates = task["candidates"]
        _require([c["rank"] for c in candidates] == list(range(1, len(candidates) + 1)),
                 f"{where}: ranks do not run 1..{len(candidates)}")
        globals_ = [c["scores"]["global"] for c in candidates]
        _require(all(a >= b for a, b in zip(globals_, globals_[1:])),
                 f"{where}: global score increases down the ranks")
        for c in candidates:
            scores = c["scores"]
            who = f"{where} rank {c['rank']}"
            for key in ("fpNorm", "uf_norm", "nfp"):
                _require(0.0 <= scores[key] <= 1.0, f"{who}: {key} {scores[key]} outside [0, 1]")
            blended = w * scores["fpNorm"] + (1.0 - w) * scores["nfp"]
            _require(math.isclose(scores["global"], blended, rel_tol=1e-12, abs_tol=1e-12),
                     f"{who}: global {scores['global']} != w*fpNorm + (1-w)*nfp = {blended}")
            _require(scores["fp"]["total"] >= scores["fp"]["minAcceptable"],
                     f"{who}: SCORE_FP below SCORE_min_FP")
            category = oracle.category_of.get(c["serviceKey"])
            _require(category is not None, f"{who}: unknown serviceKey {c['serviceKey']!r}")
            _require(match_context(requirement, category, oracle.lexicon),
                     f"{who}: category {category.name!r} does not match the task context")
    return data


def check_mirrors(data: dict, case: Case) -> None:
    """A task copying an operation's signature ranks that operation at the top score."""
    table = DEFAULT_CONFIG.score_table
    tasks = {t["taskId"]: t for t in data["tasks"]}
    for task_id, mirror in case.mirrors.items():
        where = f"{case.name}/{task_id}"
        expected = 2 * table.nb_equal + 2 * table.string_same * (mirror.n_in + mirror.n_out)
        candidates = tasks[task_id]["candidates"]
        hits = [c for c in candidates
                if c["serviceKey"] == mirror.service_key and c["operation"] == mirror.operation]
        _require(len(hits) == 1, f"{where}: mirrored {mirror.service_key}/{mirror.operation} not ranked")
        total = hits[0]["scores"]["fp"]["total"]
        _require(total == expected, f"{where}: mirrored operation scores {total}, expected {expected}")
        top = max(c["scores"]["fp"]["total"] for c in candidates)
        _require(top <= expected, f"{where}: a candidate scores {top}, above the mirror's {expected}")


def check_crowded(data: dict, case: Case) -> None:
    """Every candidate is rated, and all built to pass the gate are there."""
    tasks = {t["taskId"]: t for t in data["tasks"]}
    for task_id, count in case.built_to_pass.items():
        candidates = tasks[task_id]["candidates"]
        _require(len(candidates) == count,
                 f"{case.name}/{task_id}: {len(candidates)} candidates, {count} built to pass")
        _require(all(c["rated"] for c in candidates), f"{case.name}/{task_id}: unrated candidate")


def check_case(body: bytes, expected: bytes, case: Case, oracle: Oracle, what: str) -> None:
    """All checks of one report; `expected` is the oracle's bytes."""
    _require(body == expected, f"{case.name}: {what} report differs from the oracle's bytes")
    data = check_properties(body, case, oracle)
    check_mirrors(data, case)
    check_crowded(data, case)


def check_writes(original: dict, path: Path, writes: list[SnapshotWrite]) -> None:
    """After the writes, the file reloads and differs only by the appended snapshots.

    `original` is registry_to_dict of the file before any write.
    """
    try:
        after = registry_to_dict(load_registry(path))
    except ProcselError as exc:
        raise CheckError(f"registry does not reload after the writes: {exc}") from None
    expected = json.loads(json.dumps(original))
    ops = {
        (service["serviceKey"], op["name"]): op
        for category in expected["categories"] for service in category["services"]
        for op in service["operations"]
    }
    for write in writes:
        ops[(write.service_key, write.operation)]["qos"].append({
            "timestamp": write.timestamp,
            "availability": write.availability,
            "executionTimeMs": write.exec_ms,
            "totalCalls": write.calls,
        })
    _require(after == expected,
             "registry after the writes is not the original plus exactly the appended snapshots")

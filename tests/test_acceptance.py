"""Acceptance suite: one test per criterion, one printed line per criterion.

Each criterion runs at its stated tolerance; nothing is calibrated at
runtime. Lines are written to the real stdout so they show up in the
terminal even under pytest's capture.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import timedelta
from http.client import HTTPConnection

from procsel import (
    DEFAULT_CONFIG,
    load_lexicon,
    load_registry,
    parse_bpmn,
    select_for_process,
    serialize_report,
)
from procsel.bpmn import TaskRequirement
from procsel.config import config_from_dict
from procsel.functional import score_functional
from procsel.lexicon import EMPTY_LEXICON, SynonymLexicon
from procsel.qos import (
    attribute_column,
    change_series,
    pool_stat,
    score_pool,
    utility,
)
from procsel.registry import (
    Operation,
    Parameter,
    ServiceCategory,
    ServiceRegistry,
    WebService,
    save_registry,
)

from conftest import GOLDEN_REPORT, LEXICON_FILE, SENDMAIL_BPMN, SENDMAIL_REGISTRY
from generators import (
    CONTEXTS,
    DATATYPES,
    EPOCH,
    WORDS,
    AssociationEdge,
    BusinessProcess,
    ServiceTaskNode,
    TextAnnotationNode,
    annotation_text,
    gen_case_fixture,
    gen_process,
    gen_qos_pool,
    gen_registry,
    make_snapshot,
    oracle_select,
    permute_parameters,
    permute_registry,
    process_to_xml,
    snapshots_by_offset,
    substitute_synonyms,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:>2}] FAIL - {description}", file=sys.__stdout__)
        raise
    print(f"[criterion {number:>2}] PASS - {description}", file=sys.__stdout__)


def test_c01_six_case_taxonomy():
    with criterion(1, "six-case taxonomy: cases 1-4 pass the gate, 5-6 fail (100 fixtures/case)"):
        rng = random.Random(2001)
        started = time.perf_counter()
        for case in range(1, 7):
            for _ in range(100):
                requirement, op = gen_case_fixture(rng, case)
                score = score_functional(requirement, op, EMPTY_LEXICON)
                assert score.passed == (case <= 4), (case, score)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"taxonomy suite took {elapsed:.2f}s"


def test_c02_case4_boundary_equality():
    with criterion(2, "case-4 boundary: SCORE_FP == SCORE_min_FP exactly"):
        # canonical case 4: one requested input and output, both matched;
        # the operation wants one extra input and offers one extra output
        requirement = TaskRequirement(
            "t", "t",
            [Parameter("customer", "string")],
            [Parameter("status", "boolean")],
            {"billing"},
        )
        op = Operation(
            "op",
            [Parameter("customer", "string"), Parameter("vendor", "integer")],
            [Parameter("status", "boolean"), Parameter("invoice", "double")],
        )
        score = score_functional(requirement, op, EMPTY_LEXICON)
        assert score.total == score.min_acceptable == 11
        assert score.passed


def test_c03_login_signature_hand_oracle():
    with criterion(3, "login signature scores (3,3,4,2,4,2), total 18 vs gate 15"):
        # hand computation from the score table {equal 3, favorable 2,
        # unfavorable 1, same 2}:
        #   counts equal on both sides        -> nbInput 3, nbOutput 3
        #   2 input names matched   x 2 pts   -> 4
        #   1 output name matched   x 2 pts   -> 2
        #   2 input datatypes       x 2 pts   -> 4
        #   1 output datatype       x 2 pts   -> 2
        #   total                             -> 18
        #   gate = 1 + 2 + 2*2*min(2,2) + 2*2*1 = 15
        requirement = TaskRequirement(
            "task1", "authentication",
            [Parameter("username", "string"), Parameter("password", "string")],
            [Parameter("authentication", "boolean")],
            {"authentication", "login"},
        )
        op = Operation(
            "login",
            [Parameter("username", "string"), Parameter("password", "string")],
            [Parameter("authentication", "boolean")],
        )
        score = score_functional(requirement, op, EMPTY_LEXICON)
        components = (
            score.nb_input, score.nb_output,
            score.str_input_name, score.str_output_name,
            score.str_input_datatype, score.str_output_datatype,
        )
        assert components == (3, 3, 4, 2, 4, 2)
        assert score.total == 18
        assert score.min_acceptable == 15
        assert score.passed


def test_c04_mean_centering():
    with criterion(4, "utility z-terms: pool mean 0 +/- 1e-9 over 1000 random pools"):
        rng = random.Random(2004)
        pools_checked = stat_cells_checked = 0
        for _ in range(1000):
            candidates, config = gen_qos_pool(rng)
            specs = config.attributes
            scores = score_pool(candidates, config)
            for back, snapshots in snapshots_by_offset(candidates, config.n_gaps).items():
                columns = [attribute_column(snapshots, spec.name) for spec in specs]
                for spec, values in zip(specs, columns):
                    mean, stddev = pool_stat(values)
                    if len(values) >= 2 and stddev >= config.epsilon:
                        zs = [(v - mean) / stddev for v in values]
                        assert abs(math.fsum(zs) / len(zs)) <= 1e-9, (back, spec.name)
                        stat_cells_checked += 1
                # with every z-column centred, the utilities score_pool gives
                # at this offset average to the minimized attributes' weights
                # (w * (1 - z) averages to w)
                ufs = [s.uf_series[-1 - back] for s in scores if len(s.uf_series) > back]
                assert ufs == utility(columns, specs, config.epsilon), back
                expected = math.fsum(s.weight for s in specs if s.direction == "minimize")
                assert abs(math.fsum(ufs) / len(ufs) - expected) <= 1e-9, back
            pools_checked += 1
        assert pools_checked == 1000 and stat_cells_checked > 1000


def test_c05_change_and_aggregate_properties():
    with criterion(5, "change/aggregate: constant history -> 0, doubling -> 2.0, guard stays finite"):
        rng = random.Random(2005)
        eps = 1e-9
        for _ in range(200):
            value = rng.uniform(-10.0, 10.0)
            assert math.fsum(change_series([value] * rng.randint(1, 8), eps)) == 0.0
        assert abs(math.fsum(change_series([1.0, 2.0, 4.0], eps)) - 2.0) <= 1e-12
        for _ in range(1000):
            series = [
                rng.choice([0.0, -0.0, 1e-15, -1e-12, rng.uniform(-50.0, 50.0)])
                for _ in range(rng.randint(2, 10))
            ]
            assert math.isfinite(math.fsum(change_series(series, eps)))


def test_c06_stability_weight_one_boundary():
    with criterion(6, "stability weight 1: nfp equals normalized latest utility, exactly"):
        rng = random.Random(2006)
        for _ in range(300):
            candidates, config = gen_qos_pool(rng)
            config = replace(config, stability_weight=1.0)
            for scores in score_pool(candidates, config):
                if scores.rated:
                    assert scores.nfp == scores.uf_latest_norm


def test_c07_pipeline_matches_bruteforce_oracle():
    with criterion(7, "pipeline equals score-everything oracle on 200 random pairs (byte-identical)"):
        rng = random.Random(2007)
        started = time.perf_counter()
        for trial in range(200):
            registry = gen_registry(rng)
            assert sum(len(s.operations) for _, s in registry.iter_services()) <= 50
            process = gen_process(rng, registry)
            config = config_from_dict(
                {
                    "functional_weight": rng.choice([0.0, 0.3, 0.5, 0.7, 1.0]),
                    "qos": {"n_gaps": rng.randint(1, 4)},
                }
            )
            fast = serialize_report(select_for_process(process, registry, EMPTY_LEXICON, config))
            slow = serialize_report(oracle_select(process, registry, EMPTY_LEXICON, config))
            assert fast == slow, f"divergence at trial {trial}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"


def test_c08_golden_sendmail_fixture():
    with criterion(8, "sendEmail golden fixture: login and send ranked first, unrated flagged, byte-stable"):
        registry = load_registry(SENDMAIL_REGISTRY)
        lexicon = load_lexicon(LEXICON_FILE)
        process = parse_bpmn(SENDMAIL_BPMN.read_text(encoding="utf-8"))
        report = select_for_process(process, registry, lexicon, DEFAULT_CONFIG)

        task1, task2 = report.tasks
        assert task1.requirement.task_id == "servicetask1"
        assert task1.candidates[0].operation_name == "login"
        assert task1.candidates[0].rank == 1
        assert task2.candidates[0].operation_name == "sendEmail"
        assert task2.candidates[0].rank == 1
        unrated = [c for t in report.tasks for c in t.candidates if not c.qos.rated]
        assert unrated, "expected an operation without QoS history in the report"
        assert all(c.qos.nfp == 0.0 for c in unrated)

        first = serialize_report(report)
        second = serialize_report(select_for_process(process, registry, lexicon, DEFAULT_CONFIG))
        assert first == second
        assert (first + "\n").encode("utf-8") == GOLDEN_REPORT.read_bytes()


def test_c09_determinism_and_invariances():
    with criterion(9, "registry permutation, parameter order, synonym substitution: 500 trials"):
        rng = random.Random(2009)
        for trial in range(500):
            registry = gen_registry(rng, max_categories=2, max_services=2, max_operations=2)
            process = gen_process(rng, registry, n_tasks=rng.randint(1, 2))
            entries, substituted = substitute_synonyms(rng, registry)
            lexicon = SynonymLexicon(entries)
            baseline = serialize_report(select_for_process(process, registry, lexicon, DEFAULT_CONFIG))

            permuted = permute_registry(rng, registry)
            assert baseline == serialize_report(
                select_for_process(process, permuted, lexicon, DEFAULT_CONFIG)
            ), f"registry permutation changed the report (trial {trial})"

            registry2, process2 = permute_parameters(rng, registry, process)
            assert baseline == serialize_report(
                select_for_process(process2, registry2, lexicon, DEFAULT_CONFIG)
            ), f"parameter permutation changed the report (trial {trial})"

            assert baseline == serialize_report(
                select_for_process(process, substituted, lexicon, DEFAULT_CONFIG)
            ), f"synonym substitution changed the report (trial {trial})"


def _build_scale_registry(rng: random.Random) -> ServiceRegistry:
    categories = []
    key = 0
    for c, context in enumerate(CONTEXTS):
        services = []
        for _ in range(100):
            key += 1
            operations = []
            for j in range(3):
                inputs = [Parameter(rng.choice(WORDS), rng.choice(DATATYPES)) for _ in range(rng.randint(1, 3))]
                outputs = [Parameter(rng.choice(WORDS), rng.choice(DATATYPES)) for _ in range(rng.randint(1, 2))]
                history = [make_snapshot(rng, EPOCH + timedelta(days=30 * k)) for k in range(3)]
                operations.append(Operation(f"op{j}", inputs, outputs, history))
            services.append(
                WebService(
                    name=f"service{key}", business_name="scale", business_key=f"bk{key}",
                    service_key=f"ws.scale.{key:05d}", url="", version="1.0", operations=operations,
                )
            )
        categories.append(
            ServiceCategory(name=context, keywords={context, rng.choice(WORDS)}, services=services)
        )
    return ServiceRegistry(categories)


def test_c10_scale_smoke():
    with criterion(10, "1000 services x 3 ops x 3 snapshots, 5 tasks: < 5 s, < 512 MB"):
        rng = random.Random(2010)
        registry = _build_scale_registry(rng)
        assert sum(1 for _ in registry.iter_services()) == 1000

        process = BusinessProcess(id="scale")
        all_ops = [
            (category, op)
            for category in registry.categories
            for service in category.services
            for op in service.operations
        ]
        for i in range(1, 6):
            category, source = rng.choice(all_ops)
            process.tasks.append(ServiceTaskNode(f"task{i}", f"Task {i}"))
            process.annotations.append(
                TextAnnotationNode(
                    f"ann{i}",
                    annotation_text(list(source.inputs), list(source.outputs), {category.name}),
                )
            )
            process.associations.append(AssociationEdge(f"assoc{i}", f"task{i}", f"ann{i}"))

        started = time.perf_counter()
        report = select_for_process(process, registry, EMPTY_LEXICON, DEFAULT_CONFIG)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"selection took {elapsed:.2f}s"
        assert any(task.candidates for task in report.tasks)

        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kib < 512 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"


def _post_select(port: int, payload: dict) -> tuple[int, bytes]:
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request(
        "POST", "/select",
        body=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    body = response.read()
    conn.close()
    return response.status, body


def _cli_select(*args) -> bytes:
    env = dict(os.environ)
    env.pop("PROCSEL_CONFIG", None)
    result = subprocess.run(
        [sys.executable, "-m", "procsel", "select", *map(str, args)],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_c11_cli_http_differential(tmp_path):
    with criterion(11, "CLI select and POST /select return identical report bytes"):
        from procsel.serve import make_server

        rng = random.Random(2011)
        corpus = [(SENDMAIL_BPMN, SENDMAIL_REGISTRY, LEXICON_FILE)]
        for i in range(3):
            registry = gen_registry(rng)
            process = gen_process(rng, registry)
            registry_file = tmp_path / f"registry{i}.json"
            bpmn_file = tmp_path / f"process{i}.bpmn"
            save_registry(registry, registry_file)
            bpmn_file.write_text(process_to_xml(process), encoding="utf-8")
            corpus.append((bpmn_file, registry_file, None))

        config_file = tmp_path / "override.json"
        config_file.write_text('{"functional_weight": 0.8}', encoding="utf-8")

        for bpmn_file, registry_file, lexicon_file in corpus:
            registry = load_registry(registry_file)
            lexicon = load_lexicon(lexicon_file) if lexicon_file else EMPTY_LEXICON
            server = make_server(registry, lexicon, DEFAULT_CONFIG, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                port = server.server_address[1]
                bpmn_text = bpmn_file.read_text(encoding="utf-8")

                cli_args = ["--bpmn", bpmn_file, "--registry", registry_file]
                if lexicon_file:
                    cli_args += ["--lexicon", lexicon_file]
                status, http_body = _post_select(port, {"bpmn": bpmn_text})
                assert status == 200
                assert _cli_select(*cli_args) == http_body

                status, http_body = _post_select(
                    port, {"bpmn": bpmn_text, "config": {"functional_weight": 0.8}}
                )
                assert status == 200
                assert _cli_select(*cli_args, "--config", config_file) == http_body
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from datetime import timedelta

import pytest

from procsel import load_registry
from procsel.cli import main
from procsel.registry import (
    Operation,
    Parameter,
    ServiceCategory,
    ServiceRegistry,
    WebService,
    save_registry,
    snapshot_log_path,
)

from conftest import (
    GOLDEN_REPORT, LEXICON_FILE, SENDMAIL_BPMN, SENDMAIL_REGISTRY, WSDL_FILE, needs_amplification_bound,
    nested_entities,
)
from generators import EPOCH, make_snapshot


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("PROCSEL_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "procsel", *map(str, args)],
        capture_output=True,
        env=env,
    )


def _select_args(**extra):
    args = [
        "select",
        "--bpmn", SENDMAIL_BPMN,
        "--registry", SENDMAIL_REGISTRY,
        "--lexicon", LEXICON_FILE,
    ]
    for flag, value in extra.items():
        args.extend([f"--{flag}", value])
    return args


def test_select_matches_golden_report():
    result = run_cli(*_select_args())
    assert result.returncode == 0, result.stderr
    assert result.stdout == GOLDEN_REPORT.read_bytes()


def test_select_is_byte_stable_across_runs():
    first = run_cli(*_select_args())
    second = run_cli(*_select_args())
    assert first.stdout == second.stdout


def test_select_out_file_equals_stdout(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(*_select_args(out=out))
    assert result.returncode == 0, result.stderr
    assert result.stdout == b""
    assert out.read_bytes() == GOLDEN_REPORT.read_bytes()


def test_select_out_file_replaces_a_longer_file_whole(tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"x" * (2 * len(GOLDEN_REPORT.read_bytes())))
    result = run_cli(*_select_args(out=out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == GOLDEN_REPORT.read_bytes()


def test_select_text_format_out_file_equals_stdout(tmp_path):
    out = tmp_path / "report.txt"
    printed = run_cli(*_select_args(format="text"))
    written = run_cli(*_select_args(format="text", out=out))
    assert printed.returncode == written.returncode == 0, written.stderr
    assert out.read_bytes() == printed.stdout
    assert written.stdout == b""


@pytest.mark.parametrize("where, reason", [("missing/report.json", "No such file or directory"),
                                           (".", "Is a directory")])
def test_select_to_an_unwritable_out_is_a_domain_error(tmp_path, where, reason):
    out = tmp_path / where
    result = run_cli(*_select_args(out=out))
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr.decode() == f"error: cannot write report file {out}: {reason}\n"


def test_select_text_format():
    result = run_cli(*_select_args(format="text"))
    assert result.returncode == 0
    text = result.stdout.decode()
    assert "authentication / login" in text
    assert "[unrated]" in text


def test_select_without_flags_is_usage_error():
    result = run_cli("select")
    assert result.returncode == 2
    assert b"usage" in result.stderr.lower()


def test_select_without_registry_is_usage_error():
    result = run_cli("select", "--bpmn", SENDMAIL_BPMN)
    assert result.returncode == 2


def test_select_missing_file_is_domain_error(tmp_path):
    result = run_cli("select", "--bpmn", tmp_path / "none.bpmn", "--registry", SENDMAIL_REGISTRY)
    assert result.returncode == 1
    assert b"error:" in result.stderr
    assert b"none.bpmn" in result.stderr


def test_select_config_file_changes_echo(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"functional_weight": 1.0}', encoding="utf-8")
    result = run_cli(*_select_args(config=config))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["config"]["functional_weight"] == 1.0


def test_config_env_var_fallback(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"functional_weight": 0.25}', encoding="utf-8")
    result = run_cli(*_select_args(), env_extra={"PROCSEL_CONFIG": str(config)})
    assert result.returncode == 0
    assert json.loads(result.stdout)["config"]["functional_weight"] == 0.25


def test_config_registry_path_fallback(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"registry_path": str(SENDMAIL_REGISTRY)}), encoding="utf-8")
    result = run_cli(
        "select", "--bpmn", SENDMAIL_BPMN, "--lexicon", LEXICON_FILE, "--config", config
    )
    assert result.returncode == 0


def test_invalid_config_is_domain_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"functional_weight": 7}', encoding="utf-8")
    result = run_cli(*_select_args(config=config))
    assert result.returncode == 1
    assert b"functional_weight" in result.stderr


def test_validate_ok():
    result = run_cli("validate", "--bpmn", SENDMAIL_BPMN)
    assert result.returncode == 0
    assert b"2 service tasks, all bound" in result.stdout


def test_validate_dangling_association(tmp_path):
    broken = tmp_path / "broken.bpmn"
    broken.write_text(
        SENDMAIL_BPMN.read_text(encoding="utf-8").replace(
            'targetRef="textannotation1"', 'targetRef="ghost42"'
        ),
        encoding="utf-8",
    )
    result = run_cli("validate", "--bpmn", broken)
    assert result.returncode == 1
    assert b"ghost42" in result.stderr


def test_explain_subcommand():
    result = run_cli("explain", "--report", GOLDEN_REPORT, "--task", "servicetask1", "--rank", "1")
    assert result.returncode == 0
    assert b"SCORE_FP = 18" in result.stdout
    assert b"SCORE_min_FP = 15" in result.stdout


def test_explain_unknown_task():
    result = run_cli("explain", "--report", GOLDEN_REPORT, "--task", "nope", "--rank", "1")
    assert result.returncode == 1
    assert b"no task" in result.stderr


_CANDIDATE = {"rank": 1, "serviceKey": "k", "serviceName": "s", "operation": "op", "rated": False}
_SCORES = {"fpNorm": 1.0, "uf_series": [], "changes": [], "score_ac": 0.0, "uf_norm": 0.0, "nfp": 0.0,
           "global": 0.5}


@pytest.mark.parametrize("report", [
    {"tasks": [1]},
    {"tasks": {"a": 1}},
    {"tasks": [{"taskId": "t", "candidates": [7]}]},
    {"tasks": [{"taskId": "t", "candidates": [_CANDIDATE]}]},
    {"tasks": [{"taskId": "t", "candidates": [{**_CANDIDATE, "scores": {**_SCORES, "fp": {"nbOutput": 3}}}]}]},
], ids=["task-int", "tasks-object", "candidate-int", "no-scores", "fp-without-nbInput"])
def test_explain_of_a_malformed_report_is_a_domain_error(tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    result = run_cli("explain", "--report", path, "--task", "t", "--rank", "1")
    assert result.returncode == 1
    assert result.stderr.startswith(b"error: not a selection report"), result.stderr
    assert b"Traceback" not in result.stderr


@pytest.mark.parametrize("input_file", ["registry", "config", "lexicon", "bpmn", "validate", "wsdl", "report"])
def test_non_utf8_input_file_is_a_domain_error(tmp_path, input_file):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"name":\n "caf\xff"}\n')
    if input_file == "validate":
        args = ["validate", "--bpmn", bad]
    elif input_file == "wsdl":
        registry_file = tmp_path / "registry.json"
        registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
        args = ["registry", "import-wsdl", bad, "--into", registry_file]
    elif input_file == "report":
        args = ["explain", "--report", bad, "--task", "t", "--rank", "1"]
    else:
        args = _select_args(**{input_file: bad})  # the last --registry, --bpmn or --lexicon wins
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr == f"error: {bad}: line 2, column 6: not UTF-8 text\n".encode(), result.stderr


@pytest.mark.parametrize("input_file", ["registry", "config", "lexicon", "report"])
def test_json_input_nested_too_deeply_is_a_domain_error(tmp_path, input_file):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="ascii")
    if input_file == "report":
        args = ["explain", "--report", deep, "--task", "t", "--rank", "1"]
    else:
        args = _select_args(**{input_file: deep})
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr == f"error: {deep}: JSON nested too deeply\n".encode(), result.stderr


def test_snapshot_log_line_nested_too_deeply_is_a_domain_error(tmp_path):
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    log = snapshot_log_path(registry_file)
    log.write_text("[" * 200_000 + "]" * 200_000 + "\n", encoding="ascii")
    result = run_cli("select", "--bpmn", SENDMAIL_BPMN, "--registry", registry_file)
    assert result.returncode == 1
    assert result.stderr == f"error: {log}: line 1: not a JSON line: nested too deeply\n".encode(), result.stderr


@pytest.mark.parametrize("attribute, message", [
    ({"name": None, "direction": "maximize"}, "qos.attributes[0].name must be a string"),
    ({"name": "availability", "direction": "maximize", "wieght": 1.0}, "unknown keys in qos.attributes[0]: wieght"),
])
def test_config_attribute_entry_is_checked_like_every_config_object(tmp_path, capsys, attribute, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"qos": {"attributes": [attribute]}}), encoding="utf-8")
    assert main([str(arg) for arg in _select_args(config=config)]) == 1
    assert capsys.readouterr().err == f"error: {config}: {message}\n"


def test_registry_import_wsdl_and_snapshot(tmp_path):
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())

    result = run_cli("registry", "import-wsdl", WSDL_FILE, "--into", registry_file, "--category", "auth2")
    assert result.returncode == 0, result.stderr
    registry = load_registry(registry_file)
    assert [c.name for c in registry.categories] == ["communication", "auth2"]
    imported = registry.categories[1].services[0]
    assert imported.name == "authentication"
    assert imported.service_key.startswith("ws.")
    assert imported.operations[0].qos_history == ()

    result = run_cli(
        "registry", "snapshot",
        "--into", registry_file,
        "--service", imported.service_key,
        "--op", "login",
        "--availability", "0.98",
        "--exec-ms", "120.5",
        "--calls", "12",
        "--timestamp", "2026-01-01T00:00:00Z",
    )
    assert result.returncode == 0, result.stderr
    registry = load_registry(registry_file)
    history = registry.categories[1].services[0].operations[0].qos_history
    assert len(history) == 1
    assert history[0].availability == 0.98
    assert history[0].total_calls == 12


def test_registry_snapshots_without_timestamp_back_to_back(tmp_path):
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    before = len(load_registry(registry_file).find_service("ws.15.09.2013.08.43.40")[1].operations[0].qos_history)
    args = [
        "registry", "snapshot",
        "--into", str(registry_file),
        "--service", "ws.15.09.2013.08.43.40",
        "--op", "login",
        "--availability", "0.9",
        "--exec-ms", "100",
        "--calls", "1",
    ]
    # In-process, so both default timestamps fall within the same second.
    assert main(args) == 0
    assert main(args) == 0
    _, service = load_registry(registry_file).find_service("ws.15.09.2013.08.43.40")
    history = service.operations[0].qos_history
    assert len(history) == before + 2
    assert history[-2].timestamp < history[-1].timestamp


def test_registry_imports_of_one_wsdl_back_to_back(tmp_path):
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    args = ["registry", "import-wsdl", str(WSDL_FILE), "--into", str(registry_file), "--category", "auth2"]
    # In-process, so both default keys are stamped within the same second.
    assert main(args) == 0
    assert main(args) == 0
    first, second = load_registry(registry_file).categories[1].services
    assert first.service_key != second.service_key


def test_registry_snapshot_rejects_stale_timestamp(tmp_path):
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    result = run_cli(
        "registry", "snapshot",
        "--into", registry_file,
        "--service", "ws.15.09.2013.08.43.40",
        "--op", "login",
        "--availability", "0.9",
        "--exec-ms", "100",
        "--calls", "1",
        "--timestamp", "2014-02-14T00:00:00Z",
    )
    assert result.returncode == 1
    assert b"not after" in result.stderr


def test_registry_snapshot_rejects_non_finite_exec_ms(tmp_path, capsys):
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    for exec_ms in ("nan", "inf"):
        args = [
            "registry", "snapshot",
            "--into", str(registry_file),
            "--service", "ws.15.09.2013.08.43.40",
            "--op", "login",
            "--availability", "0.9",
            "--exec-ms", exec_ms,
            "--calls", "1",
            "--timestamp", "2026-01-01T00:00:00Z",
        ]
        assert main(args) == 1
        assert "executionTimeMs" in capsys.readouterr().err
        assert registry_file.read_bytes() == SENDMAIL_REGISTRY.read_bytes()


def test_registry_snapshot_unknown_service(tmp_path):
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    result = run_cli(
        "registry", "snapshot",
        "--into", registry_file,
        "--service", "nope",
        "--op", "login",
        "--availability", "0.9",
        "--exec-ms", "100",
        "--calls", "1",
    )
    assert result.returncode == 1
    assert b"unknown serviceKey" in result.stderr


def test_huge_json_integers_are_domain_errors(tmp_path, capsys):
    # a 401-digit integer is valid JSON but overflows a float
    data = json.loads(SENDMAIL_REGISTRY.read_text(encoding="utf-8"))
    data["categories"][0]["services"][0]["operations"][0]["qos"][0]["executionTimeMs"] = 10**400
    registry_file = tmp_path / "registry.json"
    registry_file.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("select", "--bpmn", SENDMAIL_BPMN, "--registry", registry_file)
    assert result.returncode == 1
    assert b"executionTimeMs" in result.stderr
    assert b"Traceback" not in result.stderr

    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"qos": {"epsilon": 10**400}}), encoding="utf-8")
    assert main([str(arg) for arg in _select_args(config=config_file)]) == 1
    assert "epsilon" in capsys.readouterr().err

    # past 4300 digits json.loads itself raises ValueError
    digits = "9" * 5000
    registry_file.write_text(json.dumps(data).replace(str(10**400), digits), encoding="utf-8")
    config_file.write_text('{"qos": {"epsilon": %s}}' % digits, encoding="utf-8")
    for args in (_select_args(registry=registry_file), _select_args(config=config_file)):
        assert main([str(arg) for arg in args]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {args[-1]}: JSON integer has too many digits\n", err

    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    args = [
        "registry", "snapshot",
        "--into", str(registry_file),
        "--service", "ws.15.09.2013.08.43.40",
        "--op", "login",
        "--availability", "0.9",
        "--exec-ms", "100",
        "--calls", str(10**400),
        "--timestamp", "2026-01-01T00:00:00Z",
    ]
    assert main(args) == 1
    assert "totalCalls" in capsys.readouterr().err
    assert registry_file.read_bytes() == SENDMAIL_REGISTRY.read_bytes()


_FOOTPRINT = """
import sys
from procsel.cli import main
unused = ("http.server", "procsel.serve")
print([m for m in unused if m in sys.modules])
assert main(sys.argv[1:]) == 0
unused += ("procsel.bpmn", "procsel.functional", "procsel.qos", "procsel.ranking", "procsel.config",
           "xml.etree.ElementTree")
print([m for m in unused if m in sys.modules])
"""

_SELECT_FOOTPRINT = """
import sys
from procsel.cli import main
assert main(["select", "--registry", sys.argv[1], "--bpmn", sys.argv[2], "--out", "/dev/null"]) == 0
print([m for m in ("hashlib", "_hashlib") if m in sys.modules])
"""

_LOAD_FOOTPRINT = """
import sys
from procsel import load_registry
load_registry(sys.argv[1])
print([m for m in ("hashlib", "_hashlib") if m in sys.modules])
"""


def test_importing_the_cli_leaves_the_server_unimported(tmp_path):
    # A process imports what its command runs: importing the CLI loads no
    # server, and a snapshot write loads neither it nor the selection stack.
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *_snapshot_args(registry_file)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "recorded snapshot for ws.15.09.2013.08.43.40/login", "[]"]
    # Only a snapshot write reads the index beside the registry, so only it
    # pays for hashlib: neither a select nor a load imports it.
    assert (tmp_path / "registry.json.index").exists()
    for probe in (_SELECT_FOOTPRINT, _LOAD_FOOTPRINT):
        result = subprocess.run(
            [sys.executable, "-c", probe, str(registry_file), str(SENDMAIL_BPMN)],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
    probe = "from procsel import *; print(sorted(name for name in dir() if not name.startswith('_')))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr(sorted([
        "DEFAULT_CONFIG", "ProcselError", "load_lexicon", "load_registry", "parse_bpmn",
        "select_for_process", "serialize_report",
    ]))


def _snapshot_args(registry_file, **changes):
    options = {
        "--service": "ws.15.09.2013.08.43.40",
        "--op": "login",
        "--availability": "0.9",
        "--exec-ms": "100",
        "--calls": "1",
        "--timestamp": "2026-02-01T00:00:00Z",
    }
    options.update(changes)
    return ["registry", "snapshot", "--into", str(registry_file), *itertools.chain(*options.items())]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"--timestamp": "2014-02-14T00:00:00Z"}, "not after"),
        ({"--timestamp": "2026-01-01T00:00:00Z"}, "not after"),  # the one in the log
        ({"--availability": "nan"}, "availability"),
        ({"--exec-ms": "nan"}, "executionTimeMs"),
        ({"--service": "nope"}, "unknown serviceKey"),
        ({"--op": "nope"}, "has no operation"),
        ({"--calls": str(10**400)}, "totalCalls"),
        ({"--exec-ms": "1e200"}, "executionTimeMs"),  # finite, beyond the QoS magnitude bound
    ],
)
def test_refused_snapshot_changes_neither_file_nor_log(tmp_path, capsys, changes, message):
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    assert main(_snapshot_args(registry_file, **{"--timestamp": "2026-01-01T00:00:00Z"})) == 0
    log = snapshot_log_path(registry_file)
    before = (registry_file.read_bytes(), log.read_bytes())
    assert before[1].count(b"\n") == 1
    capsys.readouterr()
    assert main(_snapshot_args(registry_file, **changes)) == 1
    assert message in capsys.readouterr().err
    assert (registry_file.read_bytes(), log.read_bytes()) == before


_WSDL_FAULTS = {
    # read before the registry is touched: the file, its XML, then its record as a load reads it
    "unreadable": (None, "cannot read WSDL"),
    "malformed": (("</definitions>", ""), "WSDL is not well-formed XML"),
    "part named blank": (
        ('<part name="username"', '<part name=" "'),
        "WSDL service 'authentication'.operations[0].inputs[0]: parameter name is empty",
    ),
    "operation named blank": (
        ('<operation name="login">', '<operation name="  ">'),
        "WSDL service 'authentication'.operations[0]: operation name is empty",
    ),
    "part without a type": (
        ('<part name="username" type="xsd:string"/>', '<part name="username"/>'),
        "WSDL message 'loginRequest': part 'username' lacks a name or type",
    ),
    "output type prefix only": (
        ('type="xsd:boolean"', 'type="xsd: "'),
        "WSDL service 'authentication'.operations[0].outputs[0]: parameter 'authentication' has an empty datatype",
    ),
}


@pytest.mark.parametrize("fault", list(_WSDL_FAULTS))
def test_refused_wsdl_import_leaves_the_registry_directory_as_it_was(tmp_path, capsys, monkeypatch, fault):
    """A WSDL that is unreadable, malformed, or whose service a load would
    refuse is refused with one error line before the registry is loaded or
    its log created, and selection from the registry still works."""
    import procsel.registry as registry_module

    edit, message = _WSDL_FAULTS[fault]
    wsdl = tmp_path / "wsdl" / "service.wsdl"
    wsdl.parent.mkdir()
    if edit is not None:
        text = WSDL_FILE.read_text(encoding="utf-8")
        assert text.count(edit[0]) == 1
        wsdl.write_text(text.replace(*edit), encoding="utf-8")
    store = tmp_path / "store"
    store.mkdir()
    registry_file = store / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    loads = []
    monkeypatch.setattr(registry_module, "_registry_from_data", lambda *args: loads.append(args))
    capsys.readouterr()
    assert main(["registry", "import-wsdl", str(wsdl), "--into", str(registry_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert loads == []
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in store.iterdir()} == before
    result = run_cli(*_select_args(registry=registry_file))
    assert result.returncode == 0, result.stderr
    assert result.stdout == GOLDEN_REPORT.read_bytes()


def test_import_wsdl_folds_logged_snapshots_into_the_file(tmp_path):
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    assert main(_snapshot_args(registry_file)) == 0
    expected = load_registry(registry_file)
    result = run_cli("registry", "import-wsdl", WSDL_FILE, "--into", registry_file, "--category", "auth2")
    assert result.returncode == 0, result.stderr
    assert snapshot_log_path(registry_file).read_bytes() == b""
    registry = load_registry(registry_file)
    assert registry.categories[0] == expected.categories[0]
    assert [c.name for c in registry.categories] == ["communication", "auth2"]


@pytest.mark.parametrize("refusal", ["duplicate serviceKey", "no keywords"])
def test_import_wsdl_refuses_with_the_loads_text_and_leaves_the_files(tmp_path, capsys, monkeypatch, refusal):
    """The registry rules an import meets are the load's: a serviceKey
    already present, or a new category with no keywords, is refused with
    the text a load of the written file would give. The file, the log and
    the index keep their bytes."""
    import procsel.registry as registry_module

    read = registry_module.import_wsdl
    monkeypatch.setattr(registry_module, "import_wsdl", lambda text: read(text, loaded_at=EPOCH))
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    wsdl = tmp_path / "service.wsdl"
    text = WSDL_FILE.read_text(encoding="utf-8")
    if refusal == "duplicate serviceKey":
        args = ["registry", "import-wsdl", str(WSDL_FILE), "--into", str(registry_file), "--category", "auth2"]
        assert main(args) == 0
        wsdl.write_text(text, encoding="utf-8")
        category = "communication"
        message = "duplicate serviceKey 'ws.2014-01-14T00:00:00Z' (categories 'communication' and 'auth2')"
    else:
        assert text.count('<service name="authentication">') == 1
        wsdl.write_text(text.replace('<service name="authentication">', '<service name="of the">'), encoding="utf-8")
        category = "the"
        message = "categories[1]: keywords are empty after normalization"
    assert main(_snapshot_args(registry_file)) == 0  # writes the log and the index
    files = ("registry.json", "registry.json.snapshots", "registry.json.index")
    before = {name: (tmp_path / name).read_bytes() for name in files}
    capsys.readouterr()
    assert main(["registry", "import-wsdl", str(wsdl), "--into", str(registry_file), "--category", category]) == 1
    assert capsys.readouterr().err == f"error: {registry_file}: {message}\n"
    assert {name: (tmp_path / name).read_bytes() for name in files} == before


@needs_amplification_bound
def test_nested_entities_are_refused_by_select_and_import_wsdl(tmp_path, capsys):
    """A BPMN or WSDL document whose entities would expand to 10**11
    characters is refused as malformed, without expanding them: `select`
    exits 1, and `import-wsdl` leaves the registry as it was."""
    bpmn = tmp_path / "process.bpmn"
    bpmn.write_text(nested_entities(
        '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">'
        '<process id="p1"><serviceTask id="t1" name="&e10;"/></process></definitions>'
    ), encoding="utf-8")
    text = WSDL_FILE.read_text(encoding="utf-8")
    body = text[text.index("<definitions"):].replace('<operation name="login">', '<operation name="&e10;">')
    wsdl = tmp_path / "service.wsdl"
    wsdl.write_text(nested_entities(body), encoding="utf-8")
    registry_file = tmp_path / "registry.json"
    registry_file.write_bytes(SENDMAIL_REGISTRY.read_bytes())
    capsys.readouterr()
    assert main([str(arg) for arg in _select_args(bpmn=bpmn)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed XML: ") and "amplification" in err, err
    assert main(["registry", "import-wsdl", str(wsdl), "--into", str(registry_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: WSDL is not well-formed XML: ") and "amplification" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["process.bpmn", "registry.json", "service.wsdl"]
    assert registry_file.read_bytes() == SENDMAIL_REGISTRY.read_bytes()


_WRITER = """
import sys
from procsel.cli import main
registry_file, service, op, count = sys.argv[1:]
for i in range(int(count)):
    code = main(["registry", "snapshot", "--into", registry_file, "--service", service, "--op", op,
                 "--availability", "0.9", "--exec-ms", "100", "--calls", str(i),
                 "--timestamp", f"2030-01-01T00:00:{i:02d}Z"])
    if code:
        sys.exit(code)
"""


def _crowd(services: int, history: int) -> ServiceRegistry:
    """One category of `services` services, one operation each with `history` snapshots."""
    rng = random.Random(5)
    return ServiceRegistry([ServiceCategory("crowd", {"crowd"}, [
        WebService(f"svc{k}", "", "", f"ws.{k:04d}", "", "", [
            Operation("op", [Parameter("customer", "string")], [Parameter("status", "boolean")],
                      [make_snapshot(rng, EPOCH + timedelta(days=d)) for d in range(history)])
        ])
        for k in range(services)
    ])])


def _write_concurrently(registry_file, writers: int, count: int, history: int) -> None:
    """`writers` processes write `count` snapshots each to services 0, 1, ...; none is lost."""
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(registry_file), f"ws.{k:04d}", "op", str(count)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for k in range(writers)
    ]
    for process in processes:
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
    registry = load_registry(registry_file)
    for k in range(writers):
        recorded = registry.find_service(f"ws.{k:04d}")[1].operations[0].qos_history
        assert [s.total_calls for s in recorded[history:]] == list(range(count))


def test_concurrent_snapshot_writers_lose_no_record(tmp_path):
    # A registry big enough that each writer's load overlaps the others'
    # writes: without a lock, a writer saves over records it never loaded.
    registry_file = tmp_path / "registry.json"
    save_registry(_crowd(150, 24), registry_file)
    _write_concurrently(registry_file, 3, 6, 24)


def test_concurrent_snapshot_writers_lose_no_record_through_folds(tmp_path):
    # A registry small enough that the log folds into the file several
    # times among the writes: a fold rewrites the file, so without the
    # lock a writer's fold would drop the lines another appended meanwhile.
    writers, count = 3, 6
    registry_file = tmp_path / "registry.json"
    save_registry(_crowd(writers, 1), registry_file)
    # Every line, and every snapshot a fold adds to the file, has the same
    # length whichever writer made it, so the writes fold where these
    # same writes, made one after another, fold.
    sequential = tmp_path / "sequential.json"
    save_registry(_crowd(writers, 1), sequential)
    folds = 0
    for i, k in itertools.product(range(count), range(writers)):
        args = ["--service", f"ws.{k:04d}", "--op", "op", "--availability", "0.9", "--exec-ms", "100"]
        assert main(["registry", "snapshot", "--into", str(sequential), *args,
                     "--calls", str(i), "--timestamp", f"2030-01-01T00:00:{i:02d}Z"]) == 0
        folds += snapshot_log_path(sequential).stat().st_size == 0
    assert folds >= 2
    _write_concurrently(registry_file, writers, count, 1)

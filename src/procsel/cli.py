"""Command-line entry point.

Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage
error. The config file may be given with --config or the PROCSEL_CONFIG
environment variable; individual flags override config-file values.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from itertools import chain
from typing import TYPE_CHECKING

from .errors import BpmnError, ProcselError, RegistryError, ReportError

if TYPE_CHECKING:
    from .config import AppConfig
    from .lexicon import SynonymLexicon
    from .ranking import SelectionReport
    from .registry import ServiceRegistry

# Each handler imports the modules it runs, so a process loads only what its
# command needs: `registry snapshot` reads and appends to the registry
# without importing the BPMN parser or the selection stack.

CONFIG_ENV_VAR = "PROCSEL_CONFIG"


def _resolve_config(args) -> AppConfig:
    from .config import DEFAULT_CONFIG, load_config

    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    config = load_config(path) if path else DEFAULT_CONFIG
    return config


def _resolve_lexicon(args, config: AppConfig) -> SynonymLexicon:
    from .lexicon import EMPTY_LEXICON, load_lexicon

    path = getattr(args, "lexicon", None) or config.lexicon_path
    return load_lexicon(path) if path else EMPTY_LEXICON


def _resolve_registry(args, config: AppConfig, parser: argparse.ArgumentParser) -> ServiceRegistry:
    from .registry import load_registry

    path = getattr(args, "registry", None) or config.registry_path
    if not path:
        parser.error("--registry is required (or set registry_path in the config file)")
    return load_registry(path)


def _render_text(report: SelectionReport) -> str:
    lines = [f"process {report.process_id}"]
    for task in report.tasks:
        lines.append(f"task {task.requirement.task_id} ({task.requirement.task_name}):")
        for c in task.candidates:
            rated = "" if c.qos.rated else "  [unrated]"
            lines.append(
                f"  {c.rank}. {c.service_name} / {c.operation_name}"
                f"  global={c.global_score:.4f} fp={c.functional.total}"
                f" nfp={c.qos.nfp:.4f}{rated}"
            )
        for diagnostic in task.diagnostics:
            lines.append(f"  ! {diagnostic}")
    return "\n".join(lines)


# --- subcommand handlers -----------------------------------------------------

def _cmd_select(args, parser) -> int:
    from .bpmn import parse_bpmn
    from .jsontext import read_text
    from .ranking import report_chunks, select_for_process

    config = _resolve_config(args)
    registry = _resolve_registry(args, config, parser)
    lexicon = _resolve_lexicon(args, config)
    process = parse_bpmn(read_text(args.bpmn, "BPMN", BpmnError))
    report = select_for_process(process, registry, lexicon, config)
    # written piece by piece, as the server sends it: the whole text is never joined
    text = chain([_render_text(report)] if args.format == "text" else report_chunks(report), ["\n"])
    if args.out:
        try:
            with open(args.out, "wb") as out:
                out.writelines(chunk.encode("utf-8") for chunk in text)
        except OSError as exc:
            raise ProcselError(f"cannot write report file {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(text)
    return 0


def _cmd_validate(args, parser) -> int:
    from .bpmn import bind_requirements, parse_bpmn
    from .jsontext import read_text

    process = parse_bpmn(read_text(args.bpmn, "BPMN", BpmnError))
    requirements = bind_requirements(process)
    print(f"process {process.id}: {len(requirements)} service tasks, all bound")
    for req in requirements:
        print(
            f"  {req.task_id} ({req.task_name}): {len(req.inputs)} inputs, "
            f"{len(req.outputs)} outputs, context: {', '.join(sorted(req.context_keywords))}"
        )
    return 0


def _cmd_import_wsdl(args, parser) -> int:
    from .jsontext import read_text
    from .registry import add_service, import_wsdl

    # read before the registry's lock, so that a refused WSDL leaves the registry untouched
    service = import_wsdl(read_text(args.wsdl, "WSDL", RegistryError))
    add_service(args.into, service, args.category)
    print(f"imported {service.name!r} ({service.service_key}) into category {args.category!r}")
    return 0


def _cmd_snapshot(args, parser) -> int:
    from .registry import QosSnapshot, parse_timestamp, record_snapshot

    timestamp = (
        parse_timestamp(args.timestamp, "--timestamp")
        if args.timestamp
        else datetime.now(timezone.utc)
    )
    snapshot = QosSnapshot(
        timestamp=timestamp,
        availability=args.availability,
        execution_time_ms=args.exec_ms,
        total_calls=args.calls,
    )
    record_snapshot(args.into, args.service, args.op, snapshot)
    print(f"recorded snapshot for {args.service}/{args.op}")
    return 0


def _cmd_explain(args, parser) -> int:
    from .jsontext import read_json
    from .ranking import explain

    print(explain(read_json(args.report, "report", ReportError), args.task, args.rank))
    return 0


def _cmd_serve(args, parser) -> int:
    config = _resolve_config(args)
    registry = _resolve_registry(args, config, parser)
    lexicon = _resolve_lexicon(args, config)
    # imported once the registry is loaded, so that the load's peak memory
    # does not come on top of the server module's imports
    import gc

    from .serve import make_server

    # What is loaded now lives until exit: the permanent generation keeps
    # the collector's full collections from traversing it again and again.
    gc.freeze()
    server = make_server(registry, lexicon, config, host=args.host, port=args.port)
    print(f"listening on http://{args.host}:{server.server_address[1]}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procsel",
        description="Rank candidate service operations for the tasks of an annotated BPMN process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run selection and emit a report")
    p_select.add_argument("--bpmn", required=True, help="BPMN 2.0 process file")
    p_select.add_argument("--registry", help="service registry JSON file")
    p_select.add_argument("--config", help="config JSON file")
    p_select.add_argument("--lexicon", help="synonym lexicon JSON file")
    p_select.add_argument("--out", help="write the report here instead of stdout")
    p_select.add_argument("--format", choices=("json", "text"), default="json")
    p_select.set_defaults(handler=_cmd_select)

    p_validate = sub.add_parser("validate", help="parse a BPMN file and bind its annotations")
    p_validate.add_argument("--bpmn", required=True)
    p_validate.set_defaults(handler=_cmd_validate)

    p_registry = sub.add_parser("registry", help="registry maintenance")
    reg_sub = p_registry.add_subparsers(dest="registry_command", required=True)

    p_import = reg_sub.add_parser("import-wsdl", help="add a service from a WSDL 1.1 file")
    p_import.add_argument("wsdl", help="WSDL file to import")
    p_import.add_argument("--into", required=True, help="registry JSON file to update")
    p_import.add_argument("--category", default="imported", help="target category name")
    p_import.set_defaults(handler=_cmd_import_wsdl)

    p_snapshot = reg_sub.add_parser("snapshot", help="append a QoS snapshot to an operation")
    p_snapshot.add_argument("--into", required=True, help="registry JSON file to update")
    p_snapshot.add_argument("--service", required=True, help="serviceKey")
    p_snapshot.add_argument("--op", required=True, help="operation name")
    p_snapshot.add_argument("--availability", required=True, type=float)
    p_snapshot.add_argument("--exec-ms", required=True, type=float, dest="exec_ms")
    p_snapshot.add_argument("--calls", required=True, type=int)
    p_snapshot.add_argument("--timestamp", help="ISO-8601, defaults to now (UTC)")
    p_snapshot.set_defaults(handler=_cmd_snapshot)

    p_explain = sub.add_parser("explain", help="break down one ranked candidate of a report")
    p_explain.add_argument("--report", required=True, help="report JSON file")
    p_explain.add_argument("--task", required=True, help="task id")
    p_explain.add_argument("--rank", required=True, type=int)
    p_explain.set_defaults(handler=_cmd_explain)

    p_serve = sub.add_parser("serve", help="serve selection over HTTP")
    p_serve.add_argument("--registry", help="service registry JSON file")
    p_serve.add_argument("--config", help="config JSON file")
    p_serve.add_argument("--lexicon", help="synonym lexicon JSON file")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except ProcselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

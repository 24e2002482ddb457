"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Builds small inputs, confirms that the checks accept the oracle's own
reports, then confirms that each check rejects a corrupted one: a changed
byte, a dropped candidate, a dropped mirrored operation, swapped ranks,
and a registry file that lost or altered an appended snapshot. Exits 0
when every corruption is caught.
"""

from __future__ import annotations

import json
import shutil
import sys
from datetime import datetime
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import ROOT, generate  # noqa: E402  (checks the checkout)
import checks  # noqa: E402
from procsel.registry import (  # noqa: E402
    QosSnapshot,
    append_snapshot,
    load_registry,
    registry_to_dict,
    save_registry,
)

WORK = ROOT / ".bench_work" / "selftest"


def _reserialize(data: dict) -> bytes:
    return (json.dumps(data, indent=2) + "\n").encode("utf-8")


def _drop(body: bytes, which) -> bytes:
    """Remove the candidates `which` picks from task1 and renumber the ranks."""
    data = json.loads(body)
    task = data["tasks"][0]
    task["candidates"] = [c for c in task["candidates"] if not which(c)]
    for rank, candidate in enumerate(task["candidates"], start=1):
        candidate["rank"] = rank
    return _reserialize(data)


def _change_byte(body: bytes) -> bytes:
    """Change the last digit of the first global score."""
    start = body.index(b'"global": ') + len(b'"global": ')
    end = body.index(b"\n", start)
    last = end - 1
    digit = b"1" if body[last:last + 1] != b"1" else b"2"
    return body[:last] + digit + body[last + 1:]


def _swap_top_two(body: bytes) -> bytes:
    data = json.loads(body)
    candidates = data["tasks"][0]["candidates"]
    candidates[0], candidates[1] = candidates[1], candidates[0]
    candidates[0]["rank"], candidates[1]["rank"] = 1, 2
    return _reserialize(data)


def expect_rejected(label: str, action) -> bool:
    try:
        action()
    except checks.CheckError as exc:
        print(f"self-test: {label}: rejected ({exc})")
        return True
    print(f"self-test: {label}: NOT rejected")
    return False


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    ok = True

    for workload in ("serve-crowded", "serve-broad"):
        inputs = generate(workload, 0, WORK / workload)
        oracle = checks.Oracle(inputs)
        case = inputs.cases[0]
        expected = oracle.expected_body(case)
        checks.check_case(expected, expected, case, oracle, "oracle")
        print(f"self-test: {workload}: the oracle's report passes every check")

        ok &= expect_rejected(f"{workload}: changed byte",
                              lambda: checks.check_case(_change_byte(expected), expected, case, oracle, "HTTP"))
        dropped = _drop(expected, lambda c: c["rank"] == 1)
        ok &= expect_rejected(f"{workload}: dropped candidate",
                              lambda: checks.check_case(dropped, expected, case, oracle, "HTTP"))
        if case.built_to_pass:
            ok &= expect_rejected(f"{workload}: dropped candidate, count check alone",
                                  lambda: checks.check_crowded(json.loads(dropped), case))
        for task_id, mirror in case.mirrors.items():
            without = _drop(expected, lambda c: c["serviceKey"] == mirror.service_key
                            and c["operation"] == mirror.operation)
            ok &= expect_rejected(f"{workload}: dropped mirrored operation, mirror check alone",
                                  lambda: checks.check_mirrors(json.loads(without), case))
        if len(json.loads(expected)["tasks"][0]["candidates"]) >= 2:
            ok &= expect_rejected(f"{workload}: swapped ranks, property check alone",
                                  lambda: checks.check_properties(_swap_top_two(expected), case, oracle))

    # Snapshot writes: the file must hold the original plus exactly the writes.
    inputs = generate("serve-crowded", 0, WORK / "writes")
    original = registry_to_dict(load_registry(inputs.registry_path))
    writes = inputs.writes[:3]
    registry = load_registry(inputs.registry_path)
    for write in writes:
        stamp = datetime.fromisoformat(write.timestamp.replace("Z", "+00:00"))
        append_snapshot(registry, write.service_key, write.operation,
                        QosSnapshot(stamp, write.availability, write.exec_ms, write.calls))
    written = inputs.directory / "written.json"
    save_registry(registry, written)
    checks.check_writes(original, written, writes)
    print("self-test: writes: the appended registry passes the check")
    ok &= expect_rejected("writes: one snapshot lost",
                          lambda: checks.check_writes(original, written, inputs.writes[:4]))
    registry.categories[0].services[0].operations[0].qos_history[0].total_calls += 1
    save_registry(registry, written)
    ok &= expect_rejected("writes: an untouched snapshot changed",
                          lambda: checks.check_writes(original, written, writes))

    print("self-test: " + ("every corruption was caught" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

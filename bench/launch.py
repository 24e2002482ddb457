"""Run commands one at a time and report their wall time and peak RSS.

    python3 bench/launch.py

reads one JSON object per line on standard input,
`{"args": [...], "stdout": "<file>"}`, runs the command with its standard
output in that file, and answers one JSON line,
`{"seconds": s, "rss_mb": m, "code": c, "stderr": "..."}`.

A child's `ru_maxrss` also counts the memory of the process that spawned
it, as it was at the spawn. bench/run.py holds a whole registry for its
checks, so it spawns the program's CLI processes through this small
process, whose own memory stays well below theirs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out:
            started = time.perf_counter()
            process = subprocess.Popen(request["args"], stdin=subprocess.DEVNULL, stdout=out,
                                       stderr=subprocess.PIPE)
            stderr = process.stderr.read()
            _, status, usage = os.wait4(process.pid, 0)
            seconds = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        process.stderr.close()
        print(json.dumps({"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
                          "code": process.returncode, "stderr": stderr.decode(errors="replace")}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

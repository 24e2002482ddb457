"""The names of the program that the benchmark in bench/ relies on.

bench/ drives procsel from outside but also builds its inputs with
procsel's types, checks reports against the oracle and, in its traced
pass, swaps module attributes for wrappers. The names it pins:

- BusinessProcess.flows, which bench/inputs.py appends to;
- procsel.functional.score_functional and procsel.functional.match_context;
- the match_context import in procsel.ranking, and the gate_candidates
  and score_pool that procsel.ranking looks up;
- the lru_cache on procsel.lexicon.extract_keywords, whose cache_info and
  cache_clear the traced pass calls.

A change that removes one of those names fails here, in the test suite,
rather than only when the benchmark runs.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from procsel import DEFAULT_CONFIG, select_for_process

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "every corruption was caught" in result.stdout


def test_bench_layers_instrument_the_pipeline(
    monkeypatch, sendmail_process, sendmail_registry, fixture_lexicon
):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    tracer = layers.Tracer()
    with layers.instrumented(tracer):
        report = select_for_process(sendmail_process, sendmail_registry, fixture_lexicon, DEFAULT_CONFIG)
    assert report.tasks
    names = {span["name"] for span in tracer.spans}
    assert {"functional.gate_candidates", "functional.match_context", "qos.score_pool"} <= names

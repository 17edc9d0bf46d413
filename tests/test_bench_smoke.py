"""The benchmark's output checks, run on its tiny inputs.

One pass of ``bench/run.py`` at ``--size tiny`` per workload checks every
output against the benchmark's independent oracles and its recorded seed-3
references: simulate, features, dist, mds and outliers on ``corpus-mining``
(about 6 s); the tests, plot tables and SVGs on ``long-series-monitoring``
(about 7 s); and features, dist dcc and outliers on ``fasta-protein`` (about
6 s), the one workload with a large alphabet (r=20) and series of different
lengths, where ``gk_tau``, ``gk_lambda`` and ``uncertainty`` run.  A change
that breaks them fails here and not only when the benchmark is run.  The
benchmark's span tracer is also installed on the imported package, so a
change that leaves one of its targets unreachable fails in under a second.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["corpus-mining", "long-series-monitoring", "fasta-protein"])
def test_benchmark_checks_pass(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout


def test_every_trace_target_is_reachable(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up there
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing() == []
    finally:
        tracer.uninstall()

"""The benchmark's output checks, run on its tiny inputs.

One pass of ``bench/run.py`` at ``--size tiny`` per workload checks every
output against the benchmark's independent oracles and its recorded seed-3
references: simulate, features, dist, mds and outliers on ``corpus-mining``
(about 6 s); the tests, plot tables and SVGs on ``long-series-monitoring``
(about 7 s); and features, dist dcc and outliers on ``fasta-protein`` (about
6 s), the one workload with a large alphabet (r=20) and series of different
lengths, where ``gk_tau``, ``gk_lambda`` and ``uncertainty`` run.  A change
that breaks them fails here and not only when the benchmark is run.
"""

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

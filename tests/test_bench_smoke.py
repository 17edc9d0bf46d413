"""The benchmark's output checks, run on its tiny corpus-mining inputs.

One pass of ``bench/run.py`` at ``--size tiny`` (about 6 s) checks every
output of simulate, features, dist, mds and outliers against the benchmark's
independent oracles and its recorded seed-3 references, so a change that
breaks them fails here and not only when the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_corpus_mining_benchmark_checks_pass():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus-mining", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout

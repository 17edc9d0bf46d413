"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root with ``python -m pytest bench``.  The
repository's own test suite does not collect this file (its ``testpaths``
is ``tests``), so real sizes never run there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    for entry in SPEC["workloads"]:  # fasta-protein runs by hand but is not listed
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert max(m["bound"] for m in SPEC["end_to_end"]) == setup_bound


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_runs_and_checks_out(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["cli.self_s"]["value"] > 0
        assert 0.95 < result["metrics"]["trace.accounted_ratio"]["value"] <= 1.0
    assert "trace target missing" not in done.stdout


def test_checks_catch_a_wrong_value(tmp_path):
    """A distance altered by one part in a million fails dist and nothing earlier."""
    cli = run.import_catseries()
    workload = WORKLOADS["corpus-mining"]
    inputs, _, _ = run.setup(workload, 5, {"per_family": 3, "length": 150}, tmp_path, "inputs")
    first = run.run_pass(cli, workload, inputs, tmp_path / "pass")
    from checks import CHECKS

    assert all(problems == [] for problems in CHECKS[workload.name](inputs, first.directory).values())
    dist = first.directory / "dist.csv"
    lines = dist.read_text().splitlines()
    for row, col in ((2, 3), (3, 2)):  # D[1, 2] and D[2, 1], so the matrix stays symmetric
        cells = lines[row].split(",")
        cells[col] = float.hex(float.fromhex(cells[col]) * (1 + 1e-6))
        lines[row] = ",".join(cells)
    dist.write_text("\n".join(lines) + "\n")
    verdict = CHECKS[workload.name](inputs, first.directory)
    assert verdict["simulate"] == [] and verdict["features"] == []
    assert verdict["dist"], "a changed distance went unnoticed"


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    run.import_catseries()  # long-series setup simulates with catseries
    for workload in WORKLOADS.values():
        size = SIZES[workload.name]["tiny"]
        digests = [run.setup(workload, seed, size, tmp_path, f"{workload.name}-{k}")[1]
                   for k, seed in enumerate((7, 7, 8))]
        assert digests[0] == digests[1] != digests[2]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, no result is printed."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "corpus-mining", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

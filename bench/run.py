"""Benchmark of the catseries command-line pipelines.

Run from the repository root:

    python3 bench/run.py --workload corpus-mining --seed 1 --seconds 50 --trace 0

Setup generates the workload's inputs from the seed.  One untimed warm-up
pass runs every command of the workload in-process through
``catseries.cli.main`` on files in a scratch directory under ``.bench_work``;
then timed passes do the same until ``--seconds`` are used.
After each pass, setup runs again (to time it and to check by digest that
the same seed gives the same bytes) and ``import catseries.cli`` is timed
in a fresh interpreter.  Every output is checked (see ``checks.py``).
Reported times are wall times scaled by a speed probe sampled during each
pass (see ``SpeedProbe``), so that drift of a shared machine's speed
cancels out.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it print every metric by name and unit, plus the run's
environment.

``--record`` stores reference fingerprints of the outputs for this workload,
seed and size in ``reference.json`` (run it only on a trusted commit).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_SLOT = 0.05  # seconds of repeated setups after each pass; setup_s is their median
MIN_PASSES = 3
IMPORT_SAMPLES = 2  # import timings after each pass; one sample varies more than a pass does
# One BLAS thread: on a small shared machine a second one waits on the
# scheduler, not on the program.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_PROBE_S = 0.003  # the speed probe's typical median on the 2-core machine the benchmark was built on

END_TO_END = {
    "pipeline_s": "s",
    "obs_per_s": "obs/s",
    "import_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYERS = ("cli", "io", "simulate", "series", "association", "inference", "spectral", "graphics", "svg", "mining")
PER_LAYER = {
    "io.parse.calls": "count", "io.parse_s": "s", "io.parse_obs": "obs",
    "io.write_s": "s", "io.write_bytes": "B", "io.read_s": "s", "io.read_cells": "count",
    "simulate.generate_s": "s", "simulate.obs": "obs",
    "series.lag_tables.calls": "count", "series.lag_tables_s": "s", "series.lag_tables.unique_ratio": "1",
    "association.calls": "count", "association.busy_s": "s",
    "mining.features.calls": "count", "mining.features_s": "s", "mining.distance.self_s": "s",
    "mining.mds_s": "s", "mining.outliers_s": "s",
    "inference.calls": "count", "inference.busy_s": "s",
    "spectral.envelope_s": "s", "spectral.frequencies": "count",
    "graphics.ewma_s": "s", "graphics.ifs_s": "s", "graphics.rate_s": "s", "graphics.busy_s": "s",
    "svg.render_s": "s", "svg.bytes": "B", "svg.elements": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.accounted_ratio": "1",
    "trace.overhead_ratio": "1",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def import_catseries():
    """Import catseries.cli from this checkout's ``src`` and nowhere else."""
    if not (SRC / "catseries" / "__init__.py").is_file():
        raise ImportError(f"no catseries package under {SRC}")
    sys.path.insert(0, str(SRC))
    import catseries.cli

    if Path(catseries.cli.__file__).resolve().parent != SRC / "catseries":
        raise ImportError(f"catseries imported from {catseries.cli.__file__}, not {SRC}")
    return catseries.cli


# -- environment record ------------------------------------------------------

def blas_threads() -> str:
    import numpy

    libs = sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"


def git_commit() -> str:
    """The commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


# -- setup, passes, metrics ----------------------------------------------------

def digest(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def output_files(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in ("--out", "--table")]


@dataclass
class Pass:
    wall: float  # sum of the command times
    seconds: dict[str, float]
    exit_codes: dict[str, int]
    digests: dict[str, str]
    directory: Path
    scale: float = 1.0  # SpeedProbe.scale over this pass; 1 when it ran without a probe


class SpeedProbe:
    """Samples how fast the machine runs right now.

    The benchmark's machine is shared: its speed drifts by 20% and more over
    minutes, so wall times of the same code differ from run to run by more
    than any bound worth having.  A sample times one fixed kernel of small
    numpy calls, the kind of work catseries does between its Python loops;
    its run-to-run drift followed that of the passes most closely of the
    kernels tried.  Samples are taken just before each timed command and
    after the last one, so they see the same phases of the machine as the
    commands do; each pass is scaled by the samples taken around it.
    """

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        self._codes = numpy.random.default_rng(0).integers(0, 3, 20_000)
        self.samples: list[float] = []

    def __call__(self) -> None:
        np, codes = self._numpy, self._codes
        t0 = perf_counter()
        for lag in range(1, 60):
            np.bincount(codes[:-lag] * 3 + codes[lag:], minlength=9).reshape(3, 3).sum(axis=0)
        self.samples.append(perf_counter() - t0)

    def scale(self, since: int) -> float:
        """Factor that turns times measured while ``samples[since:]`` were
        taken into times on a machine where the probe takes
        ``REFERENCE_PROBE_S``."""
        return REFERENCE_PROBE_S / statistics.median(self.samples[since:])


def run_pass(cli, workload, inputs, directory: Path, probe: SpeedProbe | None = None) -> Pass:
    directory.mkdir()
    commands = workload.commands(inputs, directory)
    seconds, exit_codes = {}, {}
    gc.collect()
    since = len(probe.samples) if probe is not None else 0
    for label, argv in commands:
        if probe is not None:
            probe()
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code if isinstance(exit_.code, int) else 1
        seconds[label] = perf_counter() - t0
        exit_codes[label] = code
    scale = 1.0
    if probe is not None:
        probe()
        scale = probe.scale(since)
    wall = sum(seconds.values())
    digests = {}
    for label, argv in commands:
        files = [Path(f) for f in output_files(argv)]
        present = all(f.is_file() for f in files)
        digests[label] = digest(directory, [f.name for f in files]) if present else "missing"
    return Pass(wall, seconds, exit_codes, digests, directory, scale)


def run_passes(cli, workload, inputs, work: Path, budget: float, min_passes: int, tag: str,
               first: Pass | None = None, tracer=None, between=None, probe=None) -> list[Pass]:
    """Passes, each followed by ``between(pass)``, until the next would overrun
    ``budget`` seconds.

    Side measurements in ``between`` are spread over the run, so they see
    the same quiet and busy phases of the machine as the passes do.  A pass
    whose outputs match ``first`` (by default the first pass here) byte for
    byte is deleted at once; ``verify`` needs only the others.
    """
    passes: list[Pass] = []
    laps: list[float] = []
    start = perf_counter()
    while True:
        lap = perf_counter()
        if tracer is not None:
            tracer.pass_id = len(passes)
        p = run_pass(cli, workload, inputs, work / f"{tag}-{len(passes) + 1}", probe)
        first = first or p
        if p is not first and p.digests == first.digests:
            shutil.rmtree(p.directory)
        passes.append(p)
        if between is not None:
            between(p)
        laps.append(perf_counter() - lap)
        if len(passes) >= min_passes and perf_counter() - start + statistics.median(laps) > budget:
            return passes


def setup(workload, seed: int, size: dict, work: Path, tag: str):
    directory = work / tag
    directory.mkdir()
    t0 = perf_counter()
    inputs = workload.make_inputs(seed, size, directory)
    fingerprint = digest(directory, inputs.files)
    return inputs, fingerprint, perf_counter() - t0


def setup_slot(workload, seed: int, size: dict, work: Path, times: list[float], digests: set[str]) -> None:
    """Set up again, at least once and for at least ``SETUP_SLOT`` seconds,
    recording each setup's time and input digest."""
    start = perf_counter()
    while True:
        inputs, fingerprint, seconds = setup(workload, seed, size, work, f"setup-{len(times) + 1}")
        shutil.rmtree(inputs.directory)
        times.append(seconds)
        digests.add(fingerprint)
        if perf_counter() - start >= SETUP_SLOT:
            return


def import_seconds() -> float:
    """Wall time of ``import catseries.cli`` in a fresh isolated interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import catseries.cli; "
        "t = time.perf_counter() - t; assert catseries.cli.__file__.startswith(sys.argv[1]); print(repr(t))"
    )
    env = {k: v for k, v in os.environ.items() if k != "CATSERIES_WORKERS"}
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def verify(workload_name: str, inputs, passes: list[Pass]) -> dict[str, dict[str, list[str]]]:
    """Problems per pass directory and command label.

    The first pass is checked in full; a later pass whose outputs have the
    same digests as the first inherits its result, any other is checked too.
    """
    from checks import CHECKS

    first = passes[0]
    verdicts = {}
    for p in passes:
        if p is first or p.digests != first.digests:
            verdicts[p.directory.name] = CHECKS[workload_name](inputs, p.directory)
        else:
            verdicts[p.directory.name] = verdicts[first.directory.name]
    return verdicts


def count_failures(passes: list[Pass], verdicts) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for p in passes:
        for label, code in p.exit_codes.items():
            attempted += 1
            problems = verdicts[p.directory.name].get(label, ["no check ran"])
            if code != 0:
                problems = [f"exit code {code}", *problems]
            if problems:
                failed += 1
                messages.extend(f"{p.directory.name} {label}: {m}" for m in problems)
    return attempted, failed, messages


def reference_problems(workload, inputs, first: Pass, key: str, record: bool) -> dict[str, list[str]]:
    """Compare (or with ``record``, store) fingerprints of the first pass's
    outputs against ``reference.json``; problems per command label, or an
    empty dict when no reference exists for ``key``."""
    from checks import REFERENCE_FILE, compare_fingerprint, fingerprint, load_references

    prints: dict[str, dict] = {}
    for label, argv in workload.commands(inputs, first.directory):
        for name in output_files(argv):
            if not name.endswith(".svg") and Path(name).is_file():
                prints[f"{label}:{Path(name).name}"] = fingerprint(Path(name))
    references = load_references()
    if record:
        references[key] = prints
        REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return {}
    if key not in references:
        return {}
    problems: dict[str, list[str]] = {label: [] for label in first.exit_codes}
    for name, expected in references[key].items():
        label = name.split(":")[0]
        if name not in prints:
            problems.setdefault(label, []).append(f"{name}: missing output")
        else:
            problems.setdefault(label, []).extend(compare_fingerprint(prints[name], expected, name))
    return problems


def main(argv=None) -> int:
    os.environ.pop("CATSERIES_WORKERS", None)  # the benchmark measures the serial path only
    for variable in BLAS_THREAD_VARIABLES:  # before the first numpy import
        os.environ[variable] = "1"
    from workloads import SIZES, TIMED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true", help="store reference fingerprints")
    args = parser.parse_args(argv)

    try:
        cli = import_catseries()
    except ImportError as err:
        return fail(str(err))
    workload = WORKLOADS[args.workload]
    size = SIZES[args.workload][args.size]
    env = environment()
    print(f"# env {json.dumps(env)}")
    print(f"# workload {workload.name} seed={args.seed} size={args.size} {json.dumps(size)}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        return measure(cli, workload, size, args, work, TIMED)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(cli, workload, size, args, work: Path, timed_labels) -> int:
    inputs, fingerprint, _ = setup(workload, args.seed, size, work, "inputs")
    setup_times, digests, import_times = [], {fingerprint}, []

    def between(p: Pass) -> None:
        """Setup and import timings, scaled like the pass before them."""
        times: list[float] = []
        setup_slot(workload, args.seed, size, work, times, digests)
        setup_times.extend(t * p.scale for t in times)
        if not args.trace:
            import_times.extend(import_seconds() * p.scale for _ in range(IMPORT_SAMPLES))

    warm = run_pass(cli, workload, inputs, work / "warmup")  # lazy imports and first-touch costs
    if args.trace:
        from spans import Tracer, layer_metrics

        plain = run_passes(cli, workload, inputs, work, args.seconds / 2, 1, "pass", warm, between=between)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.pass_id = "setup"
            digests.add(setup(workload, args.seed, size, work, "setup-traced")[1])
            traced = run_passes(cli, workload, inputs, work, args.seconds / 2, 1, "traced", warm, tracer)
        finally:
            tracer.uninstall()
        timed = plain + traced
    else:
        probe = SpeedProbe()
        timed = run_passes(cli, workload, inputs, work, args.seconds, MIN_PASSES, "pass", warm,
                           between=between, probe=probe)
    passes = [warm, *timed]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    deterministic = len(digests) == 1
    print(f"# inputs {inputs.obs} observations, digest {fingerprint[:16]}, "
          f"{'identical' if deterministic else 'DIFFERENT'} over {len(setup_times) + 1} setups")
    verdicts = verify(workload.name, inputs, passes)
    key = f"{workload.name}/{args.size}/{args.seed}"
    references = reference_problems(workload, inputs, passes[0], key, args.record)
    for label, problems in references.items():
        verdicts[passes[0].directory.name].setdefault(label, []).extend(problems)
    attempted, failed, messages = count_failures(passes, verdicts)
    if not deterministic:
        messages.append("setup: the same seed gave different input bytes")
    for message in messages[:20]:
        print(f"# FAIL {message}")
    status = "recorded" if args.record else "compared" if references else "absent for this seed and size"
    print(f"# checks: {attempted - failed} of {attempted} invocations passed; references {status}")
    print(f"# pass wall times: warm-up {warm.wall:.3f}, timed {' '.join(f'{p.wall:.3f}' for p in timed)} "
          f"(median {statistics.median(p.wall for p in timed):.3f} s)")

    if args.trace:
        metrics = layer_metrics(tracer, len(traced), [p.wall for p in traced], PER_LAYER)
        metrics["trace.overhead_ratio"] = statistics.median(p.wall for p in traced) / \
            statistics.median(p.wall for p in plain)
        for name in tracer.missing():
            print(f"# trace target missing: {name}")
        units = PER_LAYER
    else:
        scales = [p.scale for p in timed]
        print(f"# speed probe: median {statistics.median(probe.samples) * 1e3:.3f} ms over "
              f"{len(probe.samples)} samples; times below are wall times x the pass's factor, "
              f"{min(scales):.4f} to {max(scales):.4f}")
        pipeline = statistics.median(p.wall * p.scale for p in timed)
        metrics = {
            "pipeline_s": pipeline,
            "obs_per_s": inputs.obs / pipeline,
            "import_s": statistics.median(import_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        for label in passes[0].seconds:
            note = "" if label in timed_labels else "  (counts only toward pipeline_s)"
            seconds = statistics.median(p.seconds[label] * p.scale for p in timed)
            print(f"cmd.{label}_s {seconds:.6f} s{note}")
        print(f"fail_ratio {failed / attempted:.6f} 1")
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of catseries from outside the package.

``Tracer.install`` replaces, for the life of the traced run, every catseries
function that one catseries module reaches in another with a wrapper that
records a span: name, layer (the callee's module), start, end, parent span
and pass id.  The targets are found by reading the package source:

* names bound by ``from .series import lag_tables`` (the slot in the
  importing module is wrapped);
* attributes reached through a module object, as ``io.parse_corpus`` after
  ``from . import io`` (the slot in the callee module is wrapped);
* the values of module-level dispatch tables whose values are all catseries
  functions (``MEASURE_FUNCTIONS``, ``_DISPERSION``, ``_METRIC_FEATURES``);
* the entry points the harness itself calls (``ENTRY_POINTS``).

Per-value helpers (``SKIP``) stay unwrapped; their time stays in the
caller's self time.  A metric target in ``EXPECTED`` that no longer exists
is reported by ``missing``, not raised.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import os
import pkgutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

SKIP = {"catseries.io.format_number"}
ENTRY_POINTS = ("catseries.cli.main", "catseries.simulate.generate_series")

# functions whose spans feed a named per-layer metric
EXPECTED = (
    "cli.main", "io.parse_corpus", "io.read_distance_csv", "io.write_corpus", "io.write_features_csv",
    "io.write_distance_csv", "io.write_coordinates_csv", "io.write_json_report",
    "simulate.generate_corpus", "simulate.generate_series", "series.lag_tables",
    "mining.distance_matrix", "mining.db_features", "mining.dcc_features",
    "mining.two_dimensional_scaling", "mining.outlier_scores", "mining.boxplot_outlier_count",
    "inference.cramers_v_test", "inference.cohens_kappa_test", "inference.holm_adjust",
    "spectral.spectral_envelope", "graphics.ewma_marginal_chart", "graphics.ifs_circle_transform",
    "graphics.rate_evolution", "svg.render_svg",
)


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    layer: str
    start: float
    parent: int
    pass_id: object
    end: float = 0.0
    error: bool = False
    work: object = None


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _is_target(fn) -> bool:
    return inspect.isfunction(fn) and fn.__module__.startswith("catseries.") \
        and f"{fn.__module__}.{fn.__qualname__}" not in SKIP


def _work_of(name: str, args, kwargs, result):
    """Per-call work recorded on the span, after its end time is taken."""
    if name == "cli.main":
        return result
    if name == "io.parse_corpus":
        return sum(len(s) for s in result.series)
    if name.startswith("io.write_"):
        return os.path.getsize(args[0] if args else kwargs["path"])
    if name == "io.read_distance_csv":
        return int(result.values.size)
    if name == "simulate.generate_series":
        return len(result)
    if name == "series.lag_tables":
        series = args[0] if args else kwargs["series"]
        lag = args[1] if len(args) > 1 else kwargs["lag"]
        return (id(series), int(lag))
    if name == "spectral.spectral_envelope":
        return int(result.frequencies.size)
    if name == "svg.render_svg":
        return len(result.encode("utf-8")), result.count("<") - result.count("</") - result.count("<?")
    return None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    pass_id: object = None
    wrapped: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple] = field(default_factory=list)

    def _wrap(self, fn):
        if getattr(fn, "__traced__", False):
            return fn
        layer = _layer(fn.__module__)
        name = f"{layer}.{fn.__qualname__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, perf_counter(), stack[-1] if stack else -1, self.pass_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            try:
                span.work = _work_of(name, args, kwargs, result)
            except (AttributeError, KeyError, IndexError, TypeError, OSError):
                span.work = None  # a refactored signature loses the count, not the run
            if name == "cli.main" and result != 0:
                span.error = True
            return result

        traced.__traced__ = True
        if name not in self.wrapped:
            self.wrapped.append(name)
        return traced

    def _replace(self, namespace: dict, key, fn) -> None:
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = self._wrap(fn)

    def install(self) -> None:
        import catseries

        modules = {
            f"catseries.{info.name}": importlib.import_module(f"catseries.{info.name}")
            for info in pkgutil.iter_modules(catseries.__path__)
        }
        for module_name, module in modules.items():
            namespace = vars(module)
            tree = ast.parse(inspect.getsource(module))
            module_aliases = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        if node.module is None:
                            module_aliases[bound] = modules.get(f"catseries.{alias.name}")
                        elif _is_target(namespace.get(bound)):
                            self._replace(namespace, bound, namespace[bound])
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    target = module_aliases.get(node.value.id)
                    if target is not None and _is_target(getattr(target, node.attr, None)):
                        self._replace(vars(target), node.attr, getattr(target, node.attr))
            for value in list(namespace.values()):
                if isinstance(value, dict) and value and all(_is_target(v) for v in value.values()):
                    for key in list(value):
                        self._replace(value, key, value[key])
        for dotted in ENTRY_POINTS:
            module_name, attr = dotted.rsplit(".", 1)
            namespace = vars(modules[module_name]) if module_name in modules else {}
            if _is_target(namespace.get(attr)):
                self._replace(namespace, attr, namespace[attr])

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()

    def missing(self) -> list[str]:
        return [name for name in EXPECTED if name not in self.wrapped]


def _pass_metrics(spans: list[Span], indices: list[int], all_spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer numbers of one pass from its spans."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start

    def outermost(index: int, span: Span) -> bool:
        parent = span.parent
        while parent >= 0:
            if all_spans[parent].layer == span.layer:
                return False
            parent = all_spans[parent].parent
        return True

    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    lag_keys: set = set()
    lag_calls = 0
    command = -1
    for index, span in zip(indices, spans):
        duration = span.end - span.start
        function = span.name.split(".", 1)[1]
        add(f"{span.layer}.self_s", duration - child_time.get(index, 0.0))
        add(f"{span.layer}.errors", float(span.error))
        if outermost(index, span):
            add(f"{span.layer}.busy_s", duration)
            add(f"{span.layer}.calls", 1.0)
        if span.parent < 0:
            add("trace.root_s", duration)
            command = index
        if span.name == "io.parse_corpus":
            add("io.parse.calls", 1.0)
            add("io.parse_s", duration)
            add("io.parse_obs", span.work or 0)
        elif function.startswith("write_") and span.layer == "io":
            add("io.write_s", duration)
            add("io.write_bytes", span.work or 0)
        elif span.name == "io.read_distance_csv":
            add("io.read_s", duration)
            add("io.read_cells", span.work or 0)
        elif span.name == "simulate.generate_series":
            add("simulate.obs", span.work or 0)
        elif span.name == "series.lag_tables":
            lag_calls += 1
            add("series.lag_tables_s", duration)
            if span.work is not None:
                lag_keys.add((command, span.work))
        elif span.name in ("mining.db_features", "mining.dcc_features"):
            add("mining.features.calls", 1.0)
            add("mining.features_s", duration)
        elif span.name == "mining.distance_matrix":
            add("mining.distance.self_s", duration - child_time.get(index, 0.0))
        elif span.name == "mining.two_dimensional_scaling":
            add("mining.mds_s", duration)
        elif span.name in ("mining.outlier_scores", "mining.boxplot_outlier_count"):
            add("mining.outliers_s", duration)
        elif span.name == "spectral.spectral_envelope":
            add("spectral.envelope_s", duration)
            add("spectral.frequencies", span.work or 0)
        elif span.name == "graphics.ewma_marginal_chart":
            add("graphics.ewma_s", duration)
        elif span.name == "graphics.ifs_circle_transform":
            add("graphics.ifs_s", duration)
        elif span.name == "graphics.rate_evolution":
            add("graphics.rate_s", duration)
        elif span.name == "svg.render_svg":
            add("svg.render_s", duration)
            size, elements = span.work or (0, 0)
            add("svg.bytes", size)
            add("svg.elements", elements)
        if span.layer == "simulate" and function.startswith("generate") and outermost(index, span):
            add("simulate.generate_s", duration)
    m["series.lag_tables.calls"] = float(lag_calls)
    m["series.lag_tables.unique_ratio"] = len(lag_keys) / lag_calls if lag_calls else 0.0
    m["trace.accounted_ratio"] = sum(v for k, v in m.items() if k.endswith(".self_s")
                                     and k != "mining.distance.self_s") / wall
    return m


def layer_metrics(tracer: Tracer, passes: int, walls: list[float], names) -> dict[str, float]:
    """Median over traced passes of every per-layer metric in ``names``.

    Spans recorded during setup (pass id ``"setup"``) add their simulate
    numbers to each pass, so ``simulate.*`` shows generation wherever the
    workload does it: in a command or in setup.
    """
    by_pass: dict[object, tuple[list[Span], list[int]]] = {}
    for index, span in enumerate(tracer.spans):
        spans, indices = by_pass.setdefault(span.pass_id, ([], []))
        spans.append(span)
        indices.append(index)
    setup = _pass_metrics(*by_pass.get("setup", ([], [])), tracer.spans, 1.0) if "setup" in by_pass else {}
    per_pass = []
    for pass_id, wall in zip(range(passes), walls):
        m = _pass_metrics(*by_pass.get(pass_id, ([], [])), tracer.spans, wall)
        for key in ("simulate.generate_s", "simulate.obs"):
            m[key] = m.get(key, 0.0) + setup.get(key, 0.0)
        per_pass.append(m)
    return {name: statistics.median(m.get(name, 0.0) for m in per_pass) for name in names}

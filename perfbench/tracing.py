"""Per-layer numbers, measured from outside the program.

The traced run wraps public functions at their module attributes, which
is where the program looks them up, so no file under ``src/`` changes.
Coarse boundaries (command, load_records, classify, fit_scale,
sample_curve, save_svg, report serialisation) record spans; hot leaves
(``curve_value``, ``numeric_bound_detail``) keep only a call count and a
summed time.  A function that a refactor removed or renamed is reported
as absent instead of failing the run.

The isolated timings call one layer at a time, warm-up excluded.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from dataclasses import dataclass, field
from importlib import resources

from workloads import DEFAULT_CURVES

# (module, attribute path); the span is named after the module and path
SPAN_TARGETS = (
    ("sqzqi.meta", "load_records"),
    ("sqzqi.meta", "classify"),
    ("sqzqi.meta", "fit_scale"),
    ("sqzqi.meta", "AnalysisReport.to_json"),
    ("sqzqi.qi_bound", "sample_curve"),
    ("sqzqi.svgfig", "save_svg"),
)
# (module, attribute path, counter name); curve_value is counted where
# the meta-analysis calls it.
COUNTER_TARGETS = (
    ("sqzqi.meta", "curve_value", "qi_bound.curve_value"),
    ("sqzqi.qi_bound", "numeric_bound_detail", "qi_bound.numeric_bound_detail"),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value); AttributeError or
    ImportError when the target no longer exists."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    command: int        # spans of one CLI command share this id


@dataclass
class Tracer:
    """Spans and counters of one traced run.  ``install`` wraps the
    targets, ``restore`` puts the originals back; both may repeat."""

    spans: list[Span] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    busy: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    command: int = 0
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.command))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def install(self) -> None:
        for module, path in SPAN_TARGETS:
            self._wrap(module, path, f"{module.removeprefix('sqzqi.')}.{path}", self._span_wrapper)
        for module, path, name in COUNTER_TARGETS:
            self.calls.setdefault(name, 0)
            self.busy.setdefault(name, 0.0)
            self._wrap(module, path, name, self._counter_wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, module: str, path: str, name: str, make) -> None:
        try:
            owner, attr, original = _resolve(module, path)
        except (ImportError, AttributeError):
            if name not in self.absent:
                self.absent.append(name)
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(name, original)))

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _counter_wrapper(self, name: str, fn):
        calls, busy, clock = self.calls, self.busy, time.perf_counter

        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - start
                calls[name] += 1
        return counted

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        children = sum(s.end - s.start for s in self.spans if s.parent in own)
        return self.total(name) - children

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        spans = {
            "meta.load_records_s": "meta.load_records",
            "meta.fit_scale_s": "meta.fit_scale",
            "meta.report_json_s": "meta.AnalysisReport.to_json",
            "qi_bound.sample_curve_s": "qi_bound.sample_curve",
            "svgfig.save_svg_s": "svgfig.save_svg",
        }
        out = {metric: (self.total(name), "s") for metric, name in spans.items()
               if name not in self.absent}
        if "meta.classify" not in self.absent:
            out["meta.classify_self_s"] = (self.self_time("meta.classify"), "s")
        for name in self.calls:
            if name not in self.absent:
                out[f"{name}.calls"] = (self.calls[name], "count")
                out[f"{name}_s"] = (self.busy[name], "s")
        return out


# --- isolated layer timings ---------------------------------------------------

def _time_call(fn, warm=None, min_sample_s: float = 0.02, samples: int = 5) -> float:
    """Median seconds per call of ``fn``, warm-up excluded.

    ``warm`` is a cheaper call down the same path, for layers where one
    call takes seconds; calls are batched until a sample lasts
    ``min_sample_s``.
    """
    start = time.perf_counter()
    (warm or fn)()
    estimate = time.perf_counter() - start
    loops = max(1, math.ceil(min_sample_s / max(estimate, 1e-9))) if warm is None else 1
    per_call = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        per_call.append((time.perf_counter() - start) / loops)
    return statistics.median(per_call)


def _isolated_cases():
    """(metric, unit multiplier, unit, builder) per isolated layer timing.

    A builder binds the functions it times, so a missing one raises
    AttributeError or ImportError there and the metric is reported as
    absent.
    """
    partial = functools.partial

    def spectrum(kind, n=None):
        def build():
            w = importlib.import_module("sqzqi.windows")
            window = w.SamplingWindow(w.WindowKind(kind), 1.0, n)
            return dict(fn=partial(w.sqrt_ft_squared, window, 1.0))
        return build

    def bracket(kind, n=None, gaussian_weight=False):
        def build():
            w = importlib.import_module("sqzqi.windows")
            q = importlib.import_module("sqzqi.qi_bound")
            window = w.SamplingWindow(w.WindowKind(kind), 1.0, n)
            omega0 = math.pi * 0.2
            delta = partial(q.numeric_bound_detail, window, q.SpectralFunction(omega0=omega0))
            if not gaussian_weight:
                return dict(fn=delta)
            # one call takes seconds: warm up on the delta limit, time once
            weighted = q.SpectralFunction(omega0=omega0, delta_omega=0.05 * omega0,
                                          shape=q.SpectralShape.GAUSSIAN)
            return dict(fn=partial(q.numeric_bound_detail, window, weighted), warm=delta,
                        samples=1)
        return build

    def curve(curve_id):
        def build():
            q = importlib.import_module("sqzqi.qi_bound")
            c = q.parse_curve_id(curve_id)
            grid = [round(0.01 * (i + 1), 6) for i in range(50)]
            case = dict(fn=partial(q.sample_curve, c, grid))
            if c.window.value == "trapezoid":
                case.update(warm=partial(q.sample_curve, c, grid[:1]), samples=3)
            return case
        return build

    def classify(fit):
        def build():
            m = importlib.import_module("sqzqi.meta")
            q = importlib.import_module("sqzqi.qi_bound")
            records = m.load_records(resources.files("sqzqi") / "data" / "records.csv")
            curves = [q.parse_curve_id(c) for c in DEFAULT_CURVES]
            return dict(fn=partial(m.classify, records, curves,
                                   fit_curves=curves if fit else None))
        return build

    def effective_ft():
        o = importlib.import_module("sqzqi.opa")
        return dict(fn=partial(o.effective_ft, 0.8, 0.975, 1.0))

    us, ms, s = (1e6, "us"), (1e3, "ms"), (1.0, "s")
    cases = [(f"windows.spectrum.{kind}_us", *us, spectrum(kind, n))
             for kind, n in (("gaussian", None), ("lorentzian2", None),
                             ("square", None), ("trapezoid", 0.2))]
    cases += [
        ("qi_bound.bracket.square_ms", *ms, bracket("square")),
        ("qi_bound.bracket.trapezoid_ms", *ms, bracket("trapezoid", 0.2)),
    ]
    cases += [(f"qi_bound.sample_curve.{cid}_ms", *ms, curve(cid))
              for cid in ("gaussian-paper", "lorentzian2-paper", "trapezoid-paper-n0.2")]
    cases += [
        ("meta.classify_s", *s, classify(False)),
        ("meta.classify_fit_s", *s, classify(True)),
        ("opa.effective_ft_ms", *ms, effective_ft),
        ("qi_bound.bracket.trapezoid_gaussian_weight_s", *s,
         bracket("trapezoid", 0.2, gaussian_weight=True)),
    ]
    return cases


def isolated_metrics() -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Isolated layer timings by metric name, and the metrics found absent."""
    out, absent = {}, []
    for metric, multiplier, unit, build in _isolated_cases():
        try:
            case = build()
        except (ImportError, AttributeError):
            absent.append(metric)
            continue
        out[metric] = (_time_call(**case) * multiplier, unit)
    return out, absent

"""Stdlib-only span tracer that instruments covosc from outside the package.

Spans (name, start, end, parent, request id, attributes) are kept in memory
and written out as JSON lines when the run ends. `instrument` replaces each
public function of the layer modules with a timing wrapper under every name
a caller looks it up by: the module attribute (`covosc.analysis.overlap`,
reached by `cli` as `analysis.overlap`) and each `from ... import` copy
(`covosc.rest_of_universe.psi_boosted`, `covosc.oscillator.hermite_function`).
The package attribute `covosc.hermite` is the function `hermite`, so modules
are looked up in `sys.modules`, never through attribute access.

Single-threaded only: one span stack, as COVOSC_THREADS stays unset.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

LAYERS = ("kinematics", "hermite", "oscillator", "analysis", "rest_of_universe")
SPECTRUM = ("rest_of_universe.entropy", "rest_of_universe.purity",
            "rest_of_universe.eigenvalues")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans; `request` tags every span opened while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._clock = clock

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), 0.0, parent, self.request))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, fn, name: str, measure=None):
        """fn with a span around every call; measure(args, kwargs, result) -> attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if measure is not None:
                self.spans[index].attrs = measure(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i].start):
            lo = max(spans[child].start, cursor)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _values(args, kwargs, result) -> dict:
    return {"values": int(np.size(result))}


def _points(fn, formula):
    signature = inspect.signature(fn)

    def measure(args, kwargs, result) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"points": int(formula(bound.arguments))}

    return measure


# grid cells or quadrature nodes per analysis call, from argument sizes
_ANALYSIS_POINTS = {
    "overlap": lambda a: a["order"] ** 2,
    "norm": lambda a: a["order"] ** 2,
    "momentum_variance": lambda a: a["order"] ** 2,
    "marginal": lambda a: a["grid"].npoints * a["order"],
    "pde_residual": lambda a: a["grid"].npoints ** 2,
    "render_grid": lambda a: a["grid"].npoints ** 2,
    # one light-cone moment rule per eta, one momentum rule per eta, one at rest
    "parton_scan": lambda a: (2 * len(list(a["etas"])) + 1) * a["order"] ** 2,
}


def _measure_for(layer: str, name: str, fn):
    if layer in ("oscillator", "hermite") and name != "gauss_hermite":
        return _values
    if name == "gauss_hermite":
        return lambda args, kwargs, result: {"order": int(result.order)}
    if layer == "analysis" and name in _ANALYSIS_POINTS:
        return _points(fn, _ANALYSIS_POINTS[name])
    if name == "reduce":
        signature = inspect.signature(fn)

        def measure(args, kwargs, result) -> dict:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return {"n": bound.arguments["grid"].npoints, "K": bound.arguments["t_order"]}

        return measure
    return None


def instrument(tracer: Tracer):
    """Wrap every public function of the layer modules; return a function that undoes it."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"covosc.{layer}"]
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                wrappers[id(fn)] = (fn, tracer.wrap(fn, f"{layer}.{name}",
                                                    _measure_for(layer, name, fn)))
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "covosc" and not module_name.startswith("covosc."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    density = sys.modules["covosc.rest_of_universe"].ReducedDensity
    method = density.__dict__["eigenvalues"]
    density.eigenvalues = tracer.wrap(method, "rest_of_universe.eigenvalues")
    patched.append((density, "eigenvalues", method))

    def undo() -> None:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)

    return undo


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times; the keys are BENCHMARK.json's per_layer names."""
    selfs = self_times(spans)

    def entry(i: int) -> bool:
        parent = spans[i].parent
        return parent is None or spans[parent].layer != spans[i].layer

    def attr(i: int, key: str) -> float:
        return (spans[i].attrs or {}).get(key, 0)

    by_layer: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_layer.setdefault(span.layer, []).append(index)

    def self_s(indices) -> float:
        return sum(selfs[i] for i in indices)

    def named(name: str) -> list[int]:
        return [i for i, span in enumerate(spans) if span.name == name]

    cli = by_layer.get("cli", [])
    analysis = by_layer.get("analysis", [])
    oscillator = by_layer.get("oscillator", [])
    kinematics = by_layer.get("kinematics", [])
    reduces = named("rest_of_universe.reduce")
    functions = named("hermite.hermite_function")
    rules = named("hermite.gauss_hermite")
    osc_entries = [i for i in oscillator if entry(i)]
    osc_values = sum(attr(i, "values") for i in osc_entries)
    reduce_set = set(reduces)
    reduce_evals = sum(attr(i, "values") for i in osc_entries if spans[i].parent in reduce_set)
    useful = sum(attr(i, "n") * (attr(i, "n") + 1) * attr(i, "K") for i in reduces)
    orders = {attr(i, "order") for i in rules}
    roots = [i for i, span in enumerate(spans) if span.parent is None]
    return {
        "cli.requests": len(cli),
        "cli.self_s": self_s(cli),
        "cli.bytes_out": sum(attr(i, "bytes") for i in cli),
        "cli.exit_nonzero": sum(1 for i in cli if attr(i, "rc") != 0),
        "analysis.calls": sum(1 for i in analysis if entry(i)),
        "analysis.self_s": self_s(analysis),
        "analysis.points": sum(attr(i, "points") for i in analysis if entry(i)),
        "rest_of_universe.reduce_calls": len(reduces),
        "rest_of_universe.reduce_self_s": self_s(reduces),
        "rest_of_universe.spectrum_s": self_s(i for n in SPECTRUM for i in named(n)),
        "rest_of_universe.useful_eval_ratio": useful / reduce_evals if reduce_evals else 1.0,
        "oscillator.calls": len(osc_entries),
        "oscillator.self_s": self_s(oscillator),
        "oscillator.values": osc_values,
        "oscillator.bytes_computed": 8 * osc_values,
        "hermite.function_calls": len(functions),
        "hermite.function_s": self_s(functions),
        "hermite.function_values": sum(attr(i, "values") for i in functions),
        "hermite.rule_builds": len(rules),
        "hermite.rule_s": self_s(rules),
        "hermite.rule_reuse_ratio": len(orders) / len(rules) if rules else 1.0,
        "kinematics.calls": sum(1 for i in kinematics if entry(i)),
        "kinematics.self_s": self_s(kinematics),
        "bench.loop_s": self_s(by_layer.get("bench", [])),
        "trace.wall_s": sum(spans[i].end - spans[i].start for i in roots),
    }

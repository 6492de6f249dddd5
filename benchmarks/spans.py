"""Spans around the public functions of each noisycav module, and the per-layer metrics.

Each function of SPANS is wrapped once, and every attribute of a loaded
`noisycav` module that is bound to the original (its definition, and each
module that imported it) is pointed at the wrapper for as long as
`Tracer.installed()` is active. So a call is recorded once, whichever module
makes it, and nothing in the program changes. A function that SPANS names
and the program no longer has stops the run: its metrics would read 0.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

# (defining module, function, span name).
SPANS = (
    ("noisycav.cli", "main", "cli.main"),
    ("noisycav.sweep", "run_sweep", "sweep.run_sweep"),
    ("noisycav.sweep", "_run_trajectory_task", "sweep.task"),
    ("noisycav.sweep", "preset_spec", "sweep.preset_spec"),
    ("noisycav.sweep", "resonance_summary", "sweep.resonance_summary"),
    ("noisycav.sweep", "product_spread", "sweep.product_spread"),
    ("noisycav.model", "build_model", "model.build_model"),
    ("noisycav.model", "standard_observables", "model.standard_observables"),
    ("noisycav.dynamics", "evolve", "dynamics.evolve"),
    ("noisycav.dynamics", "steady_state", "dynamics.steady_state"),
    ("noisycav.dynamics", "steady_state_residual", "dynamics.steady_state_residual"),
    ("noisycav.dynamics", "vectorize_superoperator", "dynamics.vectorize_superoperator"),
    ("noisycav.qops", "partial_trace", "qops.partial_trace"),
    ("noisycav.qops", "expectation", "qops.expectation"),
    ("noisycav.qops", "assert_density_matrix", "qops.assert_density_matrix"),
    ("noisycav.entanglement", "concurrence", "entanglement.concurrence"),
)

# Factories whose returned callables are spans: (module, function) -> span name.
# The factory's own time stays with its caller.
FACTORIES = {("noisycav.dynamics", "make_rhs"): "dynamics.rhs"}

TASK = "sweep.task"  # the span whose durations are kept, for sweep.task_ms_*

# Counters read off return values and arguments: name -> (span name, function).
COUNTERS = {
    "dynamics.records": ("dynamics.evolve", lambda result, model, *a, **k: len(result.times)),
    "sweep.cells": ("sweep.run_sweep", lambda result, *a, **k: result.shape[0] * result.shape[1]),
}

# Each per-layer time is the summed self time of these spans; together they
# cover every span, so the self times add up to the outermost call.
SELF_TIMES = {
    "cli.self_s": ("cli.main",),
    "sweep.self_s": ("sweep.run_sweep", "sweep.task", "sweep.preset_spec", "sweep.resonance_summary",
                     "sweep.product_spread"),
    "model.build_s": ("model.build_model", "model.standard_observables"),
    "dynamics.evolve_self_s": ("dynamics.evolve",),
    "dynamics.rhs_s": ("dynamics.rhs",),
    "dynamics.superop_s": ("dynamics.vectorize_superoperator",),
    "dynamics.steady_self_s": ("dynamics.steady_state",),
    "dynamics.residual_s": ("dynamics.steady_state_residual",),
    "qops.partial_trace_s": ("qops.partial_trace",),
    "qops.expectation_s": ("qops.expectation",),
    "qops.assert_dm_s": ("qops.assert_density_matrix",),
    "entanglement.concurrence_s": ("entanglement.concurrence",),
}

CALLS = {
    "dynamics.rhs_calls": "dynamics.rhs",
    "dynamics.evolve_calls": "dynamics.evolve",
    "dynamics.superop_calls": "dynamics.vectorize_superoperator",
    "model.build_calls": "model.build_model",
    "qops.partial_trace_calls": "qops.partial_trace",
    "qops.expectation_calls": "qops.expectation",
    "qops.assert_dm_calls": "qops.assert_density_matrix",
    "entanglement.concurrence_calls": "entanglement.concurrence",
}


class Tracer:
    """Self time and call count per span name, for the calls made while `installed()` is active.

    Each wrapper does its own accounting when its call returns or raises: the
    call's duration minus the time of its direct children goes to the span's
    self time, and the duration goes to the children total of the enclosing
    call. The bottom of that stack collects the outermost calls: `total_s`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.task_ms: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.superop_bytes = 0
        self._children = [0.0]

    @property
    def total_s(self) -> float:
        return self._children[0]

    def wrap(self, name: str, fn, on_return=None):
        clock, children, self_s, calls, task_ms = self.clock, self._children, self.self_s, self.calls, self.task_ms

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - children.pop()
                children[-1] += elapsed
                calls[name] += 1
                if name == TASK:
                    task_ms.append(1e3 * elapsed)
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        return traced

    def _count(self, counter, count):
        def on_return(*args, **kwargs):
            self.counters[counter] += count(*args, **kwargs)

        return on_return

    def _superop_size(self, result, model, *args, **kwargs):
        self.superop_bytes = max(self.superop_bytes, model.dim**4 * 16)

    def _factory(self, name: str, factory):
        return lambda *args, **kwargs: self.wrap(name, factory(*args, **kwargs))

    @contextmanager
    def installed(self):
        """Point every noisycav reference to a SPANS or FACTORIES function at its wrapper; restore on exit."""
        hooks = {span: self._count(counter, fn) for counter, (span, fn) in COUNTERS.items()}
        hooks["dynamics.vectorize_superoperator"] = self._superop_size
        wrappers = {}  # id(original) -> (original, wrapper)
        targets = [(module, attr, span, False) for module, attr, span in SPANS]
        targets += [(module, attr, span, True) for (module, attr), span in FACTORIES.items()]
        for module_name, attr, span, factory in targets:
            original = getattr(import_module(module_name), attr, None)
            if original is None:
                raise RuntimeError(f"{module_name}.{attr} is gone, so {', '.join(metrics_of(span))} "
                                   "would not be measured; update benchmarks/spans.py")
            wrapper = self._factory(span, original) if factory else self.wrap(span, original, hooks.get(span))
            wrappers[id(original)] = (original, wrapper)
        with rebound(wrappers):
            yield self


@contextmanager
def rebound(wrappers: dict[int, tuple[object, object]]):
    """Point every loaded noisycav module attribute bound to an original at its wrapper; restore on exit.

    `wrappers` maps id(original) to (original, wrapper).
    """
    modules = [m for name, m in list(sys.modules.items()) if name == "noisycav" or name.startswith("noisycav.")]
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                patched.append((module, attr, value))
    try:
        for module, attr, original in patched:
            setattr(module, attr, wrappers[id(original)][1])
        yield
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


def metrics_of(span: str) -> list[str]:
    """The per-layer metrics read off one span."""
    out = [metric for metric, names in SELF_TIMES.items() if span in names]
    out += [metric for metric, name in CALLS.items() if name == span]
    out += [counter for counter, (name, _) in COUNTERS.items() if name == span]
    return out or [span]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs, calls = tracer.self_s, tracer.calls
    unmapped = set(selfs) - {name for names in SELF_TIMES.values() for name in names}
    if unmapped:
        raise ValueError(f"spans without a per-layer metric: {sorted(unmapped)}")

    m = {metric: sum(selfs.get(name, 0.0) for name in names) for metric, names in SELF_TIMES.items()}
    m.update({metric: calls.get(name, 0) for metric, name in CALLS.items()})
    m.update({counter: tracer.counters[counter] for counter in COUNTERS})
    m["dynamics.rhs_us"] = 1e6 * m["dynamics.rhs_s"] / m["dynamics.rhs_calls"] if m["dynamics.rhs_calls"] else 0.0
    m["dynamics.rhs_calls_per_record"] = (
        m["dynamics.rhs_calls"] / m["dynamics.records"] if m["dynamics.records"] else 0.0
    )
    m["dynamics.superop_bytes"] = tracer.superop_bytes
    m["sweep.task_ms_p50"] = percentile(tracer.task_ms, 50)
    m["sweep.task_ms_p90"] = percentile(tracer.task_ms, 90)
    return m


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile, 0 <= q <= 100; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values) -> tuple[int, float] | None:
    """(q, value) of the highest whole percentile q >= 50 with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    q = max(q for q in range(50, 100) if (100 - q) * n >= 1000)
    return q, percentile(values, q)

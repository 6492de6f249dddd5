"""The benchmark's hooks into the program still find what they wrap.

`benchmarks/spans.py` wraps named functions for the per-layer trace and
`benchmarks/speed.py` cuts each pass at the start and end of every sweep
task. A refactor that renames those functions stops the traced run, and one that
bypasses them would zero the per-layer metrics or merge a pass into one
interval, so both files are loaded here by path, unchanged, and a small
sweep is run through them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from noisycav.dynamics import IntegratorSettings
from noisycav.model import SystemConfig
from noisycav.sweep import SweepAxis, SweepSpec, run_sweep

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def hooks(monkeypatch):
    spans = load("spans", monkeypatch)
    speed = load("speed", monkeypatch)  # imports `spans` by that name
    return spans, speed


def test_sweep_tasks_pass_through_the_hooks(hooks):
    spans, speed = hooks
    spec = SweepSpec(
        base=SystemConfig(cutoff=1),
        axis1=SweepAxis("n_thermal", (0.0, 0.5)),
        axis2=SweepAxis("kappa", (1.0, 2.0)),
        evaluation_time=0.02,
    )
    settings = IntegratorSettings(dt=0.01, t_max=1.0)
    tracer = spans.Tracer()
    with tracer.installed():
        run_sweep(spec, settings)
    assert tracer.calls["sweep.task"] == 4
    assert tracer.calls["dynamics.evolve"] == 4
    # a factory the sweep bypasses would leave its per-layer metrics at 0
    assert all(tracer.calls[span] > 0 for span in spans.FACTORIES.values())
    with speed.segmented(kernel=lambda: 0.0) as segments:
        run_sweep(spec, settings)
    assert len(segments.cuts) == 2 + 2 * 4  # the block's ends plus both ends of each task

import pytest

import noisycav
import noisycav.cli
import noisycav.dynamics
import noisycav.qops
from spans import Tracer, layer_metrics, percentile, tail_percentile


def test_self_time_is_span_minus_direct_children():
    now = [0.0]

    def work(seconds):
        now[0] += seconds

    tracer = Tracer(clock=lambda: now[0])
    leaf = tracer.wrap("leaf", lambda: work(1.0))

    def mid_body():
        work(0.5)
        leaf()
        work(0.25)

    mid = tracer.wrap("mid", mid_body)

    def root_body():
        work(2.0)
        mid()
        leaf()
        work(3.0)

    tracer.wrap("root", root_body)()
    # root lasts 2 + 1.75 + 1 + 3 = 7.75; its direct children mid and leaf cover 2.75.
    assert dict(tracer.self_s) == {"root": 5.0, "mid": 0.75, "leaf": 2.0}
    assert dict(tracer.calls) == {"root": 1, "mid": 1, "leaf": 2}
    assert tracer.total_s == 7.75


def test_a_raising_call_is_still_accounted():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def fail():
        now[0] += 1.0
        raise ValueError

    inner = tracer.wrap("inner", fail)

    def outer_body():
        now[0] += 2.0
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", outer_body)()
    assert dict(tracer.self_s) == {"outer": 2.0, "inner": 1.0}
    assert tracer.total_s == 3.0


def test_percentiles():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile([], 90) == 0.0
    assert tail_percentile(values[:19]) is None
    assert tail_percentile(values[:20]) == (50, pytest.approx(10.5))
    q, _ = tail_percentile(values)
    assert q == 90


def test_every_module_binding_is_wrapped_and_restored():
    original = noisycav.qops.partial_trace
    with Tracer().installed():
        wrapper = noisycav.qops.partial_trace
        assert wrapper is not original
        # The package re-export and each importing module see the same wrapper.
        assert noisycav.partial_trace is wrapper
        assert noisycav.dynamics.partial_trace is wrapper
        assert noisycav.cli.partial_trace is wrapper
    assert noisycav.qops.partial_trace is original
    assert noisycav.partial_trace is original


def test_a_missing_function_stops_the_trace(monkeypatch):
    monkeypatch.delattr(noisycav.dynamics, "vectorize_superoperator")
    with pytest.raises(RuntimeError, match="dynamics.superop_calls"):
        with Tracer().installed():
            pass


def test_traced_sweep_accounts_for_its_wall_time(tmp_path):
    out = str(tmp_path / "sweep.csv")
    argv = ["sweep", "--axis1", "n_thermal:0:1:2", "--axis2", "time:0:0.1:3", "--cutoff", "2",
            "--workers", "1", "--out", out]
    make_rhs = noisycav.dynamics.make_rhs
    tracer = Tracer()
    with tracer.installed():
        assert noisycav.cli.main(argv) == 0
    assert noisycav.dynamics.make_rhs is make_rhs

    m = layer_metrics(tracer)
    layer_times = [v for k, v in m.items() if k.endswith("_s")]
    assert sum(layer_times) == pytest.approx(tracer.total_s, rel=1e-9)
    assert tracer.calls["cli.main"] == 1
    assert m["dynamics.evolve_calls"] == 2
    assert m["dynamics.records"] == 6
    assert m["sweep.cells"] == 6
    assert m["dynamics.rhs_calls"] == 2 * 50 * 4  # t_max 0.1 at dt 0.002, four stages per step
    assert m["entanglement.concurrence_calls"] == 6
    assert m["dynamics.superop_calls"] == 0
    assert len(tracer.task_ms) == 2


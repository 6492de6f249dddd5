import pytest

import noisycav.cli
import noisycav.sweep
from speed import REFERENCE_S, Segments, scaled, segmented


def test_an_interval_is_scaled_by_the_kernel_at_its_ends():
    assert scaled(3.0, REFERENCE_S, REFERENCE_S) == pytest.approx(3.0)
    assert scaled(3.0, 1.5 * REFERENCE_S, 2.5 * REFERENCE_S) == pytest.approx(1.5)


def test_segments_leave_out_the_kernel_runs_and_scale_each_interval():
    now = [0.0]
    kernels = iter([1.0, 2.0, 4.0])  # in units of REFERENCE_S

    def kernel():
        k = next(kernels) * REFERENCE_S
        now[0] += k
        return k

    segments = Segments(clock=lambda: now[0], kernel=kernel)
    segments.cut()
    now[0] += 3.0
    segments.cut()
    now[0] += 6.0
    segments.cut()
    assert segments.wall_s == pytest.approx(9.0)
    assert segments.scaled_s == pytest.approx(3.0 / 1.5 + 6.0 / 3.0)


def test_a_sweep_pass_is_cut_at_each_task(tmp_path):
    argv = ["sweep", "--axis1", "n_thermal:0:1:3", "--axis2", "time:0:0.1:2", "--cutoff", "2",
            "--workers", "1", "--out", str(tmp_path / "sweep.csv")]
    task = noisycav.sweep._run_trajectory_task
    with segmented() as segments:
        assert noisycav.cli.main(argv) == 0
    assert noisycav.sweep._run_trajectory_task is task
    assert segments.missing == []
    assert len(segments.cuts) == 2 + 2 * 3  # start, end, and both ends of 3 tasks
    assert segments.wall_s > 0 and segments.scaled_s > 0


def test_a_missing_part_leaves_a_longer_interval(monkeypatch):
    monkeypatch.delattr(noisycav.sweep, "_run_trajectory_task")
    with segmented() as segments:
        pass
    assert segments.missing == ["noisycav.sweep._run_trajectory_task"]
    assert len(segments.cuts) == 2


"""Wall times scaled to a fixed speed of the machine.

A host shared with other tenants runs the same pass up to 50% slower from
one second to the next, and the level drifts over minutes, so the median of
raw pass times moves by 10-15% between runs of the same code. Every timed
interval is therefore paired with a reference kernel, run just before and
just after it on the same core, and scaled by REFERENCE_S over the kernel's
mean time at its two ends: the interval as it would read while the kernel
takes REFERENCE_S. A pass is cut into intervals at the start and end of
each PARTS call (each sweep task), so a slow-down that comes and goes
within a pass is caught where it happens. The kernel runs between
intervals, never inside one.

The scaling holds for work that slows down as the kernel does: small
complex matrix products driven from Python, as in the RK4 sweeps, where it
was checked (over ten 30-second runs of the same code, IQR over median of
the scaled median pass: 1-2.5%; of the raw one: about 15%). Dense linear algebra on large matrices
slows down much less, so such a workload is reported unscaled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from importlib import import_module

import numpy as np

from spans import rebound

# The reference kernel's time on an undisturbed core of the host the benchmark
# was defined on (a 2-vCPU Intel Xeon VM at 2.1 GHz): scaled times read about
# as raw times do when nothing else runs there.
REFERENCE_S = 0.75e-3

# Calls at whose start and end a pass is cut: each sweep task (one trajectory).
# One the program no longer has is left out, which leaves longer intervals but
# no error.
PARTS = (("noisycav.sweep", "_run_trajectory_task"),)

_ROUNDS = 60
_RNG = np.random.default_rng(0)
_A = 0.5 * np.linalg.qr(_RNG.standard_normal((24, 24)) + 1j * _RNG.standard_normal((24, 24)))[0]
_X = np.eye(24, dtype=complex)


def kernel_s(clock=time.perf_counter) -> float:
    """Seconds the reference kernel takes now: small complex matrix products, as in one RK4 stage."""
    x = _X.copy()
    start = clock()
    for _ in range(_ROUNDS):
        x = _A @ x + x @ _A
        x = 0.5 * (x + x.conj().T)
    return clock() - start


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """An interval's seconds as they would read while the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))


class Segments:
    """A pass cut into intervals; the kernel runs at every cut, between two intervals."""

    def __init__(self, clock=time.perf_counter, kernel=kernel_s):
        self.clock, self.kernel = clock, kernel
        self.cuts: list[tuple[float, float, float]] = []  # (end of interval before, kernel s, start of next)
        self.missing: list[str] = []

    def cut(self) -> None:
        end = self.clock()
        kernel = self.kernel()
        self.cuts.append((end, kernel, self.clock()))

    def _pairs(self):
        return zip(self.cuts, self.cuts[1:])

    @property
    def wall_s(self) -> float:
        """Raw seconds of the intervals, without the kernel runs between them."""
        return sum(b[0] - a[2] for a, b in self._pairs())

    @property
    def scaled_s(self) -> float:
        return sum(scaled(b[0] - a[2], a[1], b[1]) for a, b in self._pairs())


@contextmanager
def segmented(clock=time.perf_counter, kernel=kernel_s):
    """Cut the block at its start, its end, and the start and end of each PARTS call."""
    segments = Segments(clock, kernel)

    def cut_around(fn):
        def part(*args, **kwargs):
            segments.cut()
            try:
                return fn(*args, **kwargs)
            finally:
                segments.cut()

        return part

    wrappers = {}
    for module_name, attr in PARTS:
        original = getattr(import_module(module_name), attr, None)
        if original is None:
            segments.missing.append(f"{module_name}.{attr}")
        else:
            wrappers[id(original)] = (original, cut_around(original))
    with rebound(wrappers):
        segments.cut()
        try:
            yield segments
        finally:
            segments.cut()

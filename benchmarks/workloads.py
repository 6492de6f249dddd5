"""The benchmark's workloads and the inputs each seed generates for them.

The program only ever sees the command line built here. Seed 0 passes the
presets unchanged. Any other seed jitters the base parameters through
`--set`: gamma within [0.15, 0.25], and the two couplings along the circle
g_a^2 + g_b^2 = 2 at an angle within [36, 54] degrees (so g_b / g_a lies in
[0.73, 1.38]). The collective coupling g, and with it the evaluation time
1/(2g) and the number of fixed RK4 steps, stays the same, so every seed asks
for the same amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from oracle import Physics

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "steady"
    cutoff: int
    preset: str = ""
    points: int = 0
    n_thermal: float = 0.0
    oracle_cells: int = 0  # sweep cells checked against the oracle per seed
    # wall_s scaled to a fixed machine speed (speed.py). Only where the work
    # slows down like the reference kernel: the sweeps' small matrix products
    # do, the dense steady-state solve much less, so it is reported raw.
    scaled: bool = True

    def overrides(self, seed: int) -> dict[str, float]:
        values = {"n_thermal": self.n_thermal} if self.command == "steady" else {}
        if seed != 0:
            rng = random.Random(seed)
            angle = math.radians(45.0 * rng.uniform(0.8, 1.2))
            values.update(
                gamma=0.2 * rng.uniform(0.75, 1.25),
                g_a=SQRT2 * math.cos(angle),
                g_b=SQRT2 * math.sin(angle),
            )
        return values

    def argv(self, seed: int, out: str) -> list[str]:
        sets = [arg for key, value in self.overrides(seed).items() for arg in ("--set", f"{key}={value!r}")]
        if self.command == "steady":
            return ["steady", "--cutoff", str(self.cutoff), "--out", out, *sets]
        return ["sweep", "--preset", self.preset, "--points", str(self.points), "--cutoff", str(self.cutoff),
                "--workers", "1", "--out", out, *sets]

    def warmup_argv(self, out: str) -> list[str]:
        """A small run of the same command, to finish lazy set-up before timing."""
        if self.command == "steady":
            return ["steady", "--cutoff", "2", "--out", out]
        return ["sweep", "--preset", self.preset, "--points", "2", "--cutoff", "2", "--workers", "1", "--out", out]

    def physics(self, seed: int, **axes: float) -> Physics:
        return Physics(cutoff=self.cutoff, **{**self.overrides(seed), **axes})

    def axes(self) -> tuple[tuple[str, np.ndarray], tuple[str, np.ndarray]]:
        """Axis names and values of the preset grid, as the preset defines them."""
        n = self.points
        noise = ("n_thermal", np.linspace(0.0, 3.0, n))
        if self.preset == "fig2":
            return noise, ("time", np.linspace(0.0, 5.0, n))
        return noise, ("kappa", np.array([5.0 * k / n for k in range(1, n + 1)]))

    def evaluation_time(self, seed: int) -> float:
        p = self.physics(seed)
        return 1.0 / (2.0 * math.hypot(p.g_a, p.g_b))

    def first_model(self, seed: int) -> dict[str, float]:
        """SystemConfig fields of the first model the workload builds."""
        fields = {"cutoff": self.cutoff, **self.overrides(seed)}
        if self.command == "sweep":
            (name1, values1), (name2, values2) = self.axes()
            fields[name1] = float(values1[0])
            if name2 != "time":
                fields[name2] = float(values2[0])
        return fields

    def oracle_sample(self, seed: int) -> list[tuple[int, int]]:
        """Grid cells (i, j) compared with the oracle, chosen by the seed."""
        cells = [(i, j) for i in range(self.points) for j in range(self.points)]
        return sorted(random.Random(f"{self.name}/{seed}").sample(cells, self.oracle_cells))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig3_map", "sweep", cutoff=5, preset="fig3", points=10, oracle_cells=10),
        Workload("fig2_timeaxis", "sweep", cutoff=5, preset="fig2", points=6, oracle_cells=6),
        Workload("steady_cutoff10", "steady", cutoff=10, n_thermal=0.5, scaled=False),
    )
}

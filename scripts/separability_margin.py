#!/usr/bin/env python3
"""Map the separability margin of the thermally driven two-atom system.

For each (noise intensity, time) cell of one `run_sweep` grid this records
`ConcurrenceResult.margin`, the unclamped l1 - l2 - l3 - l4 of the reduced
two-atom state (concurrence is its positive part). Starting from |g,g,0> the
margin stays negative across the whole grid: the symmetric coherence built
through the bus is always outmatched by the bunching-fed double excitation,
so the atoms never cross the separability boundary. The CSV makes that
margin and its distance to zero inspectable.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from noisycav.dynamics import IntegratorSettings
from noisycav.model import SystemConfig
from noisycav.sweep import SweepAxis, SweepSpec, run_sweep


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="separability_margin.csv")
    parser.add_argument("--nt-max", type=float, default=3.0)
    parser.add_argument("--nt-points", type=int, default=16)
    parser.add_argument("--t-max", type=float, default=5.0)
    parser.add_argument("--t-points", type=int, default=20)
    parser.add_argument("--dt", type=float, default=0.002)
    args = parser.parse_args(argv)
    for flag, count in (("--nt-points", args.nt_points), ("--t-points", args.t_points)):
        if count < 1:
            parser.error(f"{flag} must be at least 1, got {count}")
    for flag, value in (("--t-max", args.t_max), ("--dt", args.dt)):
        if not (math.isfinite(value) and value > 0):
            parser.error(f"{flag} must be positive and finite, got {value:g}")
    try:  # the largest noise and the step must be valid settings before any cell runs
        settings = IntegratorSettings(dt=args.dt, t_max=args.t_max)
        SystemConfig(n_thermal=args.nt_max)
    except ValueError as err:
        parser.error(str(err))

    n_ts = np.linspace(0.0, args.nt_max, args.nt_points)
    times = np.linspace(args.t_max / args.t_points, args.t_max, args.t_points)
    spec = SweepSpec(SystemConfig(), SweepAxis("n_thermal", n_ts), SweepAxis("time", times))
    rows = [(cell.axis1_value, cell.axis2_value, cell.margin) for row in run_sweep(spec, settings).cells
            for cell in row]

    lines = ["n_thermal,t,margin"]
    lines += [f"{n_t:.12g},{t:.12g},{m:.12g}" for n_t, t, m in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")

    peak = max(m for _, _, m in rows)
    where = [(n_t, t) for n_t, t, m in rows if m == peak][0]
    print(f"wrote {args.out}; largest margin {peak:.3e} at n_T={where[0]:.3g}, t={where[1]:.3g} "
          f"({'entangled' if peak > 0 else 'separable everywhere'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())

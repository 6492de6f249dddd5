#!/usr/bin/env python3
"""Run the three preset concurrence maps and write CSVs for plotting.

Writes one <preset>.csv per CLI sweep preset (fig2: noise intensity x time,
fig3: noise x cavity decay, fig4: noise x atomic decay), each with a
.summary.csv sidecar giving the per-row maximum location. Options left out
take the CLI's defaults. Downstream plotting tools consume the CSVs.
"""

import argparse
import sys
from pathlib import Path

from noisycav.cli import main as noisycav_main
from noisycav.sweep import PRESETS


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--points", type=int, help="grid points per axis (default: the CLI's)")
    parser.add_argument("--workers", type=int, help="parallel trajectory workers (default: the CLI's)")
    parser.add_argument("--cutoff", type=int, help="Fock cutoff (default: the CLI's)")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for preset in PRESETS:
        out = outdir / f"{preset}.csv"
        cmd = ["sweep", "--preset", preset, "--out", str(out)]
        for flag, value in (("--points", args.points), ("--cutoff", args.cutoff), ("--workers", args.workers)):
            if value is not None:
                cmd += [flag, str(value)]
        code = noisycav_main(cmd)
        if code != 0:
            print(f"{preset}: failed with exit code {code}", file=sys.stderr)
            return code
        print(f"{preset}: wrote {out} and {out}.summary.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())

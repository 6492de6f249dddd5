"""The CLI's JSON outputs against a stored reference, `data/cli_reference.json`.

For each command line it holds, the reference has the table the command
writes and, for a two-axis sweep, the `.summary.json` sidecar. Every number
must match within rtol 1e-10 and atol 1e-14, and every other value exactly.
`trace_residual` and `liouvillian_residual` are round-off whose digits depend
on the BLAS build, so each is checked only against its gate: the drift
tolerance, and the steady state's residual bound.

The reference is regenerated only for a change of output that CHANGES.md
states, by running this file as a script:

    PYTHONPATH=src python tests/test_cli_reference.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from noisycav.cli import _build_parser, _load_run_config, main
from noisycav.model import build_cavity_model, build_model
from noisycav.qops import TOLERANCE

REFERENCE = Path(__file__).resolve().parent / "data" / "cli_reference.json"

COMMANDS = {
    "fig2": "sweep --preset fig2 --points 4",
    "fig3": "sweep --preset fig3 --points 4",
    "fig4": "sweep --preset fig4 --points 4",
    "fig3_cutoff10_asymmetric": "sweep --preset fig3 --points 3 --cutoff 10 --set g_a=1.2 --set g_b=0.75",
    "evolve": "evolve --set n_thermal=1 --set t_max=1",
    "steady_cutoff10": "steady --cutoff 10 --set n_thermal=0.5 --set g_a=1.2",
    "steady_cavity": "steady --cavity-only --set n_thermal=1.5",
}


def run(command, directory):
    """Run `command` as JSON into `directory`: {"table": its output, "summary": the sidecar or None}."""
    out = Path(directory) / "out.json"
    assert main(command.split() + ["--format", "json", "--out", str(out)]) == 0
    summary = Path(f"{out}.summary.json")
    return {"table": json.loads(out.read_text()),
            "summary": json.loads(summary.read_text()) if summary.exists() else None}


def residual_bound(command):
    """`steady_state`'s bound on its residual for `command`: TOLERANCE times the largest coupling or rate."""
    args = _build_parser().parse_args(command.split())
    cfg = _load_run_config(args).system
    model = build_cavity_model(cfg) if getattr(args, "cavity_only", False) else build_model(cfg)
    return TOLERANCE * max(float(np.abs(model.hamiltonian).max()), *(rate for rate, _ in model.collapse_terms))


def compare(got, want, command, where="output"):
    """Assert that `got` matches `want` field by field; the round-off fields only pass their gates."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            if key == "trace_residual":
                assert 0.0 <= got[key] <= TOLERANCE, f"{where}.{key}"
            elif key == "liouvillian_residual":
                assert 0.0 <= got[key] <= residual_bound(command), f"{where}.{key}"
            else:
                compare(got[key], want[key], command, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            compare(g, w, command, f"{where}[{k}]")
    elif isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-14), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_the_reference(name, tmp_path):
    reference = json.loads(REFERENCE.read_text())[name]
    assert reference["command"] == COMMANDS[name]
    got = run(COMMANDS[name], tmp_path)
    compare(got, {"table": reference["table"], "summary": reference["summary"]}, COMMANDS[name])


if __name__ == "__main__":
    import tempfile

    outputs = {}
    for name, command in COMMANDS.items():
        with tempfile.TemporaryDirectory() as directory:
            outputs[name] = {"command": command, **run(command, directory)}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)

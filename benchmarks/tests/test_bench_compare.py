import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import quartiles, verdict, wins

BENCH = Path(__file__).resolve().parents[1]


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_wins_ignore_ties_and_follow_direction():
    assert wins([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "lower") == 1
    assert wins([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "higher") == 1
    assert wins([1.0, 1.0], [2.0, 3.0], "higher") == 2


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    assert verdict(parent, [p * 0.8 for p in parent], 0.1, "lower") == "gain"
    assert verdict(parent, [p * 1.2 for p in parent], 0.1, "lower") == "regression"
    assert verdict(parent, [p * 1.05 for p in parent], 0.1, "lower") == "no regression"
    assert verdict(parent, [p * 1.2 for p in parent], 0.1, "higher") == "gain"
    # Nine wins in ten still count as a gain; eight do not.
    nine = [p * 0.8 for p in parent[:9]] + [parent[9] * 1.01]
    eight = [p * 0.8 for p in parent[:8]] + [parent[8] * 1.01, parent[9] * 1.01]
    assert verdict(parent, nine, 0.1, "lower") == "gain"
    assert verdict(parent, eight, 0.1, "lower") != "gain"
    # Fewer than ten pairs never make a gain.
    assert verdict(parent[:9], [p * 0.8 for p in parent[:9]], 0.1, "lower") == "no regression"


def test_spread_wider_than_bound_is_unresolved_unless_every_run_is_better():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0, 10.0, 9.5, 10.5]
    assert verdict(noisy, [x * 1.01 for x in noisy], 0.1, "lower") == "unresolved"
    assert verdict(noisy, [x * 0.95 for x in noisy], 0.1, "lower") == "unresolved"
    assert verdict(noisy, [6.0 + 0.01 * k for k in range(10)], 0.1, "lower") != "unresolved"
    assert verdict(noisy, [x * 1.01 for x in noisy], None, "lower") == "-"


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "fig3_map", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

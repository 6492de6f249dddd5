"""Compare a parent and a changed checkout on the benchmark.

    python3 benchmarks/compare.py --parent ../parent --change . --pairs 10

Runs `benchmarks/run.py` of each checkout in pairs, one seed per pair,
alternating which side runs first, with the same settings on both sides. For
every workload of BENCHMARK.json and every metric it prints each side's median
and quartiles and a verdict: "gain" when at least ten pairs ran, the change is
better in at least nine tenths of them (ties count for neither) and the
medians differ by more than the parent's own quartile spread; "unresolved"
when either side's run-to-run spread (the distance between its quartiles) is
wider than the metric's bound, unless every change run beats every parent run;
"regression" when the change's median is worse than the parent's by more than
the bound; "no regression" otherwise. Pass wall times are pooled over the runs
of a side to give a tail percentile with at least ten samples above it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import tail_percentile

MIN_PAIRS = 10  # fewest pairs on which a gain may be claimed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better than the parent; ties count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], bound: float | None, better: str) -> str:
    """Verdict for one metric on one workload; parent[k] and change[k] ran as pair k."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: x reads worse than y
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    won = wins(parent, change, better)
    if len(parent) >= MIN_PAIRS and won >= 0.9 * len(parent) and sign * (pmed - cmed) > p3 - p1:
        return "gain"
    if bound is None:
        return "-"
    too_wide = p3 - p1 > bound * abs(pmed) or c3 - c1 > bound * abs(cmed)
    if too_wide and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    if sign * (cmed - pmed) > bound * abs(pmed):
        return "regression"
    return "no regression"


def run_side(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    passes = next(json.loads(line[len("passes "):]) for line in lines if line.startswith("passes "))
    return {**json.loads(lines[-1]), "pass_wall_s": passes["wall_s"]}


def bench_digest(checkout: Path) -> str:
    h = hashlib.sha256((checkout / "BENCHMARK.json").read_bytes())
    for path in sorted((checkout / "benchmarks").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    if bench_digest(args.parent) != bench_digest(args.change):
        print("warning: the two checkouts carry different benchmark code", file=sys.stderr)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    runs = {name: {"parent": [], "change": []} for name in names}
    for name in names:
        for pair in range(args.pairs):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                runs[name][side].append(run_side(checkout, name, pair, spec["run_seconds"], args.trace))
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1) + "\n")

    print(f"{'workload':16s} {'metric':32s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'wins':>6s}  verdict")
    for name in names:
        sides = runs[name]
        failed = {side: sum(r["failed"] for r in sides[side]) for side in sides}
        for m in metrics:
            values = {side: [r["metrics"][m["name"]]["value"] for r in sides[side]] for side in sides}
            won = wins(values["parent"], values["change"], m["better"])
            cells = []
            for side in ("parent", "change"):
                q1, med, q3 = quartiles(values[side])
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            result = verdict(values["parent"], values["change"], m.get("bound"), m["better"])
            if result == "gain" and failed["change"] > failed["parent"]:
                result = "no gain: more failed operations"
            print(f"{name:16s} {m['name']:32s} {cells[0]:34s} {cells[1]:34s} {won:3d}/{args.pairs:<3d} {result}")
        for side in ("parent", "change"):
            pooled = [w for r in sides[side] for w in r["pass_wall_s"]]
            tail = tail_percentile(pooled)
            tail_text = f"p{tail[0]} {tail[1]:.6g} s" if tail else "n/a (fewer than 20 passes)"
            print(f"{name:16s} {side} passes {len(pooled)}, wall_s tail {tail_text}, failed {failed[side]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

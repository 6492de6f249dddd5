"""Benchmark of the noisycav command line, one workload per invocation.

    python3 benchmarks/run.py --workload fig3_map --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from ./src.
Each pass calls `noisycav.cli.main` in this process with BLAS pinned to one
thread and `--workers 1`, and writes its CSV into a scratch directory inside
the checkout that is removed on exit. Passes repeat until `--seconds` have
elapsed. Every pass's output is checked (outside the timed region) against
the gates and the oracle of `checks.py`. With `--trace 0` the end-to-end
metrics are reported; with `--trace 1`, untraced and traced passes alternate
and the per-layer metrics of `spans.py` are reported, the traced medians
against the untraced ones. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. An operation is one
grid cell or one steady solve; `failed / attempted` is the error rate.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every interpreter started from here.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, layer_metrics, tail_percentile  # noqa: E402
from speed import kernel_s, scaled, segmented  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import noisycav.cli
from noisycav.model import SystemConfig, build_model, standard_observables
cfg = SystemConfig(**json.loads(sys.argv[2]))
build_model(cfg)
standard_observables(cfg)
print("ready", flush=True)
"""


def time_setup(first_model: dict) -> float:
    """Seconds from starting a fresh interpreter to `import noisycav` done and the first model built.

    Scaled to the reference speed of `speed.py` by the kernel run just before and just after.
    """
    before = kernel_s()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(first_model)],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        after = kernel_s()
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up interpreter failed with exit code {child.returncode}")
    return scaled(elapsed, before, after)


def environment() -> dict:
    import numpy
    import noisycav

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = hashlib.sha256()
    for path in sorted((SRC / "noisycav").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "noisycav": noisycav.__version__,
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": 1,  # every sweep workload passes --workers 1
    }


def call(main, argv):
    """Exit code of the command line, or a description of what it raised."""
    try:
        return main(argv)
    except SystemExit as err:  # argparse rejected the command line
        return err.code
    except Exception as err:  # a crash is a failed pass, not a crashed benchmark
        return f"{type(err).__name__}: {err}"


def check_pass(w, seed, refs, code, stderr, texts) -> tuple[int, int, str | None]:
    """(operations attempted, operations failed, first reason) for one pass."""
    operations = w.points * w.points if w.command == "sweep" else 1
    if code != 0:
        return operations, operations, f"exit {code}: {stderr.strip()}"
    if w.command == "steady":
        reason = checks.check_steady(w, refs, texts[0])
        return operations, int(reason is not None), reason
    reasons = checks.check_sweep(w, seed, refs, *texts)
    return operations, len(reasons), next(iter(reasons.values()), None)


def run(args) -> dict:
    import noisycav
    import noisycav.cli

    if Path(noisycav.__file__).resolve().parent != (SRC / "noisycav").resolve():
        raise RuntimeError(f"noisycav imported from {noisycav.__file__}, not from {SRC}")
    w = WORKLOADS[args.workload]
    env = environment()
    # One core for the whole run, set-up interpreters included: the kernel of
    # speed.py then always measures the core the program runs on.
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    print("env " + json.dumps({**env, "pinned_cpu": core}), flush=True)

    # Before the timed loop: references, a first set-up, warm-up.
    refs = checks.sweep_references(w, args.seed) if w.command == "sweep" else checks.steady_reference(w, args.seed)
    first_model = w.first_model(args.seed)
    setups = []
    if not args.trace:
        time_setup(first_model)  # writes the bytecode caches a user's first run would leave behind
    work = Path(tempfile.mkdtemp(prefix=".noisycav-bench-", dir=ROOT))
    try:
        out = str(work / "out.csv")
        argv = w.argv(args.seed, out)
        with contextlib.redirect_stderr(io.StringIO()):
            call(noisycav.cli.main, w.warmup_argv(str(work / "warmup.csv")))  # a failure shows in the passes

        walls = {False: [], True: []}
        scaled_walls = []  # wall_s of each untraced pass
        missing_parts = []
        per_layer = []
        attempted = failed = 0
        digests = set()
        first_failure = None
        started = time.perf_counter()
        while not walls[bool(args.trace)] or time.perf_counter() - started < args.seconds:
            traced = bool(args.trace) and len(walls[False]) > len(walls[True])
            for stale in work.glob("out.*"):
                stale.unlink()
            gc.collect()
            tracer = Tracer()
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                if traced:
                    with tracer.installed():
                        t0 = time.perf_counter()
                        code = call(noisycav.cli.main, argv)
                        wall = time.perf_counter() - t0
                else:
                    with segmented() as segments:
                        code = call(noisycav.cli.main, argv)
                    wall = segments.wall_s
                    scaled_walls.append(segments.scaled_s)
                    missing_parts = segments.missing
            walls[traced].append(wall)
            # Set-up samples are spread over the run like the passes, so both see the same machine.
            share = min(1.0, (time.perf_counter() - started) / args.seconds)
            while not args.trace and len(setups) < SETUP_REPEATS * share:
                setups.append(time_setup(first_model))

            files = [Path(out), Path(f"{out}.summary.csv")] if w.command == "sweep" else [Path(out)]
            texts = [p.read_text() if p.exists() else "" for p in files]
            digests.add(tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts))
            operations, bad, reason = check_pass(w, args.seed, refs, code, stderr.getvalue(), texts)
            attempted += operations
            failed += bad
            first_failure = first_failure or reason
            if traced:
                per_layer.append({**layer_metrics(tracer), "trace.wall_s": wall})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: statistics.median(p[name] for p in per_layer) for name in per_layer[0]}
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(scaled_walls if w.scaled else walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    seed_digests = json.loads((BENCH / "seed_digests.json").read_text())
    reference = seed_digests.get(w.name) if args.seed == 0 else None
    return {
        "walls": walls, "missing_parts": missing_parts, "metrics": metrics, "attempted": attempted, "failed": failed,
        "first_failure": first_failure, "digests": sorted(digests), "reference": reference,
    }


def report(args, result) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    walls = result["walls"][bool(args.trace)]
    untraced = f" (and {len(result['walls'][False])} untraced)" if args.trace else ""
    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}{untraced}")
    print("passes " + json.dumps({"wall_s": walls}))
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {kind}: {sorted(units)}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        if WORKLOADS[args.workload].scaled:
            print(f"  {'wall_s unscaled':34s} {statistics.median(walls):14.6g} s (median raw pass)")
        if result["missing_parts"]:
            print(f"  passes not cut at: {', '.join(result['missing_parts'])} (the program no longer has them)")
        tail = tail_percentile(walls)
        print(f"  {'wall_s tail':34s} " + (f"{tail[1]:14.6g} s (p{tail[0]} of {len(walls)} passes)" if tail else
                                           f"n/a: {len(walls)} passes; compare.py pools passes across runs"))
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':34s} {rate:14.6g} failed/attempted ({result['failed']}/{result['attempted']})")
    if result["first_failure"]:
        print(f"  first failure: {result['first_failure']}")
    digests = result["digests"]
    match = None if result["reference"] is None else digests == [tuple(result["reference"])]
    print("digests " + json.dumps({"sha256": digests, "stable": len(digests) == 1, "matches_seed_digest": match}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 runs the presets unchanged")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long the passes repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "noisycav" / "cli.py").is_file():
        print(f"error: no noisycav sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that the scratch directory is removed
    report(args, run(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark: one command, every workload, answers checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``. The workloads are listed in ``BENCHMARK.json`` and defined in
``workloads.py``. A run sets its workload up several times and reports
the median set-up time as ``setup_s``, measures the last set-up for
``--seconds``, checks every answer, and prints the end-to-end metrics
as the last line of its output:

    {"correct": true, "attempted": 812, "failed": 0,
     "metrics": {"p50_ms": {"value": 1.93, "unit": "ms"}, ...}}

With ``--trace 1`` it measures once more with every layer wrapped (see
``layers.py``), prints the traced end-to-end numbers beside the
untraced ones (their ratio is the tracing overhead), checks that the
exact simulated statistics did not move, and reports the per-layer
metrics instead. A failed check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 2


def _provenance(seed: int) -> dict:
    """Seed, host and source identity of this run."""
    import numpy

    commit, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
                check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit, dirty = None, None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def _e2e(win, setup_s: float) -> dict:
    from workloads import percentile

    return {
        "ops_per_s": win.ops / win.wall_s,
        "p50_ms": percentile(win.latencies_s, 50) * 1e3,
        "p90_ms": percentile(win.latencies_s, 90) * 1e3,
        "setup_s": setup_s,
    }


def _measure(make, seed: int, seconds: float, repeats: int, recorder=None):
    """Set up ``repeats`` times, measure the last set-up, check it.

    Returns ``(window, set-up times)``. Every set-up but the last is
    closed before the next starts, so one system runs at a time. A
    ``recorder`` wraps the layers for the measured window only.
    """
    setups = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        workload = make(seed)
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    try:
        win = workload.measure(seconds, recorder)
        workload.check(win)
    finally:
        workload.close()
    if not win.latencies_s:
        raise RuntimeError("no operation completed: " + "; ".join(win.problems))
    return win, setups


def _print_window(tag: str, name: str, win, e2e: dict) -> None:
    print(f"{tag} {name}: {win.ops} ops in {win.wall_s:.2f} s")
    for key, value in e2e.items():
        print(f"  {key:<10} {value:12.4f}")
    for key, value in win.named.items():
        print(f"  {key:<24} {value:12.4f}")
    print(f"  exact over {win.exact_unit}: " + json.dumps(win.exact, sort_keys=True))
    mix = {k: round(v, 4) for k, v in win.counts.items()}
    print("  path mix per op: " + json.dumps(mix, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    from layers import NamedPoolPolicy, Recorder, per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    asyncio.set_event_loop_policy(NamedPoolPolicy())
    make = WORKLOADS[args.workload]
    print("provenance " + json.dumps(_provenance(args.seed), sort_keys=True))

    repeats = 1 if args.trace else SETUP_REPEATS
    win, setups = _measure(make, args.seed, args.seconds, repeats)
    setup_s = statistics.median(setups)
    e2e = _e2e(win, setup_s)
    print(f"setup_s, median of: {', '.join(f'{s:.3f}' for s in setups)}")
    _print_window("untraced", args.workload, win, e2e)
    problems = list(win.problems)
    attempted, failed = win.attempted, win.failed

    if args.trace:
        recorder = Recorder()
        traced, _ = _measure(make, args.seed, args.seconds, 1, recorder)
        traced_e2e = _e2e(traced, setup_s)
        _print_window("traced", args.workload, traced, traced_e2e)
        for key in ("ops_per_s", "p50_ms", "p90_ms"):
            print(f"  tracing overhead {key}: x{traced_e2e[key] / e2e[key]:.3f}")
        problems += traced.problems
        if traced.exact != win.exact:
            problems.append(f"tracing moved exact statistics: {traced.exact}")
        attempted += traced.attempted
        failed += traced.failed
        values = per_layer(recorder, traced)
        declared = spec["per_layer"]
    else:
        values = e2e
        declared = spec["end_to_end"]

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

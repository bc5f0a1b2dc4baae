"""setfix benchmark: one workload, one closed-loop caller, one result line.

    python3 perfbench/run.py --workload sqrt34 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: setfix is imported from ``src/``
there and nowhere else.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; setup_s is the median of their calibrated times.
SETUPS = 15

#: Fixed work, sharing no code with setfix, timed before and after every
#: set-up and every group of passes.  It does the two kinds of work setfix
#: does: interval lists in plain Python (merge 600 spans into a union, then
#: scan it for the distance of 60 points), and numpy sorts and products over
#: arrays larger than the CPU caches.  Host slow spells stretch it as they
#: stretch setfix.  The arrays are allocated once, so peak_rss_mb holds them
#: as a constant 12 MB.
_CAL_RNG = np.random.default_rng(0)
CAL_SPANS = [(lo, lo + width) for lo, width in zip(_CAL_RNG.uniform(0.0, 100.0, 600).tolist(),
                                                   _CAL_RNG.uniform(0.0, 0.3, 600).tolist())]
CAL_POINTS = _CAL_RNG.uniform(0.0, 100.0, 60).tolist()
CAL_PY_ROUNDS = 48
CAL_A, CAL_B = _CAL_RNG.random(500_000), _CAL_RNG.random(500_000)
CAL_OUT = np.empty_like(CAL_A)
CAL_NP_ROUNDS = 6

#: Passes are timed in groups of at least this many seconds between two
#: calibrations, so that calibrating costs little even on short passes.
GROUP_S = 2.0

#: Timings are reported in reference seconds: measured seconds times
#: CAL_REF_S over the mean of the calibrations just before and just after
#: them, as a median over set-ups or groups.  CAL_REF_S is a fixed scale,
#: close to one calibration's wall seconds on the 2-vCPU machine the benchmark
#: was defined on, so reference seconds read close to seconds there.
CAL_REF_S = 0.12

#: Failures described on stderr per run; all of them are counted.
SHOWN_FAILURES = 5


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def import_setfix():
    """A fresh import of the checkout's setfix (numpy stays imported)."""
    for name in [n for n in sys.modules if n == "setfix" or n.startswith("setfix.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sf = importlib.import_module("setfix")
    if SRC not in Path(sf.__file__).resolve().parents:
        raise ImportError(f"setfix was imported from {sf.__file__}, not from {SRC}")
    return sf


def _span_distance(p: float, union: list[tuple[float, float]]) -> float:
    best = math.inf
    for lo, hi in union:
        d = lo - p if p < lo else (p - hi if p > hi else 0.0)
        if d < best:
            best = d
    return best


def calibration() -> tuple[float, float]:
    """Wall and CPU seconds of the fixed calibration work."""
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(CAL_PY_ROUNDS):
        union: list[tuple[float, float]] = []
        for lo, hi in sorted(CAL_SPANS):
            if union and lo <= union[-1][1]:
                union[-1] = (union[-1][0], max(union[-1][1], hi))
            else:
                union.append((lo, hi))
        sum(_span_distance(p, union) for p in CAL_POINTS)
    for _ in range(CAL_NP_ROUNDS):
        np.copyto(CAL_OUT, CAL_A)
        CAL_OUT.sort()
        np.multiply(CAL_A, CAL_B, out=CAL_OUT)
        np.add(CAL_OUT, CAL_A, out=CAL_OUT)
    return time.perf_counter() - t0, time.process_time() - c0


def calibrated(seconds: list[float], calibrations: list[float]) -> float:
    """Median of seconds[i] over the mean of calibrations i and i + 1, in
    reference seconds."""
    return CAL_REF_S * statistics.median(
        t / ((before + after) / 2)
        for t, before, after in zip(seconds, calibrations, calibrations[1:]))


def git_commit() -> str | None:
    """HEAD of the checkout's own git repository, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(sf) -> dict:
    thread_count = getattr(sf.certify, "_thread_count", None)
    return {
        "nproc": usable_cores(),
        "SETFIX_THREADS": os.environ.get("SETFIX_THREADS"),
        "setfix_threads_resolved": thread_count() if thread_count else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "loop": "closed, 1 caller",
    }


class Runner:
    """Calls the workload's operation on each item and gates every result."""

    def __init__(self, wl, sf) -> None:
        self.wl, self.sf = wl, sf
        self.attempted = self.failed = 0
        self.walls: list[float] = []   # per pass
        self.cpus: list[float] = []    # per pass

    def one_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """Run every item once; returns the pass's wall seconds."""
        wall = cpu = 0.0
        for index, item in enumerate(self.wl.items):
            if tracer:
                tracer.begin_op()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result, problem = self.wl.op(self.sf, item), None
            except Exception:  # a raising operation is a counted failure
                result, problem = None, traceback.format_exc()
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if tracer:
                tracer.end_op()
            self.attempted += 1
            if problem is None:
                problem = self.wl.check(index, result)
            if problem is not None:
                self.failed += 1
                if self.failed <= SHOWN_FAILURES:
                    print(f"FAIL item {index}: {problem}", file=sys.stderr)
        self.walls.append(wall)
        self.cpus.append(cpu)
        return wall


def run(name: str, seed: int, seconds: float, trace: bool, wl=None) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, environment record)."""
    wl = workloads.make(name) if wl is None else wl
    wl.draw(np.random.default_rng(seed))
    setup_walls, setup_cals = [], [calibration()[0]]
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        sf = import_setfix()
        wl.setup(sf)
        setup_walls.append(time.perf_counter() - t0)
        setup_cals.append(calibration()[0])
    env = environment(sf)

    runner = Runner(wl, sf)
    deadline = time.perf_counter() + seconds
    if not trace:
        group_walls, group_cpus = [], []
        cal_wall, cal_cpu = calibration()
        cal_walls, cal_cpus = [cal_wall], [cal_cpu]
        while True:
            first, group_end = len(runner.walls), time.perf_counter() + GROUP_S
            while True:
                runner.one_pass()
                if time.perf_counter() >= group_end:
                    break
            group_walls.append(statistics.fmean(runner.walls[first:]))
            group_cpus.append(statistics.fmean(runner.cpus[first:]))
            cal_wall, cal_cpu = calibration()
            cal_walls.append(cal_wall)
            cal_cpus.append(cal_cpu)
            if time.perf_counter() >= deadline:
                break
        print(f"{name}: {len(runner.walls)} passes of {len(wl.items)} operations in "
              f"{len(group_walls)} groups; measured pass wall seconds: median "
              f"{statistics.median(runner.walls):.6g}, fastest {min(runner.walls):.6g}, "
              f"slowest {max(runner.walls):.6g}; median calibration "
              f"{statistics.median(cal_walls):.6g} s (reference {CAL_REF_S} s)",
              file=sys.stderr)
        metrics = {
            "run_s": calibrated(group_walls, cal_walls),
            "cpu_s": calibrated(group_cpus, cal_cpus),
            "setup_s": calibrated(setup_walls, setup_cals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        }
    else:
        setup_trace, ops_trace = tracing.Tracer(), tracing.Tracer()
        with setup_trace.installed(sf):
            setup_trace.begin_op()
            wl.setup(sf)
            setup_trace.end_op()
        plain, traced = [], []
        while True:
            plain.append(runner.one_pass())
            with ops_trace.installed(sf):
                traced.append(runner.one_pass(ops_trace))
            if time.perf_counter() >= deadline:
                break
        per_op = len(wl.items)
        untraced_s = min(plain) / per_op
        overhead_s = min(traced) / per_op - untraced_s
        metrics = tracing.layer_metrics(ops_trace, setup_trace, overhead_s, untraced_s)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, env


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(metrics: dict[str, float], trace: bool) -> dict[str, dict]:
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sqrt34", "square_half", "set_algebra"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    os.environ["SETFIX_THREADS"] = str(usable_cores())
    try:
        result, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import setfix from {SRC}: {exc}", file=sys.stderr)
        return 2
    result["metrics"] = with_units(result["metrics"], bool(args.trace))
    for k, m in result["metrics"].items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": dict(env, workload=args.workload, seed=args.seed,
                                  seconds=args.seconds, trace=args.trace)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

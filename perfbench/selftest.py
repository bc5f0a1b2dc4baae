"""Self-test of the benchmark: every workload at minimal size, and the gate.

    python3 perfbench/selftest.py

Checks that calibrated times cancel a uniform host slowdown, runs each
workload for one pass with and without tracing, checks that the result line
names exactly the metrics of BENCHMARK.json with their units, and checks
that corrupted golden reports, corrupted set-algebra results and raising
operations are counted as failures.  Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import statistics
import sys

import numpy as np

import run
import workloads

SEED = 7


def result_line(name: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    assert code == 0, f"{name}: exit code {code}"
    assert "env" in json.loads(lines[-2]), f"{name}: no environment record"
    return json.loads(lines[-1])


def check_result_lines() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = result_line(wl["name"], trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            declared = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            assert got == declared, f"{wl['name']} trace {trace}: metrics or units differ"
            for k, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), k
            if trace == 0:
                assert all(m["value"] > 0 for m in res["metrics"].values()), res["metrics"]
            print(f"ok  {wl['name']} --trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} operations")


def check_calibration() -> None:
    # a host twice as slow stretches passes and calibrations alike
    quiet = run.calibrated([2.0, 2.2], [0.05, 0.05, 0.06])
    slow = run.calibrated([4.0, 4.4], [0.10, 0.10, 0.12])
    assert math.isclose(quiet, slow), (quiet, slow)
    assert math.isclose(quiet, run.CAL_REF_S * statistics.median([2.0 / 0.05, 2.2 / 0.055]))
    wall, cpu = run.calibration()
    assert wall > 0 and cpu > 0, (wall, cpu)
    print("ok  calibrated times cancel a uniform slowdown")


def corruptions(golden: dict):
    """(label, corrupted copy) pairs, one field each."""
    edits = {
        "certificate alpha": lambda g: g["certificates"]["TG"].__setitem__("alpha", 0.9),
        "witness pair": lambda g: g["certificates"]["T"]["witness"].__setitem__("x", 0.3),
        "constant l": lambda g: g["constants"].__setitem__("l", 16.0 / 17.0),
        "fixed points": lambda g: g["fixed_points"]["T"]["strict"].append(2.0),
        "harness verdict": lambda g: g["stability"][0].__setitem__("holds", False),
    }
    for label, edit in edits.items():
        g = copy.deepcopy(golden)
        edit(g)
        yield label, g


def check_scenario_gate() -> None:
    golden = workloads.load_golden("sqrt_takahashi_34")
    assert golden["certificates"]["TG"]["alpha"] == 0.875
    assert golden["certificates"]["T"]["witness"]["x"] == 0.25
    assert golden["certificates"]["T"]["witness"]["y"] == 1.0
    square = workloads.load_golden("square_takahashi_half")
    assert square["constants"]["l"] == 16.0 / 17.0

    bad = dict(corruptions(golden))["certificate alpha"]
    wl = workloads.ScenarioWorkload("sqrt_takahashi_34", "sqrt", golden=bad)
    res, _ = run.run("sqrt34", SEED, 0, False, wl=wl)
    assert res["failed"] == res["attempted"] == 1 and not res["correct"], res
    assert res["metrics"]["ok_frac"] == 0.0
    print("ok  corrupted golden report counted as a failure")

    sf = run.import_setfix()
    wl.setup(sf)
    report = wl.op(sf, wl.items[0])
    wl.golden = golden
    assert wl.check(0, report) is None, "the real golden report must pass"
    for label, g in corruptions(golden):
        wl.golden = g
        assert wl.check(0, report) is not None, f"gate missed a corrupted {label}"
        print(f"ok  gate rejects a corrupted {label}")


def check_set_algebra_gate() -> None:
    sf = run.import_setfix()
    wl = workloads.SetAlgebraWorkload()
    wl.draw(np.random.default_rng(SEED))
    wl.setup(sf)
    index = len(wl.items) - 1   # a 64-part union
    good = wl.op(sf, wl.items[index])
    img = good[5]
    moved = sf.normalize([(p.lo - (1e-3 if i == 0 else 0.0), p.hi)
                          for i, p in enumerate(img.parts)])
    for label, bad in (("image", good[:5] + [moved] + good[6:]),
                       ("hausdorff", good[:4] + [good[4] + 1e-3] + good[5:])):
        assert wl.check(index, bad) is not None, f"reference missed a corrupted {label}"
        print(f"ok  reference rejects a corrupted {label}")
    assert wl.check(index, good) is None, "the real result must pass"
    bad = good[:2] + [good[2] + 1e-12] + good[3:]
    assert wl.check(index, bad) is not None, "a changed repeat result must fail"
    print("ok  a repeat result that differs from the verified one fails")

    wl.op = lambda sf, item: 1 / 0
    runner = run.Runner(wl, sf)
    runner.one_pass()
    assert runner.failed == runner.attempted == len(wl.items), "raising calls must count"
    print("ok  an operation that raises is counted as a failure")


if __name__ == "__main__":
    if not __debug__:
        sys.exit("selftest checks with assert; run it without -O")
    check_calibration()
    check_result_lines()
    check_scenario_gate()
    check_set_algebra_gate()
    print("selftest passed")
    sys.exit(0)

"""The benchmark's workloads: seeded inputs, the timed operation, the output gate.

A workload draws its inputs from the seed once per run (``draw``), builds the
library objects in ``setup`` (timed as set-up), and then the runner calls
``op`` on each item of ``items`` in turn, as one closed-loop caller.  Every
result goes through ``check``, outside the timed region; a non-empty return
is a failure.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_golden(scenario: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{scenario}.json").read_text())


def verdicts(report: dict) -> list[tuple]:
    return [(r["property"], r["holds"], r["applicable"]) for r in report["stability"]]


class ScenarioWorkload:
    """``run_scenario`` on a packaged scenario with a seeded ``x0_list``.

    The Ostrowski harness starts from ``x0_list[0]`` unless the scenario names
    its own ``x0``; it is pinned to the packaged start, so that its verdict
    answers the same question as the golden report's.  The drawn starts
    still drive every Picard orbit.  The pin also keeps out an open library
    defect: the harness fails for starts within about 0.1 of x* (see
    README.md); drop the pin once that is fixed.
    """

    def __init__(self, scenario: str, operator: str, golden: dict | None = None) -> None:
        self.scenario_name = scenario
        self.operator = operator
        self.golden = load_golden(scenario) if golden is None else golden

    def draw(self, rng: np.random.Generator) -> None:
        lo, hi = reference.OPERATORS[self.operator][0]
        self.x0_list = [float(x) for x in rng.uniform(lo, hi, 2)]

    def setup(self, sf) -> None:
        sc = sf.load_scenario(self.scenario_name)
        opts = dict(sc.stability_options)
        opts["ostrowski"] = dict(opts.get("ostrowski", {}))
        opts["ostrowski"].setdefault("x0", sc.x0_list[0])
        raw = dict(sc.raw, x0_list=self.x0_list, stability_options=opts)
        self.scenario = sf.scenario_from_dict(raw, name=sc.name)
        sf.perturb(self.scenario.resolve_operator(), self.scenario.resolve_perturbation())

    @property
    def items(self) -> list:
        return [self.scenario]

    def op(self, sf, item):
        return sf.run_scenario(item)

    def check(self, index: int, result) -> str | None:
        report = json.loads(json.dumps(result.to_dict()))
        bad = [key for key in ("certificates", "constants", "fixed_points")
               if report[key] != self.golden[key]]
        if verdicts(report) != verdicts(self.golden):
            bad.append("stability verdicts")
        if not result.all_ok:
            bad.append("all_ok")
        return f"differs from the golden report in {', '.join(bad)}" if bad else None


class SetAlgebraWorkload:
    """Set images under T and T_G, then gap, excess and Hausdorff to the input.

    The batch is stratified: PER_CELL unions for each operator and each part
    count, so the mix of cheap and costly inputs is the same for every seed.
    The first result of each input is checked against the dense-grid
    reference; later results of that input must equal it exactly.
    """

    PARTS = (1, 8, 64)
    PER_CELL = 16
    BUILTINS = {"sqrt": "sqrt_example", "square": "square_example"}

    def draw(self, rng: np.random.Generator) -> None:
        self.inputs = [(name, reference.random_union(rng, domain, k))
                       for name, (domain, _) in reference.OPERATORS.items()
                       for k in self.PARTS for _ in range(self.PER_CELL)]
        self.verified: dict[int, tuple] = {}

    def setup(self, sf) -> None:
        self.operators = {}
        for name, builtin in self.BUILTINS.items():
            t = sf.get_builtin(builtin)
            domain, lam = reference.OPERATORS[name]
            if (t.domain.bounds.lo, t.domain.bounds.hi) != domain:
                raise ValueError(f"{builtin} domain differs from the reference's")
            self.operators[name] = (t, sf.perturb(t, sf.Takahashi(lam)))

    @property
    def items(self) -> list:
        return self.inputs

    def op(self, sf, item):
        name, parts = item
        t, tg = self.operators[name]
        y = sf.normalize(parts, t.domain.bounds)
        out = [y]
        for operator in (t, tg):
            img = operator.set_image(y)
            out += [img, sf.gap(y, img), sf.excess(img, y), sf.hausdorff(y, img)]
        return out

    def check(self, index: int, result) -> str | None:
        flat = tuple(tuple((p.lo, p.hi) for p in r.parts) if hasattr(r, "parts") else r
                     for r in result)
        if index in self.verified:
            return None if flat == self.verified[index] else "differs from its first result"
        problem = self._against_reference(self.inputs[index], flat)
        if problem is None:
            self.verified[index] = flat
        return problem

    @staticmethod
    def _against_reference(item, flat) -> str | None:
        name, parts = item
        y = list(flat[0])
        if y != parts:
            return "normalize changed an already canonical input"
        for k, perturbed in ((1, False), (5, True)):
            label = "T_G" if perturbed else "T"
            img, gap, exc, hd = list(flat[k]), flat[k + 1], flat[k + 2], flat[k + 3]
            err = reference.hausdorff(img, reference.image(name, perturbed, parts))
            if err > reference.TOL:
                return f"{label}(Y) is {err:.3g} from the reference image"
            for fn, value, ref in (("gap", gap, reference.gap(y, img)),
                                   ("excess", exc, reference.excess(img, y)),
                                   ("hausdorff", hd, reference.hausdorff(y, img))):
                if abs(value - ref) > reference.TOL:
                    return f"{fn}(Y, {label}(Y)) = {value!r}, reference {ref!r}"
        return None


def make(name: str):
    if name == "sqrt34":
        return ScenarioWorkload("sqrt_takahashi_34", "sqrt")
    if name == "square_half":
        return ScenarioWorkload("square_takahashi_half", "square")
    if name == "set_algebra":
        return SetAlgebraWorkload()
    raise ValueError(f"unknown workload {name!r}")

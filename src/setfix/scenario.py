"""Scenario-driven orchestration: certify -> iterate -> stability, one report.

A scenario JSON names an operator (built-in or inline description), a
perturbation, the analyses to run, and per-harness options.  The runner
threads certified constants into the stability harnesses and produces a
deterministic RunReport: two runs of the same scenario serialize to
byte-identical JSON.  Timing is collected in memory but never serialized,
precisely to keep reports reproducible.

Harness preconditions that fail (an infeasible certificate, a comparison
constant >= 1) downgrade the affected verdicts to not-applicable instead of
erroring; the exit contract counts a run as OK iff every verdict holds or
is not-applicable and every requested orbit converged.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import stability as st
from .certify import (
    ContractionParams,
    VARIANTS,
    certify_contraction,
    corollary_k,
    displacement_constant_L,
    retraction_displacement_check,
    sup_gap_ratio_l,
    sup_ratio_l,
)
from .errors import (
    HypothesisFailedError,
    InsufficientDataError,
    NoApproximateSolutionsError,
    NoStrictFixedPointError,
    ParameterRangeError,
    SchemaError,
    StrictFixedPointMismatchError,
)
from .iteration import (
    STRICT_TOL,
    orbit_rate,
    orbit_steps,
    picard_orbit,
    scan_fixed_points,
    steps_to_csv,
)
from .operators import (
    BUILTIN_OPERATORS,
    MultivaluedOperator,
    PerturbationSpec,
    constant_operator,
    get_builtin,
    perturb,
    perturbation_from_json,
)

ANALYSES = ("certify", "iterate", "stability")


#: What the stability harnesses read from one run; f is the comparison operator F.
_Run = namedtuple("_Run", "t tg f xstar params L l grid_n")


def _psi_mp(r: _Run, o: dict) -> st.StabilityReport:
    if o["psi"] != "auto":
        psi = st.ComparisonFunction.from_json(o["psi"])
    else:
        xi = retraction_displacement_check(r.tg, r.params, 1.0, r.xstar, r.grid_n)
        if not xi.holds:
            raise HypothesisFailedError(
                "retraction-displacement check failed for the perturbed "
                "operator; no automatic comparison function available")
        p = r.params
        psi = st.ComparisonFunction(
            "linear", (1.0 + p.gamma) / ((1.0 - p.alpha - p.beta) * xi.xi_max))
    return st.psi_mp_data_dependence(r.t, r.f, r.tg, r.xstar, psi,
                                     max(r.L, 1e-12), r.grid_n)


def _quasi(r: _Run, weak: bool) -> st.StabilityReport:
    l = sup_gap_ratio_l(r.t, r.tg, r.xstar, r.grid_n).value if weak else r.l
    if l is None:
        raise ParameterRangeError("comparison constant l unavailable")
    return st.quasi_contraction_verify(r.t, r.tg, r.xstar, l, r.params, r.grid_n, weak=weak)


#: A stability harness: the property its report carries, the options it takes
#: with their defaults, and run(r, checked options), its report on a _Run.
_Harness = namedtuple("_Harness", "property options run")

#: Every stability harness, in the default report order.  Runners look each
#: harness function up when called, so a wrapper put on its module sees it.
_HARNESS_TABLE = {
    "data_dependence": _Harness("DataDependence", {"f": "constant_mid"}, lambda r, o: (
        st.data_dependence_verify(r.t, r.f, r.xstar, r.params, r.L, r.grid_n))),
    "psi_mp_data_dependence": _Harness("PsiMPDataDependence", {"psi": "auto"}, _psi_mp),
    "ulam_hyers": _Harness(
        "UlamHyers", {"eps_list": [0.1, 0.05, 0.01], "samples_per_eps": 100},
        lambda r, o: st.ulam_hyers_verify(r.t, r.tg, r.xstar, r.params, r.L, **o)),
    "well_posed": _Harness(
        "WellPosed", {"r0": 0.1, "rho": 0.8, "n_max": 60},
        lambda r, o: st.well_posedness_verify(r.t, r.xstar, r.params, r.L,
                                              st.DecaySpec(o["r0"], o["rho"]), o["n_max"])),
    "ostrowski": _Harness(
        "Ostrowski", {"delta0": 0.1, "rho": 0.5, "n_max": 60, "final_tol": 1e-6, "x0": None},
        lambda r, o: st.ostrowski_verify(r.t, r.xstar, r.params, r.L, o["x0"],
                                         st.DecaySpec(o["delta0"], o["rho"]),
                                         o["n_max"], o["final_tol"])),
    "quasi_contraction": _Harness("QuasiContraction", {}, lambda r, o: _quasi(r, False)),
    "weak_quasi_contraction": _Harness("WeakQuasiContraction", {},
                                       lambda r, o: _quasi(r, True)),
}
HARNESSES = tuple(_HARNESS_TABLE)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: What each stability option must be, as (test, description); psi's test reads it.
_OPTION_RULES = {
    "f": (lambda v: v in ("self", "constant_mid"), "'self' or 'constant_mid'"),
    "psi": (lambda v: v == "auto" or st.ComparisonFunction.from_json(v),
            "'auto' or a comparison function"),
    "eps_list": (lambda v: isinstance(v, list) and v != []
                 and all(_number(e) and e > 0 for e in v), "a nonempty list of numbers > 0"),
    "final_tol": (lambda v: _number(v) and v > 0, "a number > 0"),
    **dict.fromkeys(("samples_per_eps", "n_max"), (
        lambda v: _number(v) and isinstance(v, int) and v >= 1, "an integer >= 1")),
    **dict.fromkeys(("r0", "rho", "delta0", "x0"), (_number, "a number")),
}


@dataclass(frozen=True)
class Scenario:
    """Validated scenario configuration."""

    name: str
    operator: str | dict
    perturbation: dict
    analyses: tuple[str, ...]
    grid_n: int
    scan_grid_n: int
    tol: float
    x0_list: tuple[float, ...]
    variant: str
    stability_options: dict
    output: dict
    raw: dict = field(repr=False, default_factory=dict)

    def resolve_operator(self) -> MultivaluedOperator:
        if isinstance(self.operator, str):
            return get_builtin(self.operator)
        return MultivaluedOperator.from_json(self.operator, name=self.name or "inline")

    def resolve_perturbation(self) -> PerturbationSpec:
        return perturbation_from_json(self.perturbation)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _harness_options(opts: dict, x0_list, domain) -> dict[str, dict]:
    """Each harness's options from 'stability_options', checked, with defaults
    filled in (Ostrowski's x0: the first iterate start, else the midpoint of X)."""
    for key in opts:
        _expect(key == "harnesses" or key in HARNESSES,
                f"'stability_options' block {key!r} names no stability harness")
    out = {}
    for key, harness in _HARNESS_TABLE.items():
        given = opts.get(key, {})
        _expect(isinstance(given, dict), f"'stability_options.{key}' must be an object")
        o = out[key] = {**harness.options, **given}
        if "x0" in o and o["x0"] is None:
            o["x0"] = x0_list[0] if x0_list else domain.bounds.midpoint
        try:
            for name, value in o.items():
                _expect(name in harness.options,
                        f"no option {name!r}; it takes {sorted(harness.options)}")
                test, what = _OPTION_RULES[name]
                _expect(test(value), f"{name!r} must be {what}, got {value!r}")
            if "rho" in o:  # a DecaySpec ratio, with r0 or delta0 as its initial value
                st.DecaySpec(o.get("r0", o.get("delta0")), o["rho"])
        except (ParameterRangeError, SchemaError) as exc:
            raise SchemaError(f"'stability_options.{key}': {exc}") from exc
    return out


def scenario_from_dict(obj: dict, name: str = "") -> Scenario:
    _expect(isinstance(obj, dict), "scenario must be a JSON object")
    operator = obj.get("operator")
    _expect(isinstance(operator, (str, dict)),
            "scenario 'operator' must be a built-in name or an operator object")
    if isinstance(operator, str):
        _expect(operator in BUILTIN_OPERATORS,
                f"unknown built-in operator {operator!r}")
    perturbation = obj.get("perturbation")
    _expect(isinstance(perturbation, dict), "scenario 'perturbation' must be an object")
    analyses = obj.get("analyses")
    _expect(isinstance(analyses, list) and analyses, "scenario 'analyses' must be nonempty")
    for a in analyses:
        _expect(a in ANALYSES, f"unknown analysis {a!r}; choose from {ANALYSES}")
    if "stability" in analyses:
        _expect("certify" in analyses,
                "'stability' requires 'certify' (its constants come from certification)")
    grid_n = obj.get("grid_n", 501)
    _expect(isinstance(grid_n, int) and grid_n >= 2, "scenario 'grid_n' must be >= 2")
    scan_grid_n = obj.get("scan_grid_n", 10_001)
    _expect(isinstance(scan_grid_n, int) and scan_grid_n >= 2,
            "scenario 'scan_grid_n' must be >= 2")
    tol = obj.get("tol", 1e-10)
    _expect(isinstance(tol, (int, float)) and tol > 0, "scenario 'tol' must be > 0")
    x0_list = obj.get("x0_list", [])
    _expect(isinstance(x0_list, list), "scenario 'x0_list' must be a list")
    if "iterate" in analyses:
        _expect(bool(x0_list), "'iterate' requested but 'x0_list' is empty")
    for x0 in x0_list:
        _expect(isinstance(x0, (int, float)), f"x0 entries must be numbers, got {x0!r}")
    variant = obj.get("variant", "ciric")
    _expect(variant in VARIANTS, f"unknown variant {variant!r}")
    stability_options = obj.get("stability_options", {})
    _expect(isinstance(stability_options, dict),
            "scenario 'stability_options' must be an object")
    harnesses = stability_options.get("harnesses", list(HARNESSES))
    _expect(isinstance(harnesses, list) and harnesses,
            "'stability_options.harnesses' must be a nonempty list")
    for h in harnesses:
        _expect(h in HARNESSES, f"unknown stability harness {h!r}")
    output = obj.get("output", {})
    _expect(isinstance(output, dict), "scenario 'output' must be an object")
    fmt = output.get("format", "json")
    _expect(fmt in ("json", "csv"), "output format must be 'json' or 'csv'")

    scenario = Scenario(
        name=obj.get("name", name),
        operator=operator,
        perturbation=perturbation,
        analyses=tuple(analyses),
        grid_n=grid_n,
        scan_grid_n=scan_grid_n,
        tol=float(tol),
        x0_list=tuple(float(x) for x in x0_list),
        variant=variant,
        stability_options=stability_options,
        output=output,
        raw=obj,
    )
    # domain-dependent validation: x0 inside, perturbation well-formed
    op = scenario.resolve_operator()
    options = _harness_options(stability_options, scenario.x0_list, op.domain)
    for x0 in (*scenario.x0_list, options["ostrowski"]["x0"]):
        _expect(op.domain.contains(x0),
                f"x0 {x0!r} outside operator domain "
                f"[{op.domain.bounds.lo}, {op.domain.bounds.hi}]")
    scenario.resolve_perturbation()
    return scenario


def builtin_scenario_names() -> list[str]:
    pkg = resources.files("setfix").joinpath("scenarios")
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a file path or a built-in scenario name."""
    path = Path(source)
    if path.exists():
        text = path.read_text()
        name = path.stem
    else:
        name = str(source)
        if name.endswith(".json"):
            name = name[:-5]
        pkg = resources.files("setfix").joinpath("scenarios").joinpath(f"{name}.json")
        try:
            text = pkg.read_text()
        except FileNotFoundError:
            raise SchemaError(
                f"scenario {source!r} is neither a file nor a built-in; "
                f"built-ins: {builtin_scenario_names()}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario {source!r} is not valid JSON: {exc}") from exc
    return scenario_from_dict(obj, name=name)


@dataclass
class RunReport:
    """Full result of one scenario run.  Timing stays in memory only."""

    scenario: dict
    fixed_points: dict
    certificates: dict
    constants: dict
    orbits: list
    stability: list
    timing: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "fixed_points": self.fixed_points,
            "certificates": self.certificates,
            "constants": self.constants,
            "orbits": self.orbits,
            "stability": self.stability,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RunReport":
        return cls(
            scenario=obj["scenario"],
            fixed_points=obj["fixed_points"],
            certificates=obj["certificates"],
            constants=obj["constants"],
            orbits=obj["orbits"],
            stability=obj["stability"],
        )

    @property
    def all_ok(self) -> bool:
        for rep in self.stability:
            if rep["applicable"] and not rep["holds"]:
                return False
        for orbit in self.orbits:
            if not orbit["converged"]:
                return False
        return True


def _orbit_summary(label: str, x0: float, trace) -> dict:
    try:
        rate = orbit_rate(trace)
    except InsufficientDataError:
        rate = None
    return {
        "operator": label,
        "x0": x0,
        "steps": len(trace.steps),
        "converged": trace.converged,
        "limit_estimate": trace.limit_estimate,
        "final_h_to_prev": trace.final.h_to_prev,
        "final_h_to_target": trace.final.h_to_target,
        "rate": rate,
        "trace": orbit_steps(trace),
    }


def _run_stability(scenario: Scenario, t: MultivaluedOperator,
                   tg: MultivaluedOperator, params: ContractionParams | None,
                   constants: dict, xstar: float | None) -> list[dict]:
    opts = scenario.stability_options
    keys = opts.get("harnesses", HARNESSES)
    if params is None or xstar is None:
        reason = ("no feasible contraction certificate for the perturbed operator; "
                  "certified constants unavailable" if params is None
                  else "no unique strict fixed point located")
        return [st.not_applicable(_HARNESS_TABLE[k].property, reason).to_json()
                for k in keys]

    options = _harness_options(opts, scenario.x0_list, t.domain)
    f = t if options["data_dependence"]["f"] == "self" else constant_operator(
        t.domain, t.domain.bounds.midpoint)
    r = _Run(t, tg, f, xstar, params, constants["L"], constants["l"], scenario.grid_n)
    out: list[dict] = []
    for key in keys:
        harness = _HARNESS_TABLE[key]
        try:
            report = harness.run(r, options[key])
        except (ParameterRangeError, NoStrictFixedPointError,
                StrictFixedPointMismatchError, HypothesisFailedError,
                NoApproximateSolutionsError) as exc:  # a violated premise
            report = st.not_applicable(harness.property, f"{type(exc).__name__}: {exc}")
        out.append(report.to_json())
    return out


def run_scenario(source: str | Path | Scenario) -> RunReport:
    """Execute a scenario end to end; analyses run certify -> iterate -> stability."""
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    t = scenario.resolve_operator()
    tg = perturb(t, scenario.resolve_perturbation())
    timing: dict[str, float] = {}

    tick = time.perf_counter()
    scan_t = scan_fixed_points(t, scenario.scan_grid_n, STRICT_TOL)
    scan_g = scan_fixed_points(tg, scenario.scan_grid_n, STRICT_TOL)
    timing["scan"] = time.perf_counter() - tick
    fixed_points = {"T": scan_t.to_json(), "TG": scan_g.to_json()}
    xstar = scan_t.xstar

    certificates: dict = {}
    constants: dict = {}
    params: ContractionParams | None = None
    if "certify" in scenario.analyses:
        tick = time.perf_counter()
        cert_t = certify_contraction(t, scenario.variant, scenario.grid_n)
        cert_g = certify_contraction(tg, scenario.variant, scenario.grid_n)
        timing["certify"] = time.perf_counter() - tick
        certificates = {"T": cert_t.to_json(), "TG": cert_g.to_json()}
        disp = displacement_constant_L(t, tg, scenario.scan_grid_n)
        l_sup = xi = k = None
        l_skipped = 0
        if xstar is not None:
            try:
                sup = sup_ratio_l(t, tg, xstar, scenario.scan_grid_n)
                l_sup, l_skipped = sup.value, sup.skipped
            except StrictFixedPointMismatchError:
                l_sup = None
        if cert_g.feasible:
            params = cert_g.params
            k = corollary_k(params).value
            if xstar is not None:
                xi = retraction_displacement_check(
                    t, params, disp.value, xstar, scenario.grid_n).xi_max
        constants = {"l": l_sup, "k": k, "L": disp.value, "xi": xi,
                     "valid_l": l_sup is not None and l_sup < 1.0,
                     "l_skipped": l_skipped, "L_skipped": disp.skipped}
        if params is not None:
            constants["params_TG"] = params.to_json()
            constants["ulam_hyers_c"] = st.ulam_hyers_constant(params, disp.value)

    orbits: list[dict] = []
    if "iterate" in scenario.analyses:
        tick = time.perf_counter()
        for x0 in scenario.x0_list:
            for label, op in (("T", t), ("TG", tg)):
                trace = picard_orbit(op, x0, max_n=10_000, tol=scenario.tol,
                                     target=xstar)
                orbits.append(_orbit_summary(label, x0, trace))
        timing["iterate"] = time.perf_counter() - tick

    stability_reports: list[dict] = []
    if "stability" in scenario.analyses:
        tick = time.perf_counter()
        stability_reports = _run_stability(scenario, t, tg, params, constants, xstar)
        timing["stability"] = time.perf_counter() - tick

    return RunReport(
        scenario=dict(scenario.raw, name=scenario.name),
        fixed_points=fixed_points,
        certificates=certificates,
        constants=constants,
        orbits=orbits,
        stability=stability_reports,
        timing=timing,
    )


def emit_report(report: RunReport, fmt: str = "json") -> dict[str, str]:
    """Serialize a report; returns {relative filename: content}.

    JSON is canonical (sorted keys) and carries everything except timing, so
    identical runs serialize byte-identically.  CSV yields one verdict table,
    an orbit summary table (header-only when no orbits ran), and one step
    file per orbit.
    """
    if fmt == "json":
        return {"report.json": json.dumps(report.to_dict(), indent=2,
                                          sort_keys=True) + "\n"}
    if fmt != "csv":
        raise SchemaError(f"unknown report format {fmt!r}")
    files: dict[str, str] = {}
    lines = ["property,holds,applicable,constant,samples,worst_ratio"]
    for rep in report.stability:
        lines.append(",".join([
            rep["property"], str(rep["holds"]), str(rep["applicable"]),
            repr(rep["constant"]), str(rep["samples"]), repr(rep["worst_ratio"]),
        ]))
    files["verdicts.csv"] = "\n".join(lines) + "\n"
    summary = ["operator,x0,steps,converged,final_h_to_prev,final_h_to_target,rate"]
    for orbit in report.orbits:
        summary.append(",".join([
            orbit["operator"], repr(orbit["x0"]), str(orbit["steps"]),
            str(orbit["converged"]), repr(orbit["final_h_to_prev"]),
            "" if orbit["final_h_to_target"] is None else repr(orbit["final_h_to_target"]),
            "" if orbit["rate"] is None else repr(orbit["rate"]),
        ]))
    files["orbits_summary.csv"] = "\n".join(summary) + "\n"
    for i, orbit in enumerate(report.orbits):
        files[f"orbit_{i}_{orbit['operator']}.csv"] = steps_to_csv(orbit["trace"])
    return files


def write_report(report: RunReport, out_path: str | Path,
                 fmt: str = "json") -> list[Path]:
    """Write the serialized report; JSON to out_path, CSV into its directory."""
    out_path = Path(out_path)
    files = emit_report(report, fmt)
    written = []
    if fmt == "json":
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(files["report.json"])
        written.append(out_path)
    else:
        base = out_path if out_path.suffix == "" else out_path.parent / out_path.stem
        base.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            p = base / name
            p.write_text(content)
            written.append(p)
    return written

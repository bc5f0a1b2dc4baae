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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import stability as st
from .certify import (
    AuxiliaryConstants,
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
HARNESSES = (
    "data_dependence",
    "psi_mp_data_dependence",
    "ulam_hyers",
    "well_posed",
    "ostrowski",
    "quasi_contraction",
    "weak_quasi_contraction",
)

_PROPERTY_NAMES = {
    "data_dependence": "DataDependence",
    "psi_mp_data_dependence": "PsiMPDataDependence",
    "ulam_hyers": "UlamHyers",
    "well_posed": "WellPosed",
    "ostrowski": "Ostrowski",
    "quasi_contraction": "QuasiContraction",
    "weak_quasi_contraction": "WeakQuasiContraction",
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
    for x0 in scenario.x0_list:
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


def _na(prop_key: str, reason: str) -> dict:
    return st.not_applicable(_PROPERTY_NAMES[prop_key], reason).to_json()


def _run_stability(scenario: Scenario, t: MultivaluedOperator,
                   tg: MultivaluedOperator, params: ContractionParams | None,
                   consts: AuxiliaryConstants, xstar: float | None) -> list[dict]:
    opts = scenario.stability_options
    harnesses = opts.get("harnesses", list(HARNESSES))
    grid_n = scenario.grid_n
    out: list[dict] = []

    def guarded(prop_key: str, fn):
        if params is None:
            out.append(_na(prop_key,
                           "no feasible contraction certificate for the perturbed "
                           "operator; certified constants unavailable"))
            return
        if xstar is None:
            out.append(_na(prop_key, "no unique strict fixed point located"))
            return
        try:
            out.append(fn().to_json())
        except (ParameterRangeError, NoStrictFixedPointError,
                StrictFixedPointMismatchError, HypothesisFailedError,
                NoApproximateSolutionsError) as exc:
            out.append(_na(prop_key, f"{type(exc).__name__}: {exc}"))

    def comparison_operator() -> MultivaluedOperator:
        kind = opts.get("data_dependence", {}).get("f", "constant_mid")
        if kind == "self":
            return t
        if kind == "constant_mid":
            return constant_operator(t.domain, t.domain.bounds.midpoint)
        raise SchemaError(f"unknown data-dependence comparison operator {kind!r}")

    for h in harnesses:
        if h == "data_dependence":
            guarded(h, lambda: st.data_dependence_verify(
                t, comparison_operator(), xstar, params, consts.L, grid_n))
        elif h == "psi_mp_data_dependence":
            def run_psi():
                cfg = opts.get("psi_mp_data_dependence", {})
                psi_cfg = cfg.get("psi", "auto")
                if psi_cfg == "auto":
                    xi = retraction_displacement_check(tg, params, 1.0, xstar, grid_n)
                    if not xi.holds:
                        raise HypothesisFailedError(
                            "retraction-displacement check failed for the perturbed "
                            "operator; no automatic comparison function available")
                    C = (1.0 + params.gamma) / ((1.0 - params.alpha - params.beta)
                                                * xi.xi_max)
                    psi = st.ComparisonFunction("linear", C)
                else:
                    psi = st.ComparisonFunction.from_json(psi_cfg)
                return st.psi_mp_data_dependence(t, comparison_operator(), tg, xstar, psi,
                                                 max(consts.L, 1e-12), grid_n)
            guarded(h, run_psi)
        elif h == "ulam_hyers":
            cfg = opts.get("ulam_hyers", {})
            guarded(h, lambda: st.ulam_hyers_verify(
                t, tg, xstar, params, consts.L,
                cfg.get("eps_list", [0.1, 0.05, 0.01]),
                cfg.get("samples_per_eps", 100)))
        elif h == "well_posed":
            cfg = opts.get("well_posed", {})
            spec = st.DecaySpec(cfg.get("r0", 0.1), cfg.get("rho", 0.8))
            guarded(h, lambda: st.well_posedness_verify(
                t, xstar, params, consts.L, spec, cfg.get("n_max", 60)))
        elif h == "ostrowski":
            cfg = opts.get("ostrowski", {})
            spec = st.DecaySpec(cfg.get("delta0", 0.1), cfg.get("rho", 0.5))
            x0 = cfg.get("x0", scenario.x0_list[0] if scenario.x0_list
                         else t.domain.bounds.midpoint)
            guarded(h, lambda: st.ostrowski_verify(
                t, xstar, params, consts.L, x0, spec, cfg.get("n_max", 60),
                cfg.get("final_tol", 1e-6)))
        elif h == "quasi_contraction":
            def run_strong():
                if consts.l is None:
                    raise ParameterRangeError("comparison constant l unavailable")
                return st.quasi_contraction_verify(
                    t, tg, xstar, consts.l, params, grid_n, weak=False)
            guarded(h, run_strong)
        elif h == "weak_quasi_contraction":
            def run_weak():
                l_weak = sup_gap_ratio_l(t, tg, xstar, grid_n).value
                return st.quasi_contraction_verify(
                    t, tg, xstar, l_weak, params, grid_n, weak=True)
            guarded(h, run_weak)
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
    consts = AuxiliaryConstants(l=None, k=None, L=0.0, xi=None, valid_l=False)
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
        consts = AuxiliaryConstants(
            l=l_sup, k=k, L=disp.value, xi=xi,
            valid_l=l_sup is not None and l_sup < 1.0,
            l_skipped=l_skipped, L_skipped=disp.skipped)
        constants = consts.to_json()
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
        stability_reports = _run_stability(scenario, t, tg, params, consts, xstar)
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

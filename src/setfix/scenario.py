"""Scenario-driven orchestration: certify -> iterate -> stability, one report.

A scenario JSON names an operator (built-in or inline description), a
perturbation, the analyses to run, and per-harness options.  The runner
threads certified constants into the stability harnesses and produces a
deterministic RunReport: two runs of the same scenario serialize to
byte-identical JSON.  Timing is collected in memory but never serialized,
precisely to keep reports reproducible.

A harness returns a verdict or raises, and _run_stability alone writes
not-applicable reports: every harness's, with the runner's reason, if a
premise of all fails (a variant other than ciric, no feasible certificate, no
unique strict fixed point), and one harness's, as "<error class>: <message>",
if it raises a violated premise.  The exit contract counts a run as OK iff
every verdict holds or is not-applicable and every requested orbit converged.
"""

from __future__ import annotations

import time
from collections import namedtuple
from importlib import resources
from pathlib import Path

from . import stability as st
from .certify import (
    ContractionParams,
    VARIANTS,
    XiResult,
    certify_contraction,
    corollary_k,
    displacement_constant_L,
    retraction_displacement_check,
    sup_gap_ratio_l,
    sup_ratio_l,
    variant_reason,
)
from .errors import (
    ConstructionFailedError,
    HypothesisFailedError,
    InsufficientDataError,
    NoApproximateSolutionsError,
    NoStrictFixedPointError,
    ParameterRangeError,
    SchemaError,
    StrictFixedPointMismatchError,
    csv_text,
    factory,
    fields_dict,
    is_json_int,
    is_json_number,
    json_field,
    json_keys,
    json_text,
    read_json,
    record,
)
from .iteration import (
    STRICT_TOL,
    orbit_rate,
    orbit_steps,
    orbit_summary,
    picard_orbit,
    scan_fixed_points,
    steps_to_csv,
)
from .operators import (
    MultivaluedOperator,
    PerturbationSpec,
    constant_operator,
    get_builtin,
    perturb,
    perturbation_from_json,
)

ANALYSES = ("certify", "iterate", "stability")


#: What the stability harnesses read from one run: F as f, and T's xi check as xi.
_Run = namedtuple("_Run", "t tg f xstar params L l xi grid_n")


def _psi_mp(r: _Run, o: dict) -> st.StabilityReport:
    """psi-MP data dependence; automatic Psi(t) = K t takes K of T_G's xi check at L = 1."""
    if o["psi"] != "auto":
        psi = st.ComparisonFunction.from_json(o["psi"])
    else:
        xi = retraction_displacement_check(r.tg, r.params, 1.0, r.xstar, r.grid_n)
        if not xi.holds:
            raise HypothesisFailedError(
                "retraction-displacement check failed for the perturbed "
                "operator; no automatic comparison function available")
        psi = st.ComparisonFunction("linear", xi.K)
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
        st.data_dependence_verify(r.t, r.f, r.xstar, r.xi, r.grid_n))),
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


#: What each stability option must be, as (test, description); psi's test reads it.
_OPTION_RULES = {
    "f": (lambda v: v in ("self", "constant_mid"), "'self' or 'constant_mid'"),
    "psi": (lambda v: v == "auto" or st.ComparisonFunction.from_json(v),
            "'auto' or a comparison function"),
    "eps_list": (lambda v: isinstance(v, list) and v != []
                 and all(is_json_number(e) and e > 0 for e in v),
                 "a nonempty list of numbers > 0"),
    "final_tol": (lambda v: is_json_number(v) and v > 0, "a number > 0"),
    **dict.fromkeys(("samples_per_eps", "n_max"), (
        lambda v: is_json_int(v) and v >= 1, "an integer >= 1")),
    **dict.fromkeys(("r0", "rho", "delta0"), (
        lambda v: is_json_number(v) and v >= 0, "a number >= 0")),
    "x0": (is_json_number, "a number"),
}


@record
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
    raw: dict = factory(dict, in_repr=False)

    def resolve_operator(self) -> MultivaluedOperator:
        if isinstance(self.operator, str):
            return get_builtin(self.operator)
        return MultivaluedOperator.from_json(self.operator, name=self.name or "inline")

    def resolve_perturbation(self) -> PerturbationSpec:
        return perturbation_from_json(self.perturbation)


def _harness_options(opts: dict, x0_list, domain) -> dict[str, dict]:
    """Each harness's options from 'stability_options', checked, with defaults
    filled in (Ostrowski's x0: the first iterate start, else the midpoint of X)."""
    json_keys(opts, ("harnesses", *HARNESSES), "'stability_options'")
    out = {}
    for key, harness in _HARNESS_TABLE.items():
        reader = f"'stability_options.{key}'"
        json_keys(opts.get(key, {}), harness.options, reader)
        o = out[key] = {**harness.options, **opts.get(key, {})}
        if "x0" in o and o["x0"] is None:
            o["x0"] = x0_list[0] if x0_list else domain.bounds.midpoint
        for name in o:
            json_field(o, name, *_OPTION_RULES[name], reader)
    return out


def scenario_from_dict(obj: dict, name: str = "") -> Scenario:
    json_keys(obj, ("name", "operator", "perturbation", "analyses", "variant", "grid_n",
                    "scan_grid_n", "tol", "x0_list", "stability_options", "output"), "scenario")
    grid_size = (lambda v: is_json_int(v) and v >= 2), "an integer >= 2", "scenario"
    analyses = json_field(obj, "analyses", lambda v: (
        isinstance(v, list) and v != [] and ("stability" not in v or "certify" in v)),
        "a nonempty list, with 'certify' if it has 'stability'", "scenario")
    x0_list = json_field(obj, "x0_list", lambda v: isinstance(v, list) and (
        v != [] or "iterate" not in analyses) and all(map(is_json_number, v)),
        "a list of numbers, nonempty for 'iterate'", "scenario", [])
    stability_options = obj.get("stability_options", {})
    harnesses = json_field(stability_options, "harnesses", lambda v: isinstance(v, list)
                           and v != [], "a nonempty list", "'stability_options'", HARNESSES)
    for what, names, known in (("analysis", analyses, ANALYSES),
                               ("stability harness", harnesses, HARNESSES)):
        for n in names:
            if n not in known:
                raise SchemaError(f"unknown {what} {n!r}; choose from {known}")
    output = obj.get("output", {})
    json_keys(output, ("path", "format"), "output")
    json_field(output, "path", lambda v: isinstance(v, str), "a string", "output", None)
    json_field(output, "format", lambda v: v in ("json", "csv"), "'json' or 'csv'", "output",
               "json")
    scenario = Scenario(
        name=obj.get("name", name),
        operator=json_field(obj, "operator", lambda v: isinstance(v, (str, dict)),
                            "a built-in operator name or an operator object", "scenario"),
        perturbation=json_field(obj, "perturbation", lambda v: isinstance(v, dict),
                                "an object", "scenario"),
        analyses=tuple(analyses),
        grid_n=json_field(obj, "grid_n", *grid_size, 501),
        scan_grid_n=json_field(obj, "scan_grid_n", *grid_size, 10_001),
        tol=float(json_field(obj, "tol", lambda v: is_json_number(v) and v > 0,
                             "a number > 0", "scenario", 1e-10)),
        x0_list=tuple(float(x) for x in x0_list),
        variant=json_field(obj, "variant", lambda v: v in VARIANTS, f"one of {VARIANTS}",
                           "scenario", "ciric"),
        stability_options=stability_options,
        output=output,
        raw=obj,
    )
    # domain-dependent validation: operator known, x0 inside, perturbation well-formed
    op = scenario.resolve_operator()
    options = _harness_options(stability_options, scenario.x0_list, op.domain)
    for x0 in (*scenario.x0_list, options["ostrowski"]["x0"]):
        if not op.domain.contains(x0):
            raise SchemaError(f"x0 {x0!r} outside operator domain "
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
        return scenario_from_dict(read_json(path, f"scenario {source!r}"), name=path.stem)
    name = str(source)
    if name.endswith(".json"):
        name = name[:-5]
    pkg = resources.files("setfix").joinpath("scenarios").joinpath(f"{name}.json")
    try:
        obj = read_json(pkg, f"scenario {source!r}")
    except FileNotFoundError:
        raise SchemaError(
            f"scenario {source!r} is neither a file nor a built-in; "
            f"built-ins: {builtin_scenario_names()}") from None
    return scenario_from_dict(obj, name=name)


@record
class RunReport:
    """Full result of one scenario run.  Timing stays in memory only."""

    scenario: dict
    fixed_points: dict
    certificates: dict
    constants: dict
    orbits: list
    stability: list
    timing: dict = factory(dict)

    def to_dict(self) -> dict:
        """Every field but timing."""
        out = fields_dict(self)
        del out["timing"]
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "RunReport":
        return cls(**{k: obj[k] for k in cls._fields if k != "timing"})

    @property
    def all_ok(self) -> bool:
        return (all(rep["holds"] or not rep["applicable"] for rep in self.stability)
                and all(orbit["converged"] for orbit in self.orbits))


def _orbit_summary(label: str, x0: float, trace) -> dict:
    try:
        rate = orbit_rate(trace)
    except InsufficientDataError:
        rate = None
    return {**orbit_summary(x0, trace), "operator": label, "rate": rate,
            "trace": orbit_steps(trace)}


def not_applicable(prop: str, reason: str) -> dict:
    """The report row of a harness that gives no verdict, and why."""
    return st.StabilityReport(prop, False, 0.0, 0, 0.0, False, {"reason": reason}).to_json()


def _run_stability(scenario: Scenario, t: MultivaluedOperator,
                   tg: MultivaluedOperator, params: ContractionParams | None,
                   constants: dict, xstar: float | None, xi: XiResult | None) -> list[dict]:
    opts = scenario.stability_options
    keys = opts.get("harnesses", HARNESSES)
    reason = variant_reason(scenario.variant) or (
        "no feasible contraction certificate for the perturbed operator; "
        "certified constants unavailable" if params is None
        else "no unique strict fixed point located" if xstar is None else None)
    if reason is not None:
        return [not_applicable(_HARNESS_TABLE[k].property, reason) for k in keys]

    options = _harness_options(opts, scenario.x0_list, t.domain)
    f = t if options["data_dependence"]["f"] == "self" else constant_operator(
        t.domain, t.domain.bounds.midpoint)
    r = _Run(t, tg, f, xstar, params, constants["L"], constants["l"], xi, scenario.grid_n)
    out: list[dict] = []
    for key in keys:
        harness = _HARNESS_TABLE[key]
        try:
            row = harness.run(r, options[key]).to_json()
        except (ParameterRangeError, NoStrictFixedPointError,
                StrictFixedPointMismatchError, HypothesisFailedError,
                NoApproximateSolutionsError, ConstructionFailedError) as exc:  # a violated premise
            row = not_applicable(harness.property, f"{type(exc).__name__}: {exc}")
        out.append(row)
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
    xi: XiResult | None = None
    if "certify" in scenario.analyses:
        tick = time.perf_counter()
        cert_t = certify_contraction(t, scenario.variant, scenario.grid_n)
        cert_g = certify_contraction(tg, scenario.variant, scenario.grid_n)
        timing["certify"] = time.perf_counter() - tick
        certificates = {"T": cert_t.to_json(), "TG": cert_g.to_json()}
        disp = displacement_constant_L(t, tg, scenario.scan_grid_n)
        derived = variant_reason(scenario.variant) is None  # xi and the UH constant's formulas
        l_sup = k = None
        l_skipped = 0
        if xstar is not None:
            try:
                sup = sup_ratio_l(t, tg, xstar, scenario.scan_grid_n)
                l_sup, l_skipped = sup.value, sup.skipped
            except StrictFixedPointMismatchError:
                l_sup = None
        if cert_g.feasible:
            params = cert_g.params
            k = corollary_k(params)
            if xstar is not None and derived:
                xi = retraction_displacement_check(t, params, disp.value, xstar,
                                                   scenario.grid_n)
        constants = {"l": l_sup, "k": k, "L": disp.value, "xi": xi.xi_max if xi else None,
                     "valid_l": l_sup is not None and l_sup < 1.0,
                     "l_skipped": l_skipped, "L_skipped": disp.skipped}
        if params is not None:
            constants["params_TG"] = params.to_json()
            constants["ulam_hyers_c"] = (st.ulam_hyers_constant(params, disp.value)
                                         if derived else None)

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
        stability_reports = _run_stability(scenario, t, tg, params, constants, xstar, xi)
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
        return {"report.json": json_text(report.to_dict())}
    if fmt != "csv":
        raise SchemaError(f"unknown report format {fmt!r}")
    tables = {
        "verdicts.csv": (report.stability, (
            "property", "holds", "applicable", "constant", "samples", "worst_ratio")),
        "orbits_summary.csv": (report.orbits, (
            "operator", "x0", "steps", "converged", "final_h_to_prev",
            "final_h_to_target", "rate")),
    }
    files = {name: csv_text(columns, ([row[c] for c in columns] for row in rows))
             for name, (rows, columns) in tables.items()}
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

"""Executable stability harnesses for the strict fixed point problem T(x) = {x}.

Each harness turns one stability conclusion into a bounded numerical check
and returns a StabilityReport carrying the verdict, the explicit constant
actually used, and worst-case evidence:

* data dependence      |y* - x*| <= K * eta,  K = L(1+g)/((1-a-b) xi)
* psi-MP dependence    |x - x*| <= Psi(c D(x,T(x))),  |x*-y*| <= Psi(c eta)
* Ulam-Hyers           |y - x*| <= c eps,     c = L(1+b)/(1-a-b-g)
* well-posedness       |u_n - x*| <= c D(u_n, T(u_n)) with residuals -> 0
* Ostrowski            |v_{n+1} - x*| <= L(1+g)/(1-g) * sum k^(n-j) r_j
                                         + k^(n+1) |v_0 - x*|
* quasi-contraction    H(T(x),{x*}) <= l k |x - x*|  (gap-based weak variant)

Every harness takes the strict fixed point x* of T after its operators:
run_scenario passes it when SFix(T) is one isolated point, direct callers
can use unique_strict_fixed_point (same rule).  Each checks x* with one eval
per operator at iteration.STRICT_TOL and raises
StrictFixedPointMismatchError if it is not strict.

Verdicts use the uniform convention worst_ratio = max LHS/RHS with
holds <=> worst_ratio <= 1 + 1e-9 (for applicable reports).  Hypothesis
violations (non-decaying driver sequences, unavailable certificates) yield
applicable = False rather than a failure: a theorem is never blamed for a
violated premise.

The Ostrowski bound includes the initial-condition term k^(n+1)|v_0 - x*|,
which the plain weighted sum needs at finite n whenever v_0 != x*; both the
derived recurrence constant k = (a+b)/(1-g) and the alternative printed
form (a+b)/(1-a) are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .certify import (
    ContractionParams,
    _sup_on_grid,
    _verify_strict_point,
    displacement_constant_L,
    retraction_displacement_check,
)
from .errors import (
    ConstructionFailedError,
    HypothesisFailedError,
    InsufficientDataError,
    NoApproximateSolutionsError,
    NoStrictFixedPointError,
    OutOfDomainError,
    ParameterRangeError,
    SchemaError,
)
from .intervals import dist_point_to_set, nearest_point
from .iteration import scan_fixed_points
from .operators import (
    MultivaluedOperator,
    dist_to_value,
    hausdorff_between_values,
    hausdorff_to_point,
)

#: Verdict slack shared by every harness: holds <=> worst_ratio <= 1 + HOLDS_TOL.
HOLDS_TOL = 1e-9

#: Grid used for residual rejection sampling in the Ulam-Hyers harness.
UH_SAMPLING_GRID = 40_001


@dataclass(frozen=True)
class StabilityReport:
    """Per-property verdict with the constant used and sampled evidence.

    For applicable reports, holds <=> worst_ratio <= 1 + 1e-9.  Reports with
    applicable = False record a violated premise in details["reason"] and
    never count as failures.
    """

    property: str
    holds: bool
    constant: float
    samples: int
    worst_ratio: float
    applicable: bool = True
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "constant": self.constant,
            "samples": self.samples,
            "worst_ratio": self.worst_ratio,
            "applicable": self.applicable,
            "details": self.details,
        }


def _verdict(prop: str, constant: float, samples: int, worst: float,
             details: dict) -> StabilityReport:
    return StabilityReport(prop, worst <= 1.0 + HOLDS_TOL, constant, samples,
                           worst, True, details)


def not_applicable(prop: str, reason: str, details: dict | None = None) -> StabilityReport:
    d = dict(details or {})
    d["reason"] = reason
    return StabilityReport(prop, False, 0.0, 0, 0.0, False, d)


@dataclass(frozen=True)
class DecaySpec:
    """Geometric residual targets r_n = initial * ratio^n."""

    initial: float
    ratio: float

    def __post_init__(self) -> None:
        if self.initial < 0.0 or self.ratio < 0.0:
            raise ParameterRangeError("decay spec needs nonnegative initial and ratio")

    def value(self, n: int) -> float:
        return self.initial * self.ratio ** n

    @property
    def decays(self) -> bool:
        return self.initial == 0.0 or self.ratio < 1.0

    def to_json(self) -> dict:
        return {"initial": self.initial, "ratio": self.ratio}


@dataclass(frozen=True)
class ComparisonFunction:
    """Increasing Psi with Psi(0) = 0, continuous at 0: C*t or C*t^p."""

    kind: str
    C: float
    p: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "power"):
            raise ParameterRangeError(f"unknown comparison kind {self.kind!r}")
        if self.C <= 0.0 or self.p <= 0.0:
            raise ParameterRangeError("comparison function needs C > 0 and p > 0")

    def __call__(self, t):
        """Psi(t) for a number or elementwise for an array."""
        if np.any(np.asarray(t) < 0.0):
            raise ParameterRangeError("comparison functions are defined on [0, inf)")
        if self.kind == "linear":
            return self.C * t
        return self.C * t ** self.p

    def to_json(self) -> dict:
        out = {"kind": self.kind, "C": self.C}
        if self.kind == "power":
            out["p"] = self.p
        return out

    @classmethod
    def from_json(cls, obj: object) -> "ComparisonFunction":
        if not isinstance(obj, dict) or obj.get("kind") not in ("linear", "power"):
            raise SchemaError(f"comparison function JSON invalid: {obj!r}")
        try:
            return cls(obj["kind"], float(obj["C"]), float(obj.get("p", 1.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"comparison function JSON invalid: {obj!r}") from exc


# -- shared helpers ---------------------------------------------------------------


def unique_strict_fixed_point(t: MultivaluedOperator) -> float:
    """The strict fixed point of T, if SFix(T) is exactly one isolated point."""
    scan = scan_fixed_points(t)
    if scan.xstar is None:
        raise NoStrictFixedPointError(
            f"operator {t.name or '<anonymous>'} has strict fixed point set "
            f"{list(scan.strict)}; exactly one isolated point required")
    return scan.xstar


def _comparison_strict(f: MultivaluedOperator) -> tuple[list, np.ndarray]:
    """SFix(F) as report rows, and its part ends, where |y - x*| peaks."""
    scan = scan_fixed_points(f)
    if not scan.strict:
        raise NoStrictFixedPointError(
            f"comparison operator {f.name or '<anonymous>'} has no strict fixed point")
    ends = [v for e in scan.strict for v in (e if isinstance(e, tuple) else (e,))]
    return scan.to_json()["strict"], np.array(ends)


def _residual(t: MultivaluedOperator, x: float) -> float:
    return dist_point_to_set(x, t.eval(x))


def _ratio(lhs, rhs) -> np.ndarray:
    """lhs / rhs elementwise; below rhs = 1e-300 it reads 0 if lhs <= 1e-12, else inf."""
    out = np.where(np.asarray(lhs) <= 1e-12, 0.0, math.inf)
    np.divide(lhs, rhs, out=out, where=np.asarray(rhs) >= 1e-300)
    return out


def ulam_hyers_constant(params: ContractionParams, L: float) -> float:
    """The explicit stability constant L(1+beta)/(1-alpha-beta-gamma)."""
    denom = 1.0 - params.alpha - params.beta - params.gamma
    if denom <= 0.0:
        raise ParameterRangeError("need alpha + beta + gamma < 1")
    return L * (1.0 + params.beta) / denom


# -- data dependence ----------------------------------------------------------------


def data_dependence_verify(t: MultivaluedOperator, f: MultivaluedOperator,
                           xstar: float, params: ContractionParams, L: float,
                           grid_n: int = 2001) -> StabilityReport:
    """Every strict fixed point of a uniform eta-approximation F of T lies
    within K * eta of x*, with K = L(1+g)/((1-a-b) xi)."""
    _verify_strict_point(xstar, t)
    strict, ends = _comparison_strict(f)
    xi = retraction_displacement_check(t, params, L, xstar, grid_n)
    if not xi.holds:
        return not_applicable(
            "DataDependence",
            "retraction-displacement condition failed on the grid (xi_max < 1e-6)")
    K = L * (1.0 + params.gamma) / ((1.0 - params.alpha - params.beta) * xi.xi_max)

    xs = t.domain.grid(grid_n)
    eta, eta_arg = _sup_on_grid(
        hausdorff_between_values(*t.eval_grid(xs), *f.eval_grid(xs)), xs,
        float(t.domain.bounds.lo))
    worst, worst_y = _sup_on_grid(_ratio(np.abs(ends - xstar), K * eta), ends, None)
    details = {
        "eta": eta, "eta_argmax": eta_arg, "K_tilde": K, "xi_used": xi.xi_max,
        "fixed_point": xstar, "comparison_strict_points": strict,
        "worst_strict_point": worst_y, "grid_n": grid_n,
    }
    return _verdict("DataDependence", K, len(ends), worst, details)


def psi_mp_data_dependence(t: MultivaluedOperator, f: MultivaluedOperator,
                           tg: MultivaluedOperator, xstar: float, psi: ComparisonFunction,
                           c: float, grid_n: int = 2001) -> StabilityReport:
    """Comparison-function variant: premises are verified before use.

    Premise 1 (psi-MP): |x - x*| <= Psi(D(x, T_G(x))) on the grid.
    Premise 2: c dominates the displacement ratio sup D(x,T_G(x))/D(x,T(x)).
    Conclusions: |x - x*| <= Psi(c D(x,T(x))) on the grid and
    |x* - y*| <= Psi(c eta) for every strict fixed point y* of F.
    """
    if c <= 0.0:
        raise ParameterRangeError("psi-MP comparison needs c > 0")
    _verify_strict_point(xstar, t, tg)
    xs = t.domain.grid(grid_n)
    err = np.abs(xs - xstar)

    worst_premise, worst_x = _sup_on_grid(
        _ratio(err, psi(dist_to_value(xs, *tg.eval_grid(xs)))), xs, None)
    if worst_premise > 1.0 + HOLDS_TOL:
        raise HypothesisFailedError(
            f"psi-MP premise |x-x*| <= Psi(D(x,T_G(x))) fails at x={worst_x!r} "
            f"(ratio {worst_premise:.6g})")
    disp = displacement_constant_L(t, tg, grid_n)
    if c < disp.value - 1e-9:
        raise HypothesisFailedError(
            f"displacement premise fails: c={c} < sup D(x,T_G(x))/D(x,T(x)) = {disp.value}")

    strict, ends = _comparison_strict(f)
    lo, hi = t.eval_grid(xs)
    eta = float(np.max(hausdorff_between_values(lo, hi, *f.eval_grid(xs))))
    worst = max(float(np.max(_ratio(err, psi(c * dist_to_value(xs, lo, hi))))),
                float(np.max(_ratio(np.abs(ends - xstar), psi(c * eta)))))
    details = {
        "psi": psi.to_json(), "c": c, "eta": eta,
        "premise_worst_ratio": worst_premise,
        "displacement_sup": disp.value, "fixed_point": xstar,
        "comparison_strict_points": strict, "grid_n": grid_n,
    }
    return _verdict("PsiMPDataDependence", c, grid_n + len(ends), worst, details)


# -- Ulam-Hyers -------------------------------------------------------------------------


def ulam_hyers_verify(t: MultivaluedOperator, tg: MultivaluedOperator,
                      xstar: float, params: ContractionParams, L: float,
                      eps_list: Sequence[float],
                      samples_per_eps: int = 100) -> StabilityReport:
    """Every sampled eps-approximate solution lies within c*eps of x*.

    Approximate solutions (D(y, T(y)) <= eps) are drawn by deterministic
    seeded rejection over a fine grid.  Raises NoApproximateSolutions naming
    the tolerances for which the grid has no candidates.
    """
    if not eps_list:
        raise ParameterRangeError("ulam_hyers_verify needs at least one eps")
    for eps in eps_list:
        if eps <= 0.0:
            raise ParameterRangeError(f"eps values must be positive, got {eps}")
    if L <= 0.0:
        raise ParameterRangeError("ulam_hyers_verify needs L > 0")
    _verify_strict_point(xstar, t, tg)
    c = ulam_hyers_constant(params, L)

    xs = t.domain.grid(UH_SAMPLING_GRID)
    residuals = dist_to_value(xs, *t.eval_grid(xs))
    order = np.random.default_rng(0).permutation(len(xs))

    per_eps = []
    unsampled = []
    worst = 0.0
    total = 0
    for eps in eps_list:
        accepted = xs[order[residuals[order] <= eps][:samples_per_eps]]
        if not accepted.size:
            unsampled.append(eps)
            per_eps.append({"eps": eps, "samples": 0, "worst_ratio": None})
            continue
        w = float(np.max(_ratio(np.abs(accepted - xstar), c * eps)))
        worst = max(worst, w)
        total += len(accepted)
        per_eps.append({"eps": eps, "samples": len(accepted), "worst_ratio": w})
    if unsampled:
        raise NoApproximateSolutionsError(
            f"no approximate solutions found on the sampling grid for eps in "
            f"{unsampled} (grid {UH_SAMPLING_GRID})")
    details = {
        "c": c, "fixed_point": xstar, "per_eps": per_eps,
        "sampling_grid": UH_SAMPLING_GRID, "seed": 0,
        "params": params.to_json(), "L": L,
    }
    return _verdict("UlamHyers", c, total, worst, details)


# -- well-posedness ------------------------------------------------------------------------


def _point_with_residual(t: MultivaluedOperator, xstar: float,
                         lo: float, hi: float) -> float:
    """A point whose displacement D(x, T(x)) lies in [lo, hi], by bisection
    from x* outward (right side first)."""
    target = 0.5 * (lo + hi)
    b = t.domain.bounds
    for far in (b.hi, b.lo):
        a, fa = xstar, _residual(t, xstar) - target
        z, fz = far, _residual(t, far) - target
        if fa > 0.0 or fz < 0.0:
            continue
        for _ in range(200):
            m = 0.5 * (a + z)
            r = _residual(t, m)
            if lo <= r <= hi:
                return m
            if r - target < 0.0:
                a = m
            else:
                z = m
        m = 0.5 * (a + z)
        if lo <= _residual(t, m) <= hi:
            return m
    raise ConstructionFailedError(
        f"no point with displacement in [{lo:.3e}, {hi:.3e}] reachable by bisection")


def well_posedness_verify(t: MultivaluedOperator, xstar: float,
                          params: ContractionParams, L: float, sequence_spec: DecaySpec,
                          n_max: int = 60) -> StabilityReport:
    """Construct u_n with D(u_n, T(u_n)) in [r_n/2, r_n] and check
    |u_n - x*| <= L(1+b)/(1-a-b-g) * D(u_n, T(u_n)) along the way."""
    if n_max < 1:
        raise ParameterRangeError("well_posedness_verify needs n_max >= 1")
    if L <= 0.0:
        raise ParameterRangeError("well_posedness_verify needs L > 0")
    if not sequence_spec.decays:
        return not_applicable(
            "WellPosed",
            "residual targets do not decay to zero; the well-posedness premise "
            "D(u_n, T(u_n)) -> 0 is violated by construction",
            {"sequence": sequence_spec.to_json()})
    _verify_strict_point(xstar, t)
    c = ulam_hyers_constant(params, L)
    worst = 0.0
    final_err = math.inf
    errors = []
    for n in range(n_max + 1):
        r = sequence_spec.value(n)
        if r <= 0.0:
            u = xstar
        else:
            u = _point_with_residual(t, xstar, 0.5 * r, r)
        err = abs(u - xstar)
        worst = max(worst, float(_ratio(err, c * _residual(t, u))) if r > 0.0 else 0.0)
        errors.append(err)
        final_err = err
    details = {
        "c": c, "fixed_point": xstar, "final_error": final_err,
        "sequence": sequence_spec.to_json(), "n_max": n_max,
        "max_error": max(errors),
    }
    return _verdict("WellPosed", c, n_max + 1, worst, details)


# -- Ostrowski -----------------------------------------------------------------------------


def cauchy_toeplitz_sum(k: float, b: Sequence[float], n: int) -> float:
    """c_n = sum_{j<=n} k^(n-j) b_j via the stable recurrence c = k*c + b_j.

    With k in (0,1) and b_n -> 0 the sequence c_n tends to zero; this is the
    convolution bound driving the Ostrowski argument.
    """
    if not 0.0 < k < 1.0:
        raise ParameterRangeError(f"cauchy_toeplitz_sum needs k in (0, 1), got {k}")
    if n < 0:
        raise ParameterRangeError("cauchy_toeplitz_sum needs n >= 0")
    if len(b) < n + 1:
        raise InsufficientDataError(
            f"need at least {n + 1} terms of b, got {len(b)}")
    c = 0.0
    for j in range(n + 1):
        bj = b[j]
        if bj < 0.0:
            raise ParameterRangeError("cauchy_toeplitz_sum needs nonnegative terms")
        c = k * c + bj
    return c


def ostrowski_verify(t: MultivaluedOperator, xstar: float, params: ContractionParams,
                     L: float, x0: float, delta_spec: DecaySpec, n_max: int = 60,
                     final_tol: float = 1e-6) -> StabilityReport:
    """Perturbed Picard selection orbit v_{n+1} = nearest(T(v_n), v_n) + s_n d_n.

    Checks, with the derived k = (a+b)/(1-g):
      * construction residuals D(v_{n+1}, T(v_n)) <= delta_n,
      * the unrolled recurrence bound
        |v_{n+1} - x*| <= L(1+g)/(1-g) * sum_j k^(n-j) r_j + k^(n+1) |v_0 - x*|,
      * convergence |v_final - x*| < final_tol.
    All three fold into worst_ratio.  A non-decaying delta sequence violates
    the Ostrowski premise and yields a not-applicable report.
    """
    if n_max < 1:
        raise ParameterRangeError("ostrowski_verify needs n_max >= 1")
    if L <= 0.0 or final_tol <= 0.0:
        raise ParameterRangeError("ostrowski_verify needs L > 0 and final_tol > 0")
    if not t.domain.contains(x0):
        raise OutOfDomainError(f"x0={x0!r} outside operator domain")
    if not delta_spec.decays:
        return not_applicable(
            "Ostrowski",
            "perturbation magnitudes do not decay to zero; the Ostrowski premise "
            "D(v_{n+1}, T(v_n)) -> 0 is violated by construction",
            {"delta": delta_spec.to_json()})
    _verify_strict_point(xstar, t)
    k = corollary_k_value = (params.alpha + params.beta) / (1.0 - params.gamma)
    if not 0.0 < k < 1.0:
        # k = 0 means T_G maps everything to {x*}: the bound degenerates but
        # the orbit check still makes sense with an arbitrary small k.
        if k == 0.0:
            k = 1e-12
        else:
            raise ParameterRangeError(f"derived constant k={k} outside (0, 1)")
    k_printed = (params.alpha + params.beta) / (1.0 - params.alpha)
    pref = L * (1.0 + params.gamma) / (1.0 - params.gamma)

    bounds = t.domain.bounds
    v = bounds.clamp(x0)
    d0 = abs(v - xstar)
    ct = 0.0
    worst = 0.0
    worst_step = None
    for n in range(n_max):
        image = t.eval(v)
        base = nearest_point(image, v)
        delta = delta_spec.value(n)
        v_next = bounds.clamp(base + (delta if n % 2 == 0 else -delta))
        r = dist_point_to_set(v_next, image)
        if r > delta:
            # delta below one ulp of the base point: rounding would overshoot
            # the permitted perturbation, so take the plain selection step
            v_next = base
            r = dist_point_to_set(v_next, image)
        r_ratio = (float(_ratio(r, delta)) if delta > 0.0
                   else (0.0 if r <= 1e-12 else math.inf))
        ct = k * ct + r
        bound = pref * ct + k ** (n + 1) * d0
        b_ratio = float(_ratio(abs(v_next - xstar), bound))
        step_worst = max(r_ratio, b_ratio)
        if step_worst > worst:
            worst, worst_step = step_worst, n
        v = v_next
    final_err = abs(v - xstar)
    worst = max(worst, final_err / final_tol)
    details = {
        "k_derived": corollary_k_value, "k_printed": k_printed,
        "prefactor": pref, "fixed_point": xstar, "x0": x0,
        "final_error": final_err, "final_tol": final_tol,
        "delta": delta_spec.to_json(), "steps": n_max, "worst_step": worst_step,
    }
    return _verdict("Ostrowski", corollary_k_value, n_max, worst, details)


# -- quasi-contraction --------------------------------------------------------------------------


def quasi_contraction_verify(t: MultivaluedOperator, tg: MultivaluedOperator,
                             xstar: float, l: float, params: ContractionParams,
                             grid_n: int = 2001, weak: bool = False) -> StabilityReport:
    """Conclusion check H(T(x),{x*}) <= l*k*|x-x*| (strong) or the gap-based
    weak analogue D(T(x),{x*}) <= l*k*|x-x*|, with k = (a+b)/(1-g)."""
    if grid_n < 2:
        raise ParameterRangeError("quasi_contraction_verify needs grid_n >= 2")
    if l < 0.0:
        raise ParameterRangeError("quasi-contraction comparison constant must be >= 0")
    _verify_strict_point(xstar, t, tg)
    k = (params.alpha + params.beta) / (1.0 - params.gamma)
    eff = l * k
    if eff >= 1.0:
        raise ParameterRangeError(
            f"effective quasi-contraction constant l*k = {eff} is not below 1")
    xs = t.domain.grid(grid_n)
    lo, hi = t.eval_grid(xs)
    lhs = dist_to_value(xstar, lo, hi) if weak else hausdorff_to_point(lo, hi, xstar)
    err = np.abs(xs - xstar)
    worst, worst_x = _sup_on_grid(
        np.where(err < 1e-12, 0.0, _ratio(lhs, eff * err)), xs, None)
    prop = "WeakQuasiContraction" if weak else "QuasiContraction"
    details = {"l": l, "k": k, "effective_constant": eff,
               "fixed_point": xstar, "grid_n": grid_n, "worst_x": worst_x}
    return _verdict(prop, eff, grid_n, worst, details)

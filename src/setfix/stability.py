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

D(x, T(x)) comes from eval_grid throughout: on a domain grid from the
operator's grid_values table, computed once per operator and grid size, with
T_G and F read at T's grid through operators.paired_values; the
well-posedness points u_n are found by one bisection run in lockstep over all
their residual bands, which also gives their residuals.

Every harness takes the strict fixed point x* of T after its operators:
run_scenario passes it when SFix(T) is one isolated point, direct callers
can use unique_strict_fixed_point (same rule).  Each checks x* with one eval
per operator at iteration.STRICT_TOL and raises
StrictFixedPointMismatchError if it is not strict.

The constants above are derived for the ciric condition
(certify.CONSTANTS_VARIANT).  For params of another variant, the
data-dependence, Ulam-Hyers, well-posedness and Ostrowski harnesses return a
not-applicable report with certify.variant_reason's reason, and run_scenario
reports every harness not applicable.

Verdicts use the uniform convention worst_ratio = max LHS/RHS with
holds <=> worst_ratio <= 1 + 1e-9 (for applicable reports).  Hypothesis
violations (non-decaying driver sequences, unavailable certificates) yield
applicable = False rather than a failure: a theorem is never blamed for a
violated premise.

The Ostrowski bound includes the initial-condition term k^(n+1)|v_0 - x*|,
which the plain weighted sum needs at finite n whenever v_0 != x*; both the
derived recurrence constant k = corollary_k(params) and the alternative printed
form (a+b)/(1-a) are reported.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .certify import (
    ContractionParams,
    _sup_on_grid,
    _verify_strict_point,
    corollary_k,
    displacement_constant_L,
    retraction_displacement_check,
    variant_reason,
)
from .errors import (
    ConstructionFailedError,
    HypothesisFailedError,
    InsufficientDataError,
    NoApproximateSolutionsError,
    NoStrictFixedPointError,
    OutOfDomainError,
    ParameterRangeError,
    factory,
    fields_dict,
    is_json_number,
    json_field,
    json_keys,
    record,
)
from .intervals import dist_point_to_set, nearest_point
from .iteration import scan_fixed_points
from .operators import (
    MultivaluedOperator,
    dist_to_value,
    hausdorff_between_values,
    hausdorff_to_point,
    paired_values,
)

#: Verdict slack shared by every harness: holds <=> worst_ratio <= 1 + HOLDS_TOL.
HOLDS_TOL = 1e-9

#: Grid used for residual rejection sampling in the Ulam-Hyers harness.
UH_SAMPLING_GRID = 40_001

@record
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
    details: dict = factory(dict)

    to_json = fields_dict


def _verdict(prop: str, constant: float, samples: int, worst: float,
             details: dict) -> StabilityReport:
    return StabilityReport(prop, worst <= 1.0 + HOLDS_TOL, constant, samples,
                           worst, True, details)


def not_applicable(prop: str, reason: str, details: dict | None = None) -> StabilityReport:
    d = dict(details or {})
    d["reason"] = reason
    return StabilityReport(prop, False, 0.0, 0, 0.0, False, d)


@record
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

    to_json = fields_dict


@record
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
        json_keys(obj, ("kind", "C", "p"), "comparison function")
        positive = (lambda v: is_json_number(v) and v > 0), "a number > 0", "comparison function"
        return cls(json_field(obj, "kind", lambda v: v in ("linear", "power"),
                              "'linear' or 'power'", "comparison function"),
                   float(json_field(obj, "C", *positive)),
                   float(json_field(obj, "p", *positive, 1.0)))


# -- shared helpers ---------------------------------------------------------------


def unique_strict_fixed_point(t: MultivaluedOperator) -> float:
    """The strict fixed point of T, if SFix(T) is exactly one isolated point."""
    scan = scan_fixed_points(t)
    if scan.xstar is None:
        raise NoStrictFixedPointError(
            f"operator {t.name or '<anonymous>'} has strict fixed point set "
            f"{list(scan.strict)}; exactly one isolated point required")
    return scan.xstar


def _comparison(t: MultivaluedOperator, f: MultivaluedOperator,
                grid_n: int) -> tuple[list, np.ndarray, float, float]:
    """SFix(F) as report rows and its part ends, where |y - x*| peaks, and
    eta = sup H(T(x), F(x)) over T's grid with its first argmax."""
    scan = scan_fixed_points(f)
    if not scan.strict:
        raise NoStrictFixedPointError(
            f"comparison operator {f.name or '<anonymous>'} has no strict fixed point")
    ends = [v for e in scan.strict for v in (e if isinstance(e, tuple) else (e,))]
    xs, lo, hi = t.grid_values(grid_n)
    eta, eta_arg = _sup_on_grid(hausdorff_between_values(lo, hi, *paired_values(t, f, grid_n)),
                                xs, float(t.domain.bounds.lo))
    return scan.to_json()["strict"], np.array(ends), eta, eta_arg


def _ratio(lhs, rhs) -> np.ndarray:
    """lhs / rhs elementwise; below rhs = 1e-300 it reads 0 if lhs <= 1e-12, else inf."""
    out = np.where(np.asarray(lhs) <= 1e-12, 0.0, math.inf)
    np.divide(lhs, rhs, out=out, where=np.asarray(rhs) >= 1e-300)
    return out


def ulam_hyers_constant(params: ContractionParams, L: float) -> float:
    """The explicit stability constant L(1+beta)/(1-alpha-beta-gamma)."""
    return L * (1.0 + params.beta) / (1.0 - params.alpha - params.beta - params.gamma)


# -- data dependence ----------------------------------------------------------------


def data_dependence_verify(t: MultivaluedOperator, f: MultivaluedOperator,
                           xstar: float, params: ContractionParams, L: float,
                           grid_n: int = 2001) -> StabilityReport:
    """Every strict fixed point of a uniform eta-approximation F of T lies
    within K * eta of x*, with K = L(1+g)/((1-a-b) xi)."""
    reason = variant_reason(params.variant)
    if reason is not None:
        return not_applicable("DataDependence", reason)
    _verify_strict_point(xstar, t)
    strict, ends, eta, eta_arg = _comparison(t, f, grid_n)
    xi = retraction_displacement_check(t, params, L, xstar, grid_n)
    if not xi.holds:
        return not_applicable(
            "DataDependence",
            "retraction-displacement condition failed on the grid (xi_max < 1e-6)")
    K = L * (1.0 + params.gamma) / ((1.0 - params.alpha - params.beta) * xi.xi_max)
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
    xs, lo, hi = t.grid_values(grid_n)
    err = np.abs(xs - xstar)

    worst_premise, worst_x = _sup_on_grid(
        _ratio(err, psi(dist_to_value(xs, *paired_values(t, tg, grid_n)))), xs, None)
    if worst_premise > 1.0 + HOLDS_TOL:
        raise HypothesisFailedError(
            f"psi-MP premise |x-x*| <= Psi(D(x,T_G(x))) fails at x={worst_x!r} "
            f"(ratio {worst_premise:.6g})")
    disp = displacement_constant_L(t, tg, grid_n)
    if c < disp.value - 1e-9:
        raise HypothesisFailedError(
            f"displacement premise fails: c={c} < sup D(x,T_G(x))/D(x,T(x)) = {disp.value}")

    strict, ends, eta, _ = _comparison(t, f, grid_n)
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


@functools.lru_cache(maxsize=None)
def _uh_order() -> np.ndarray:
    """The seeded order in which the UH_SAMPLING_GRID points are drawn, built
    on first use and shared read-only."""
    order = np.random.default_rng(0).permutation(UH_SAMPLING_GRID)
    order.flags.writeable = False
    return order


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
    if L <= 0.0 or samples_per_eps < 1:
        raise ParameterRangeError("ulam_hyers_verify needs L > 0 and samples_per_eps >= 1")
    reason = variant_reason(params.variant)
    if reason is not None:
        return not_applicable("UlamHyers", reason)
    _verify_strict_point(xstar, t, tg)
    c = ulam_hyers_constant(params, L)

    xs, lo, hi = t.grid_values(UH_SAMPLING_GRID)
    order = _uh_order()
    residuals = dist_to_value(xs, lo, hi)[order]

    per_eps = []
    unsampled = []
    worst = 0.0
    total = 0
    for eps in eps_list:
        accepted = xs[order[residuals <= eps][:samples_per_eps]]
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


def _points_with_residuals(t: MultivaluedOperator, xstar: float,
                           r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u_n with D(u_n, T(u_n)) in [r_n/2, r_n] for each r_n > 0, else x*, and
    those residuals D(u_n, T(u_n)): per side (right first, tried if the
    residual brackets the band's midpoint), 200 halvings from x* outward and
    one last midpoint, in lockstep over the bands still open; the first
    midpoint in its band wins."""
    lo, hi = 0.5 * r, r
    target = 0.5 * (lo + hi)
    b = t.domain.bounds
    ends = np.array([xstar, b.hi, b.lo])
    at_star, *at_far = dist_to_value(ends, *t.eval_grid(ends))
    u, res = np.full(len(r), xstar), np.full(len(r), at_star)
    open_ = r > 0.0
    for far, at_end in zip((b.hi, b.lo), at_far):
        idx = np.flatnonzero(open_ & (at_star - target <= 0.0) & (at_end - target >= 0.0))
        a, z = np.full(len(idx), xstar), np.full(len(idx), far)
        for _ in range(201):
            if not idx.size:
                break
            m = 0.5 * (a + z)
            d = dist_to_value(m, *t.eval_grid(m))
            hit = (lo[idx] <= d) & (d <= hi[idx])
            u[idx[hit]], res[idx[hit]] = m[hit], d[hit]
            open_[idx[hit]] = False
            below = d - target[idx] < 0.0
            a, z = np.where(below, m, a)[~hit], np.where(below, z, m)[~hit]
            idx = idx[~hit]
    if open_.any():
        n = int(np.argmax(open_))
        raise ConstructionFailedError(
            f"no point with displacement in [{lo[n]:.3e}, {hi[n]:.3e}] reachable by bisection")
    return u, res


def well_posedness_verify(t: MultivaluedOperator, xstar: float,
                          params: ContractionParams, L: float, sequence_spec: DecaySpec,
                          n_max: int = 60) -> StabilityReport:
    """Construct u_n with D(u_n, T(u_n)) in [r_n/2, r_n] and check
    |u_n - x*| <= L(1+b)/(1-a-b-g) * D(u_n, T(u_n)) along the way; all u_n
    come from one array bisection on eval_grid."""
    if n_max < 1:
        raise ParameterRangeError("well_posedness_verify needs n_max >= 1")
    if L <= 0.0:
        raise ParameterRangeError("well_posedness_verify needs L > 0")
    reason = variant_reason(params.variant)
    if reason is not None:
        return not_applicable("WellPosed", reason)
    if not sequence_spec.decays:
        return not_applicable(
            "WellPosed",
            "residual targets do not decay to zero; the well-posedness premise "
            "D(u_n, T(u_n)) -> 0 is violated by construction",
            {"sequence": sequence_spec.to_json()})
    _verify_strict_point(xstar, t)
    c = ulam_hyers_constant(params, L)
    u, res = _points_with_residuals(
        t, xstar, np.array([sequence_spec.value(n) for n in range(n_max + 1)]))
    err = np.abs(u - xstar)
    # u_n = x* where r_n <= 0, so its ratio is 0
    worst = float(np.max(_ratio(err, c * res)))
    details = {
        "c": c, "fixed_point": xstar, "final_error": float(err[-1]),
        "sequence": sequence_spec.to_json(), "n_max": n_max,
        "max_error": float(np.max(err)),
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

    Checks, with the derived k = corollary_k(params):
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
    reason = variant_reason(params.variant)
    if reason is not None:
        return not_applicable("Ostrowski", reason)
    if not delta_spec.decays:
        return not_applicable(
            "Ostrowski",
            "perturbation magnitudes do not decay to zero; the Ostrowski premise "
            "D(v_{n+1}, T(v_n)) -> 0 is violated by construction",
            {"delta": delta_spec.to_json()})
    _verify_strict_point(xstar, t)
    k = corollary_k(params)
    k_printed = (params.alpha + params.beta) / (1.0 - params.alpha)
    pref = L * (1.0 + params.gamma) / (1.0 - params.gamma)

    bounds = t.domain.bounds
    v = bounds.clamp(x0)
    d0 = abs(v - xstar)
    ct = 0.0
    steps = []  # per step: r, delta, |v_{n+1} - x*| and its bound
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
        ct = k * ct + r
        steps.append((r, delta, abs(v_next - xstar), pref * ct + k ** (n + 1) * d0))
        v = v_next
    r, delta, err, bound = np.array(steps).T
    ratio = np.maximum(_ratio(r, delta), _ratio(err, bound))
    i = int(np.argmax(ratio))
    worst, worst_step = (float(ratio[i]), i) if ratio[i] > 0.0 else (0.0, None)
    final_err = abs(v - xstar)
    worst = max(worst, final_err / final_tol)
    details = {
        "k_derived": k, "k_printed": k_printed,
        "prefactor": pref, "fixed_point": xstar, "x0": x0,
        "final_error": final_err, "final_tol": final_tol,
        "delta": delta_spec.to_json(), "steps": n_max, "worst_step": worst_step,
    }
    return _verdict("Ostrowski", k, n_max, worst, details)


# -- quasi-contraction --------------------------------------------------------------------------


def quasi_contraction_verify(t: MultivaluedOperator, tg: MultivaluedOperator,
                             xstar: float, l: float, params: ContractionParams,
                             grid_n: int = 2001, weak: bool = False) -> StabilityReport:
    """Conclusion check H(T(x),{x*}) <= l*k*|x-x*| (strong) or the gap-based
    weak analogue D(T(x),{x*}) <= l*k*|x-x*|, with k = corollary_k(params)."""
    if l < 0.0:
        raise ParameterRangeError("quasi-contraction comparison constant must be >= 0")
    _verify_strict_point(xstar, t, tg)
    k = corollary_k(params)
    eff = l * k
    if eff >= 1.0:
        raise ParameterRangeError(
            f"effective quasi-contraction constant l*k = {eff} is not below 1")
    xs, lo, hi = t.grid_values(grid_n)
    lhs = dist_to_value(xstar, lo, hi) if weak else hausdorff_to_point(lo, hi, xstar)
    err = np.abs(xs - xstar)
    worst, worst_x = _sup_on_grid(
        np.where(err < 1e-12, 0.0, _ratio(lhs, eff * err)), xs, None)
    prop = "WeakQuasiContraction" if weak else "QuasiContraction"
    details = {"l": l, "k": k, "effective_constant": eff,
               "fixed_point": xstar, "grid_n": grid_n, "worst_x": worst_x}
    return _verdict(prop, eff, grid_n, worst, details)

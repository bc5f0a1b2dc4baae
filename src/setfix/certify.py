"""Numerical certification of Ciric-type contraction conditions.

For a multivalued operator T and each ordered grid pair (x, y) the
contraction condition is one linear constraint on the parameters
(alpha, beta, gamma):

    ciric            H(T(x),T(y)) <= a*d(x,y) + b*D(x,T(y)) + g*D(y,T(x))
    ciric_reich_rus  H(T(x),T(y)) <= a*d(x,y) + b*D(x,T(x)) + g*D(y,T(y))
    combined         H(T(x),T(y)) <= a*d(x,y) + b*[D(x,T(x)) + D(y,T(y))]
                                              + g*[D(x,T(y)) + D(y,T(x))]

Feasibility over the admissible simplex (a+b+g < 1 for ciric, a+2b < 1 for
the other two) is decided by a deterministic coarse-to-fine grid search
(initial step 0.05, three halvings) minimizing a+b+g.  The search is serial
and screened: each candidate's minimum over a small working set of pair
rows (seeded with the witness pair and the largest LHS) is an exact upper
bound on its margin, computed from the same floats as the full minimum.
Only a candidate the bound cannot reject is swept over all pairs, and a
sweep that falls short adds its binding pair to the working set.  The
infeasible path finds the best margin by branch and bound on the same
bounds.  Results equal an exhaustive sweep of every candidate.  A genuinely
infeasible instance is proven by a single witness pair whose constraint
alone cannot be met by any admissible parameters (reported bound > 1);
otherwise infeasibility means exhaustion of the search grid and the
hardest pair is reported with its bound <= 1.

Grid sweeps evaluate T once via eval_grid and the single-interval closed
forms in operators.  The strict fixed point x* comes from the caller
(SFix(T) from scan_fixed_points in run_scenario, or
unique_strict_fixed_point), checked by one eval at iteration.STRICT_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDomainError,
    ParameterRangeError,
    SchemaError,
    StrictFixedPointMismatchError,
)
from .intervals import IntervalUnion, hausdorff
from .iteration import STRICT_TOL
from .operators import (
    MultivaluedOperator,
    dist_to_value,
    hausdorff_between_values,
    hausdorff_to_point,
)

VARIANTS = ("ciric", "ciric_reich_rus", "combined")

#: The admissible region is closed with this margin off the open boundary,
#: respecting the strict inequality in the contraction definitions.
STRICTNESS = 1e-6

_SEARCH_STEP = 0.05
_REFINEMENTS = 3


@dataclass(frozen=True)
class ContractionParams:
    """The parameter triple of a contraction-type condition."""

    alpha: float
    beta: float
    gamma: float
    variant: str = "ciric"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ParameterRangeError(f"unknown variant {self.variant!r}")
        if min(self.alpha, self.beta, self.gamma) < 0.0:
            raise ParameterRangeError("contraction parameters must be nonnegative")
        if not self.simplex_ok():
            raise ParameterRangeError(
                f"params {(self.alpha, self.beta, self.gamma)} violate the "
                f"{self.variant} simplex constraint")

    def simplex_ok(self) -> bool:
        if self.variant == "ciric":
            return self.alpha + self.beta + self.gamma < 1.0
        return self.alpha + 2.0 * self.beta < 1.0

    @property
    def total(self) -> float:
        return self.alpha + self.beta + self.gamma

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
                "variant": self.variant}


class Witness(NamedTuple):
    x: float
    y: float
    bound: float


@dataclass(frozen=True)
class ContractionCertificate:
    """Outcome of a feasibility search over the parameter simplex.

    feasible   -- params satisfy every sampled pair constraint with margin >= 0
    margin     -- min over pairs of RHS - LHS at the found params; for an
                  infeasible certificate, the best (largest) margin seen
    witness    -- hardest pair; bound > 1 is a proof that no admissible
                  parameters exist, bound <= 1 records search exhaustion
    """

    feasible: bool
    params: ContractionParams | None
    margin: float
    witness: Witness | None
    sample_grid: int
    skipped: int

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "alpha": None if self.params is None else self.params.alpha,
            "beta": None if self.params is None else self.params.beta,
            "gamma": None if self.params is None else self.params.gamma,
            "margin": self.margin,
            "witness": None if self.witness is None else {
                "x": self.witness.x, "y": self.witness.y, "bound": self.witness.bound},
            "grid_n": self.sample_grid,
            "skipped": self.skipped,
        }

    @classmethod
    def from_json(cls, obj: dict, variant: str = "ciric") -> "ContractionCertificate":
        if not isinstance(obj, dict):
            raise SchemaError("certificate JSON must be an object")
        params = None
        if obj.get("alpha") is not None:
            params = ContractionParams(obj["alpha"], obj["beta"], obj["gamma"], variant)
        wit = obj.get("witness")
        witness = None if wit is None else Witness(wit["x"], wit["y"], wit["bound"])
        return cls(bool(obj["feasible"]), params, float(obj["margin"]), witness,
                   int(obj["grid_n"]), int(obj.get("skipped", 0)))


def _pair_system(t: MultivaluedOperator, variant: str, xs: np.ndarray):
    """LHS and the three feature columns over all ordered pairs x != y."""
    lo, hi = t.eval_grid(xs)
    X = xs[:, None]
    dist = dist_to_value(X, lo[None, :], hi[None, :])
    h = hausdorff_between_values(lo[:, None], hi[:, None], lo[None, :], hi[None, :])
    d = np.abs(X - xs[None, :])
    n = len(xs)
    mask = ~np.eye(n, dtype=bool)
    lhs = h[mask]
    u = d[mask]
    if variant == "ciric":
        v = dist[mask]
        w = dist.T[mask]
    elif variant == "ciric_reich_rus":
        diag = np.diag(dist)
        v = np.broadcast_to(diag[:, None], (n, n))[mask]
        w = np.broadcast_to(diag[None, :], (n, n))[mask]
    else:  # combined
        diag = np.diag(dist)
        v = (diag[:, None] + diag[None, :])[mask]
        w = (dist + dist.T)[mask]
    return lhs, u, v, w


def _pair_of(k: int, n: int) -> tuple[int, int]:
    """Grid indices (i, j) of flat pair k, in _pair_system's row-major order."""
    i, r = divmod(k, n - 1)
    return i, r + (r >= i)


def _candidates(step: float, variant: str,
                center: tuple[float, float, float] | None = None,
                radius: float | None = None) -> list[tuple[float, float, float]]:
    cap = 1.0 - STRICTNESS

    def ok(a: float, b: float, g: float) -> bool:
        if min(a, b, g) < 0.0 or max(a, b, g) > cap:
            return False
        if variant == "ciric":
            return a + b + g <= cap
        return a + 2.0 * b <= cap

    out = []
    if center is None:
        count = int(round(1.0 / step)) + 1
        vals = [round(i * step, 10) for i in range(count)]
        for a in vals:
            for b in vals:
                for g in vals:
                    if ok(a, b, g):
                        out.append((a, b, g))
    else:
        offs = (-radius, -0.5 * radius, 0.0, 0.5 * radius, radius)
        seen = set()
        for da in offs:
            for db in offs:
                for dg in offs:
                    a = round(center[0] + da, 10)
                    b = round(center[1] + db, 10)
                    g = round(center[2] + dg, 10)
                    if (a, b, g) not in seen and ok(a, b, g):
                        seen.add((a, b, g))
                        out.append((a, b, g))
    out.sort(key=lambda t: (t[0] + t[1] + t[2], t))
    return out


def _sweep(c: tuple[float, float, float], lhs, u, v, w) -> tuple[float, int]:
    """Exact margin of one candidate over every pair, and the first pair attaining it."""
    a, b, g = c
    s = a * u + b * v + g * w - lhs
    return float(np.min(s)), int(np.argmin(s))


class _Screen:
    """Exact margins of a candidate list, screened by a working set of pair rows.

    bounds[i] is cands[i]'s minimum over the working set, built with the
    same element expression as the full sweep, so it is an exact upper bound
    on the margin (a matmul or any fused or reordered form would change the
    bits and lose that).  A full sweep runs only where the bound cannot decide; its
    argmin row joins the working set (shared across candidate lists) and
    tightens every bound, so a swept candidate's bound equals its margin.
    """

    def __init__(self, cands, pairs, rows: list[int]) -> None:
        self.cands = cands
        self.pairs = pairs
        self.rows = rows
        self.coef = np.array(cands, dtype=float).reshape(-1, 3).T
        self.bounds = np.full(len(cands), np.inf)
        for k in rows:
            self._tighten(k)
        self.max_swept = -np.inf

    def _tighten(self, k: int) -> None:
        a, b, g = self.coef
        lhs, u, v, w = (col[k] for col in self.pairs)
        np.minimum(self.bounds, a * u + b * v + g * w - lhs, out=self.bounds)

    def _exact(self, i: int) -> float:
        m, k = _sweep(self.cands[i], *self.pairs)
        self.max_swept = max(self.max_swept, m)
        if k not in self.rows:
            self.rows.append(k)
            self._tighten(k)
        return m

    def first_feasible(self, slack: float):
        """(candidate, margin) of the first candidate with margin >= slack, or None.

        Every candidate before it is rejected exactly, by its bound or its sweep.
        """
        for i in np.flatnonzero(self.bounds >= slack):
            if self.bounds[i] >= slack:
                m = self._exact(int(i))
                if m >= slack:
                    return self.cands[i], m
        return None

    def max_margin(self) -> float:
        """Largest margin over the list, by branch and bound on the bounds."""
        while True:
            i = int(np.argmax(self.bounds))
            if not self.bounds[i] > self.max_swept:
                break
            self._exact(i)
        return self.max_swept


def certify_contraction(t: MultivaluedOperator, variant: str = "ciric",
                        grid_n: int = 501,
                        margin_req: float = 0.0) -> ContractionCertificate:
    """Search the admissible simplex for parameters satisfying every pair constraint.

    Deterministic: level 0 sweeps the whole simplex at step 0.05 in ascending
    (a+b+g, a, b, g) order; three refinement levels halve the step around the
    best feasible triple.  Feasibility requires slack >= margin_req * scale
    where scale = max(1, max LHS).
    """
    if variant not in VARIANTS:
        raise ParameterRangeError(f"unknown variant {variant!r}")
    if grid_n < 2:
        raise DegenerateDomainError("certification needs grid_n >= 2")
    if margin_req < 0.0:
        raise ParameterRangeError("margin_req must be >= 0")

    xs = t.domain.grid(grid_n)
    pairs = lhs, u, v, w = _pair_system(t, variant, xs)
    rowmax = np.maximum(u, np.maximum(v, w))
    active = lhs > 1e-14
    skipped = int(np.sum(~active))
    required = np.zeros_like(lhs)
    np.divide(lhs, np.maximum(rowmax, 1e-300), out=required, where=active)
    imax = int(np.argmax(required))
    wi, wj = _pair_of(imax, len(xs))
    witness = Witness(float(xs[wi]), float(xs[wj]), float(required[imax]))
    scale = max(1.0, float(lhs.max())) if len(lhs) else 1.0
    slack = margin_req * scale

    if witness.bound > 1.0 / (1.0 - STRICTNESS):
        # this single pair forbids the whole admissible simplex; its best
        # achievable slack bounds every candidate's margin from above
        ceiling = float((1.0 - STRICTNESS) * rowmax[imax] - lhs[imax])
        return ContractionCertificate(False, None, ceiling, witness,
                                      grid_n, skipped)

    rows = [imax, int(np.argmax(lhs))]
    cands = _candidates(_SEARCH_STEP, variant)
    screen = _Screen(cands, pairs, rows)
    found = screen.first_feasible(slack)
    if found is None:
        return ContractionCertificate(False, None, screen.max_margin(), witness,
                                      grid_n, skipped)
    best, best_margin = found

    radius = _SEARCH_STEP
    for _ in range(_REFINEMENTS):
        radius *= 0.5
        local = [c for c in _candidates(radius, variant, center=best, radius=radius)
                 if sum(c) < sum(best) - 1e-12]
        found = _Screen(local, pairs, rows).first_feasible(slack)
        if found is not None:
            best, best_margin = found
    params = ContractionParams(*best, variant=variant)
    return ContractionCertificate(True, params, float(best_margin), None,
                                  grid_n, skipped)


class GridSup(NamedTuple):
    """Supremum of a ratio over a grid, with skip bookkeeping."""

    value: float
    skipped: int
    arg: float


def _verify_strict_point(xstar: float, *ops: MultivaluedOperator) -> None:
    """Raise unless T(x*) = {x*} for every operator, at STRICT_TOL."""
    for op in ops:
        defect = hausdorff(op.eval(xstar), IntervalUnion.singleton(xstar))
        if defect >= STRICT_TOL:
            raise StrictFixedPointMismatchError(
                f"{op.name or '<anonymous>'}: {xstar!r} is not a strict fixed point "
                f"(hausdorff(T(x*), {{x*}}) = {defect:.3e})")


def _sup_on_grid(values: np.ndarray, xs, default):
    """(max, first argmax) of values over xs, or (0.0, default) if none is positive."""
    i = int(np.argmax(values))
    if values[i] > 0.0:
        return float(values[i]), float(xs[i])
    return 0.0, default


def _grid_sup(xs: np.ndarray, num: np.ndarray, den: np.ndarray, skip: np.ndarray,
              default: float) -> GridSup:
    ratio = np.divide(num, den, out=np.zeros_like(num), where=~skip)
    value, arg = _sup_on_grid(ratio, xs, default)
    return GridSup(value, int(skip.sum()), arg)


def sup_ratio_l(t: MultivaluedOperator, tg: MultivaluedOperator, xstar: float,
                grid_n: int = 2001) -> GridSup:
    """sup over grid x != x* of H(T(x), {x*}) / H(T_G(x), {x*}).

    Denominators below 1e-14 are skipped and counted.  A value < 1 realizes
    the comparison constant used by the convergence and quasi-contraction
    arguments.
    """
    if grid_n < 2:
        raise ParameterRangeError("sup_ratio_l needs grid_n >= 2")
    _verify_strict_point(xstar, t, tg)
    xs = t.domain.grid(grid_n)
    den = hausdorff_to_point(*tg.eval_grid(xs), xstar)
    return _grid_sup(xs, hausdorff_to_point(*t.eval_grid(xs), xstar), den,
                     (xs == xstar) | (den < 1e-14), xstar)


def sup_gap_ratio_l(t: MultivaluedOperator, tg: MultivaluedOperator, xstar: float,
                    grid_n: int = 2001) -> GridSup:
    """Gap-based analogue: sup of D(T(x), {x*}) / D(T_G(x), {x*}) (weak variant)."""
    if grid_n < 2:
        raise ParameterRangeError("sup_gap_ratio_l needs grid_n >= 2")
    _verify_strict_point(xstar, t, tg)
    xs = t.domain.grid(grid_n)
    den = dist_to_value(xstar, *tg.eval_grid(xs))
    return _grid_sup(xs, dist_to_value(xstar, *t.eval_grid(xs)), den,
                     (xs == xstar) | (den < 1e-14), xstar)


def displacement_constant_L(t: MultivaluedOperator, tg: MultivaluedOperator,
                            grid_n: int = 2001) -> GridSup:
    """sup over grid of D(x, T_G(x)) / D(x, T(x)).

    Points where both displacements are below 1e-14 are skipped; a vanishing
    denominator with nonvanishing numerator yields +inf.  For the Takahashi
    combination the ratio is identically 1 - lam.
    """
    if grid_n < 2:
        raise ParameterRangeError("displacement_constant_L needs grid_n >= 2")
    xs = t.domain.grid(grid_n)
    num = dist_to_value(xs, *tg.eval_grid(xs))
    den = dist_to_value(xs, *t.eval_grid(xs))
    zero = den < 1e-14
    skip = zero & (num < 1e-14)
    blowup = np.flatnonzero(zero & ~skip)
    if blowup.size:
        i = int(blowup[0])
        return GridSup(float("inf"), int(skip[:i].sum()), float(xs[i]))
    return _grid_sup(xs, num, den, skip, float(t.domain.bounds.lo))


class XiResult(NamedTuple):
    xi_max: float
    holds: bool


def retraction_displacement_check(t: MultivaluedOperator, params: ContractionParams,
                                  L: float, xstar: float,
                                  grid_n: int = 2001) -> XiResult:
    """Largest xi in (0,1) with |x - x*| <= (1+g)L/((1-a-b) xi) * D(x, T(x)) on the grid.

    Found by bisection; points with D(x,T(x)) < 1e-14 and |x - x*| < 1e-9
    are skipped.  holds means xi_max >= 1e-6.
    """
    if L <= 0.0:
        raise ParameterRangeError("retraction-displacement check needs L > 0")
    denom = 1.0 - params.alpha - params.beta
    if denom <= 0.0:
        raise ParameterRangeError("need alpha + beta < 1 for the displacement bound")
    C = (1.0 + params.gamma) * L / denom
    xs = t.domain.grid(grid_n)
    dist = dist_to_value(xs, *t.eval_grid(xs))
    err = np.abs(xs - xstar)
    keep = (dist >= 1e-14) | (err >= 1e-9)
    dd, ee = dist[keep], err[keep]

    def pred(xi: float) -> bool:
        return bool(np.all(ee * xi <= C * dd))

    lo, hi = 0.0, 1.0
    if pred(1.0 - 1e-12):
        return XiResult(1.0 - 1e-12, True)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return XiResult(lo, lo >= 1e-6)


class KBound(NamedTuple):
    value: float
    in_unit: bool


def corollary_k(params: ContractionParams) -> KBound:
    """(alpha + beta) / (1 - gamma): the pointwise contraction factor toward x*."""
    if params.gamma >= 1.0:
        raise ParameterRangeError("corollary_k needs gamma < 1")
    value = (params.alpha + params.beta) / (1.0 - params.gamma)
    return KBound(value, value < 1.0)


@dataclass(frozen=True)
class AuxiliaryConstants:
    """The constants threaded from certification into the stability harnesses.

    l   -- comparison supremum H(T(x),{x*}) / H(T_G(x),{x*}) (None if unavailable)
    k   -- (alpha+beta)/(1-gamma) of a feasible perturbed certificate
    L   -- displacement comparison sup D(x,T_G(x)) / D(x,T(x))
    xi  -- retraction-displacement free parameter found by bisection
    """

    l: float | None
    k: float | None
    L: float
    xi: float | None
    valid_l: bool
    l_skipped: int = 0
    L_skipped: int = 0

    def to_json(self) -> dict:
        return {"l": self.l, "k": self.k, "L": self.L, "xi": self.xi,
                "valid_l": self.valid_l, "l_skipped": self.l_skipped,
                "L_skipped": self.L_skipped}

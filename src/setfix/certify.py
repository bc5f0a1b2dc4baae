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
(initial step 0.05, three halvings) minimizing a+b+g.  Each level's
candidates are one numpy lattice (3 x m), and the pair system is kept as
n x n arrays whose diagonal (x = y) carries LHS = -inf, so it never binds.
Each call allocates one workspace of two n x n buffers, which the witness
pass and every full sweep reuse; a sweep forms a*u + b*v + g*w - lhs there
in that order, so it equals the plain expression bit for bit.
The search is serial and screened: each candidate's minimum over a small
working set of pair rows (seeded with the witness pair and the largest
LHS) is an exact upper bound on its margin, computed from the same floats
as the full minimum.  Only a candidate the bound cannot reject is swept
over all pairs, and a sweep that falls short adds its binding pair to the
working set.  The infeasible path finds the best margin by branch and
bound on the same bounds.  Results equal an exhaustive sweep of every candidate.  A genuinely
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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDomainError,
    ParameterRangeError,
    SchemaError,
    StrictFixedPointMismatchError,
)
from .iteration import STRICT_TOL, strict_defect
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
    """LHS and the three feature columns as n x n arrays over the grid pairs (i, j).

    The diagonal x = y is no pair: its LHS is -inf, so it never binds.
    """
    lo, hi = t.eval_grid(xs)
    X = xs[:, None]
    dist = dist_to_value(X, lo[None, :], hi[None, :])
    lhs = hausdorff_between_values(lo[:, None], hi[:, None], lo[None, :], hi[None, :])
    np.fill_diagonal(lhs, -np.inf)
    u = np.abs(X - xs[None, :])
    if variant == "ciric":
        v, w = dist, dist.T
    elif variant == "ciric_reich_rus":
        diag = np.diag(dist)
        v, w = np.broadcast_arrays(diag[:, None], diag[None, :])
    else:  # combined
        diag = np.diag(dist)
        v = diag[:, None] + diag[None, :]
        w = dist + dist.T
    return lhs, u, v, w


def _lattice(axes, variant: str) -> np.ndarray:
    """3 x m coefficients (a, b, g) of the axes' product inside the capped simplex,
    in ascending (a+b+g, a, b, g) order."""
    cap = 1.0 - STRICTNESS
    a, b, g = (c.ravel() for c in np.meshgrid(*axes, indexing="ij"))
    keep = (np.minimum(np.minimum(a, b), g) >= 0.0) & (np.maximum(np.maximum(a, b), g) <= cap)
    keep &= (a + b + g <= cap) if variant == "ciric" else (a + 2.0 * b <= cap)
    a, b, g = a[keep], b[keep], g[keep]
    order = np.lexsort((g, b, a, a + b + g))
    return np.stack((a, b, g))[:, order]


def _refinement_axes(center, radius: float) -> list[list[float]]:
    """Per-coordinate axes at offsets 0, +-radius/2 and +-radius around center.

    Each value is rounded by Python's round: np.round can differ in the last bit.
    """
    offs = (-radius, -0.5 * radius, 0.0, 0.5 * radius, radius)
    return [sorted({round(c + d, 10) for d in offs}) for c in center]


def _sweep(c, pairs, work) -> tuple[float, int]:
    """Exact margin of one candidate over every pair, and the first pair attaining it."""
    a, b, g = c
    lhs, u, v, w = pairs
    s, tmp = work
    np.multiply(a, u, out=s)
    s += np.multiply(b, v, out=tmp)
    s += np.multiply(g, w, out=tmp)
    s -= lhs
    return float(np.min(s)), int(np.argmin(s))


class _Screen:
    """Exact margins of a candidate list, screened by a working set of pair rows.

    coef holds one candidate (a, b, g) per column, rows are flat n x n pair
    indices, and bounds[i] is candidate i's minimum over those rows, built
    with the same element expression as the full sweep, so it is an exact
    upper bound on the margin (a matmul or any fused or reordered form would
    change the bits and lose that).  A full sweep runs only where the bound
    cannot decide; its argmin row joins the working set (shared across
    candidate lists) and tightens every bound, so a swept candidate's bound
    equals its margin.
    """

    def __init__(self, coef: np.ndarray, pairs, work, rows: list[int]) -> None:
        self.coef = coef
        self.pairs = pairs
        self.work = work
        self.rows = rows
        self.bounds = np.full(coef.shape[1], np.inf)
        for k in rows:
            self._tighten(k)
        self.max_swept = -np.inf

    def _tighten(self, k: int) -> None:
        a, b, g = self.coef
        ij = divmod(k, self.pairs[0].shape[1])
        lhs, u, v, w = (col[ij] for col in self.pairs)
        np.minimum(self.bounds, a * u + b * v + g * w - lhs, out=self.bounds)

    def _exact(self, i: int) -> float:
        m, k = _sweep(self.coef[:, i], self.pairs, self.work)
        self.max_swept = max(self.max_swept, m)
        if k not in self.rows:
            self.rows.append(k)
            self._tighten(k)
        return m

    def first_feasible(self, slack: float):
        """(candidate, margin) of the first candidate with margin >= slack, or None.

        The candidate is a triple of Python floats.  Every candidate before it
        is rejected exactly, by its bound or its sweep.
        """
        for i in np.flatnonzero(self.bounds >= slack):
            if self.bounds[i] >= slack:
                m = self._exact(int(i))
                if m >= slack:
                    return tuple(self.coef[:, i].tolist()), m
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
    n = len(xs)
    pairs = lhs, u, v, w = _pair_system(t, variant, xs)
    work = required, rowmax = np.empty_like(lhs), np.empty_like(lhs)
    np.maximum(u, np.maximum(v, w, out=rowmax), out=rowmax)
    active = lhs > 1e-14
    skipped = n * n - n - int(np.count_nonzero(active))
    required.fill(0.0)
    np.divide(lhs, np.maximum(rowmax, 1e-300, out=rowmax), out=required, where=active)
    np.fill_diagonal(required, -np.inf)
    imax = int(np.argmax(required))
    wi, wj = divmod(imax, n)
    witness = Witness(float(xs[wi]), float(xs[wj]), float(required[wi, wj]))
    scale = max(1.0, float(lhs.max()))
    slack = margin_req * scale

    if witness.bound > 1.0 / (1.0 - STRICTNESS):
        # this single pair forbids the whole admissible simplex; its best
        # achievable slack bounds every candidate's margin from above
        ceiling = float((1.0 - STRICTNESS) * max(u[wi, wj], v[wi, wj], w[wi, wj])
                        - lhs[wi, wj])
        return ContractionCertificate(False, None, ceiling, witness,
                                      grid_n, skipped)

    rows = [imax, int(np.argmax(lhs))]
    axis = [round(i * _SEARCH_STEP, 10) for i in range(int(round(1.0 / _SEARCH_STEP)) + 1)]
    screen = _Screen(_lattice([axis] * 3, variant), pairs, work, rows)
    found = screen.first_feasible(slack)
    if found is None:
        return ContractionCertificate(False, None, screen.max_margin(), witness,
                                      grid_n, skipped)
    best, best_margin = found

    radius = _SEARCH_STEP
    for _ in range(_REFINEMENTS):
        radius *= 0.5
        local = _lattice(_refinement_axes(best, radius), variant)
        a, b, g = local
        local = local[:, a + b + g < sum(best) - 1e-12]
        found = _Screen(local, pairs, work, rows).first_feasible(slack)
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
        defect = strict_defect(op, xstar)
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

    xi_max (at most 1 - 1e-12) is min C*D(x,T(x))/|x - x*| stepped by ulps to the
    largest float that holds at every point, except those with D(x,T(x)) <
    1e-14 and |x - x*| < 1e-9.  holds means xi_max >= 1e-6.
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

    cap = 1.0 - 1e-12
    pos = ee > 0.0
    xi = min(cap, float(np.min(C * dd[pos] / ee[pos], initial=cap)))
    while not pred(xi):
        xi = math.nextafter(xi, 0.0)
    while xi < cap and pred(up := math.nextafter(xi, 1.0)):
        xi = up
    return XiResult(xi, xi >= 1e-6)


class KBound(NamedTuple):
    value: float
    in_unit: bool


def corollary_k(params: ContractionParams) -> KBound:
    """(alpha + beta) / (1 - gamma): the pointwise contraction factor toward x*."""
    if params.gamma >= 1.0:
        raise ParameterRangeError("corollary_k needs gamma < 1")
    value = (params.alpha + params.beta) / (1.0 - params.gamma)
    return KBound(value, value < 1.0)

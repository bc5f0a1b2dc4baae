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
candidates are one numpy lattice (3 x m); level 0 is built once per variant.

Each unordered grid pair i < j is stored once: H(T(x), T(y)) and d(x, y)
do not change when x and y swap, and the (y, x) constraint is the (x, y)
one with its two displacement terms v and w exchanged (for combined both
terms are symmetric, so it is the same constraint).  The ordered pair (j, i)
is thus the mirrored orientation a*u + b*w + g*v - lhs of entry (i, j).
The entries are row blocks of max(1, 2**15 // n) rows i by columns j > r0,
back to back, so each block is one contiguous, cache-sized slice; corner
entries j <= i carry lhs = -inf and never bind.  The four entry arrays are
the rows of one allocation, which the heap keeps for the next call instead
of returning its pages to the OS and faulting them in again.  Only
_PairSystem knows this layout.  It takes each block's witness statistics
as it builds the block (once per pair: required = lhs / max(u, v, w) is
the same in both orientations) and sweeps block by block; a sweep forms
a*u + b*v + g*w - lhs in that order, so it equals the plain expression bit
for bit, and a later block replaces a running best only when strictly
better.  So the witness is the first ordered pair in row-major order
attaining it, since a pair below the diagonal comes after its mirror above
it.
A sweep skips b*v when b == 0 and g*w when g == 0, and with b == g == 0
forms orientation 0 alone, since the mirrored one is then the same
constraint: u, v and w are finite and >= 0, so a*u + 0*v == a*u bit for
bit, and ties go to orientation 0 anyway.
The search is serial and screened: each candidate's minimum over a small
working set of pair rows (seeded with the witness pair, the largest LHS and
each block's hardest pair) is an exact upper bound on its margin, computed
from the same floats as the full minimum.  Only a candidate the bound
cannot reject is swept, and the sweep stops after the first block that
brings its running minimum below what would decide it (the required slack,
or the best margin so far on the infeasible path); the row it stops at
joins the working set.  The infeasible path finds the best margin by
branch and bound on the same bounds, raising the best only from sweeps
that ran to the end.  Results equal an exhaustive sweep of every
candidate.  A genuinely infeasible instance is proven by a single witness
pair whose constraint alone cannot be met by any admissible parameters
(reported bound > 1); otherwise infeasibility means exhaustion of the
search grid and the hardest pair is reported with its bound <= 1.

Grid sweeps read each operator's values from its grid table
(MultivaluedOperator.grid_values: eval_grid once per operator and grid size,
on first use, kept on the operator) and apply the single-interval closed
forms in operators to them.  T_G on T's domain object reads its own table;
an operator on another domain is evaluated at T's grid on each call.  The
strict fixed point x* comes from the caller
(SFix(T) from scan_fixed_points in run_scenario, or
unique_strict_fixed_point), checked by one eval at iteration.STRICT_TOL.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDomainError,
    ParameterRangeError,
    SchemaError,
    StrictFixedPointMismatchError,
    is_json_int,
    is_json_number,
    json_field,
    json_keys,
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
        out = {
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
        if self.params is not None and self.params.variant != "ciric":
            out["variant"] = self.params.variant
        return out

    @classmethod
    def from_json(cls, obj: object) -> "ContractionCertificate":
        """Load to_json's output; alpha, witness, skipped and variant may be omitted
        (no params, no witness, 0 skipped, "ciric").  Bad JSON raises SchemaError."""
        json_keys(obj, ("feasible", "alpha", "beta", "gamma", "margin", "witness",
                        "grid_n", "skipped", "variant"), "certificate")
        number = is_json_number, "a number", "certificate"
        feasible = json_field(obj, "feasible", lambda v: isinstance(v, bool), "a bool",
                              "certificate")
        variant = json_field(obj, "variant", lambda v: v in VARIANTS, f"one of {VARIANTS}",
                             "certificate", "ciric")
        params = None
        if obj.get("alpha") is not None:
            abg = [float(json_field(obj, k, *number)) for k in ("alpha", "beta", "gamma")]
            try:
                params = ContractionParams(*abg, variant)
            except ParameterRangeError as exc:
                raise SchemaError(f"certificate params: {exc}") from exc
        elif feasible:
            raise SchemaError("a feasible certificate must carry alpha, beta and gamma")
        witness = obj.get("witness")
        if witness is not None:
            json_keys(witness, Witness._fields, "witness")
            witness = Witness(*(float(json_field(witness, k, is_json_number, "a number",
                                                 "witness")) for k in Witness._fields))
        return cls(feasible, params, float(json_field(obj, "margin", *number)), witness,
                   json_field(obj, "grid_n", is_json_int, "an integer", "certificate"),
                   json_field(obj, "skipped", is_json_int, "an integer", "certificate", 0))


#: Pairs per row block: the pair system is built and swept max(1, _BLOCK // n)
#: rows at a time, so each block's slices stay in cache.
_BLOCK = 2 ** 15


def _block_rows(n: int) -> int:
    return max(1, _BLOCK // n)


#: Whether a variant's (j, i) constraint is its (i, j) one with v and w
#: swapped (then both orientations are swept), or the same constraint.
_MIRRORED = {"ciric": True, "ciric_reich_rus": True, "combined": False}


class _PairSystem:
    """The pair system with one entry per unordered grid pair i < j.

    u = |x_i - x_j|, lhs = H(T(x_i), T(x_j)) and the displacement terms v, w
    of the orientation (i, j) (ciric: D(x_i, T(x_j)), D(x_j, T(x_i));
    ciric_reich_rus: D(x_i, T(x_i)), D(x_j, T(x_j)); combined: their sums)
    are flat arrays of row-block rectangles, rows r0:r1 by columns r0+1:n,
    stored back to back; the corner entries j <= i carry lhs = -inf.  They
    are the four rows of one (4, E) block: four separate arrays, freed
    together, trimmed glibc's heap top and cost about 1 200 page faults per
    call at grid 501.  A row of the system is (entry, orientation),
    orientation 1 being the mirrored pair (j, i), which reads v and w
    swapped.  Each block, once built, appends its first argmax of required =
    lhs / max(u, v, w) (0 where lhs <= 1e-14) to hardest as an entry and
    its value to tops, and adds its active ordered pairs to active.  Every
    sweep reuses two scratch rows of the largest block's size.
    """

    def __init__(self, variant: str, xs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        n = self.n = len(xs)
        rows = _block_rows(n)
        self.orientations = (0, 1) if _MIRRORED[variant] else (0,)
        self.r0s = list(range(0, n - 1, rows))
        shapes = [(min(r0 + rows, n - 1) - r0, n - 1 - r0) for r0 in self.r0s]
        self.ends = [0, *itertools.accumulate(h * w for h, w in shapes)]
        self.u, self.lhs, self.v, self.w = np.empty((4, self.ends[-1]))
        self.hardest, self.tops, self.active = [], [], 0
        d = dist_to_value(xs, lo, hi)
        for r0, (h, width), e0, e1 in zip(self.r0s, shapes, self.ends, self.ends[1:]):
            i, j = slice(r0, r0 + h), slice(r0 + 1, n)
            xi, loi, hii = xs[i, None], lo[i, None], hi[i, None]
            u, lhs, v, w = (a[e0:e1].reshape(h, width) for a in (self.u, self.lhs, self.v, self.w))
            np.abs(np.subtract(xi, xs[j], out=u), out=u)
            hausdorff_between_values(loi, hii, lo[j], hi[j], out=lhs)
            np.copyto(lhs[:, :h], -np.inf, where=np.tri(h, h, -1, dtype=bool))
            if variant == "ciric_reich_rus":
                v[...], w[...] = d[i, None], d[j]
            else:
                dist_to_value(xi, lo[j], hi[j], out=v)
                dist_to_value(xs[j], loi, hii, out=w)
            if variant == "combined":
                np.add(v, w, out=w)
                np.add(d[i, None], d[j], out=v)
            rowmax = np.maximum(u, np.maximum(v, w))
            act = lhs > 1e-14
            self.active += 2 * int(np.count_nonzero(act))
            required = np.divide(lhs, np.maximum(rowmax, 1e-300, out=rowmax),
                                 out=np.zeros_like(lhs), where=act)
            k = int(np.argmax(required))
            self.hardest.append(e0 + k)
            self.tops.append(float(required.flat[k]))
        size = max(h * w for h, w in shapes)
        self._s, self._tmp = np.empty(size), np.empty(size)

    def terms(self, e0: int, e1: int, orientation: int):
        """(lhs, u, v, w) of the entries e0:e1 in one orientation."""
        v, w = self.v[e0:e1], self.w[e0:e1]
        return self.lhs[e0:e1], self.u[e0:e1], *((w, v) if orientation else (v, w))

    def row_terms(self, rows):
        """(lhs, u, v, w) of a list of rows (entry, orientation), one element each."""
        e, o = np.array(rows, dtype=np.intp).T
        v, w, mirrored = self.v[e], self.w[e], o == 1
        return self.lhs[e], self.u[e], np.where(mirrored, w, v), np.where(mirrored, v, w)

    def pair(self, row) -> tuple[int, int]:
        """The ordered grid pair (i, j) of a row (entry, orientation)."""
        e, orientation = row
        b = bisect.bisect_right(self.ends, e) - 1
        r0 = self.r0s[b]
        di, dj = divmod(e - self.ends[b], self.n - 1 - r0)
        i, j = r0 + di, r0 + 1 + dj
        return (j, i) if orientation else (i, j)

    def sweep(self, c, stop: float) -> tuple[float, tuple[int, int]]:
        """Margin of one candidate over the ordered pairs, and the first row
        (entry, orientation) attaining it, returned after the first row block
        whose running minimum falls below stop (or after the last block).

        The margin is exact when it is >= stop; below stop it is the running
        minimum, an upper bound on the margin that the returned row attains.
        Each block forms a*u + b*v + g*w - lhs in that order, so it equals the
        plain expression bit for bit.  b*v is skipped when b == 0, g*w when
        g == 0, and with b == g == 0 only orientation 0 is formed: u, v and w
        are finite and >= 0, so a*u + 0*v is a*u and the mirrored orientation
        a*u - lhs is the same constraint.  A later block or orientation replaces
        the running minimum only when strictly lower, so ties go to the first
        block, then orientation 0, then the first entry.
        """
        a, b, g = c
        orientations = self.orientations if b or g else (0,)
        best, arg = np.inf, None
        for e0, e1 in zip(self.ends, self.ends[1:]):
            s, tmp = self._s[:e1 - e0], self._tmp[:e1 - e0]
            for o in orientations:
                lhs, u, v, w = self.terms(e0, e1, o)
                np.multiply(a, u, out=s)
                if b:
                    s += np.multiply(b, v, out=tmp)
                if g:
                    s += np.multiply(g, w, out=tmp)
                s -= lhs
                k = int(np.argmin(s))
                if arg is None or s[k] < best:
                    best, arg = float(s[k]), (e0 + k, o)
            if best < stop:
                break
        return best, arg


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


@functools.lru_cache(maxsize=None)
def _level0(variant: str) -> np.ndarray:
    """The whole simplex at step 0.05, built on first use and shared read-only."""
    axis = [round(i * _SEARCH_STEP, 10) for i in range(int(round(1.0 / _SEARCH_STEP)) + 1)]
    coef = _lattice([axis] * 3, variant)
    coef.flags.writeable = False
    return coef


def _refinement_axes(center, radius: float) -> list[list[float]]:
    """Per-coordinate axes at offsets 0, +-radius/2 and +-radius around center.

    Each value is rounded by Python's round: np.round can differ in the last bit.
    """
    offs = (-radius, -0.5 * radius, 0.0, 0.5 * radius, radius)
    return [sorted({round(c + d, 10) for d in offs}) for c in center]


class _Screen:
    """Exact margins of a candidate list, screened by a working set of pair rows.

    coef holds one candidate (a, b, g) per column, rows are (entry,
    orientation) rows of the pair system, and bounds[i] is candidate i's
    minimum over those rows, built with the same element expression as the
    full sweep (one (m, R) broadcast for R rows, no matmul), so it is an
    exact upper bound on the margin (a matmul or any fused or reordered form
    would change the bits and lose that; the sweep's skipped zero products
    add +0.0 here and change nothing).  A sweep runs only where the bound
    cannot decide, and stops once its running minimum decides; its row
    joins the working set (shared across candidate lists) and tightens every
    bound, so a swept candidate's bound equals what the sweep returned:
    the bound was at least the stop value, which the returned minimum is
    below unless the sweep ran to the end.  _exact raises if it does not.
    """

    def __init__(self, coef: np.ndarray, pairs: _PairSystem,
                 rows: list[tuple[int, int]]) -> None:
        self.coef = coef
        self.pairs = pairs
        self.rows = rows
        self.bounds = np.full(coef.shape[1], np.inf)
        self._tighten(rows)

    def _tighten(self, rows: list[tuple[int, int]]) -> None:
        lhs, u, v, w = self.pairs.row_terms(rows)
        a, b, g = self.coef[:, :, None]
        s, tmp = a * u, b * v
        s += tmp
        s += np.multiply(g, w, out=tmp)
        s -= lhs
        np.minimum(self.bounds, s.min(axis=1), out=self.bounds)

    def _exact(self, i: int, stop: float) -> float:
        """Candidate i's sweep with stop; exact when it is >= stop."""
        m, row = self.pairs.sweep(self.coef[:, i], stop)
        if row not in self.rows:
            self.rows.append(row)
            self._tighten([row])
        if self.bounds[i] != m:  # else max_margin would pick it again forever
            raise RuntimeError(
                f"screen out of step: candidate {tuple(self.coef[:, i].tolist())} swept "
                f"to margin {m!r} at pair {self.pairs.pair(row)}, but its bound "
                f"is {float(self.bounds[i])!r}")
        return m

    def first_feasible(self, slack: float):
        """(candidate, margin) of the first candidate with margin >= slack, or None.

        The candidate is a triple of Python floats.  Every candidate before it
        is rejected exactly, by its bound or its sweep.
        """
        for i in np.flatnonzero(self.bounds >= slack):
            if self.bounds[i] >= slack:
                m = self._exact(int(i), slack)
                if m >= slack:
                    return tuple(self.coef[:, i].tolist()), m
        return None

    def max_margin(self) -> float:
        """Largest margin over the list, by branch and bound on the bounds.

        A sweep stopped below the best so far leaves best as it is, and the
        candidate's bound, now below best, never picks it again.
        """
        best = -np.inf
        while True:
            i = int(np.argmax(self.bounds))
            if not self.bounds[i] > best:
                return best
            best = max(best, self._exact(i, best))


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
    if not margin_req >= 0.0:
        raise ParameterRangeError(f"margin_req must be >= 0, got {margin_req!r}")

    xs, lo, hi = t.grid_values(grid_n)
    n = len(xs)
    pairs = _PairSystem(variant, xs, lo, hi)
    top = int(np.argmax(pairs.tops))
    wi, wj = pairs.pair((pairs.hardest[top], 0))
    witness = Witness(float(xs[wi]), float(xs[wj]), pairs.tops[top])
    skipped = n * n - n - pairs.active
    lmax = int(np.argmax(pairs.lhs))
    scale = max(1.0, float(pairs.lhs[lmax]))
    slack = margin_req * scale

    if witness.bound > 1.0 / (1.0 - STRICTNESS):
        # this single pair forbids the whole admissible simplex; its best
        # achievable slack bounds every candidate's margin from above
        e = pairs.hardest[top]
        ceiling = float((1.0 - STRICTNESS) * max(pairs.u[e], pairs.v[e], pairs.w[e])
                        - pairs.lhs[e])
        return ContractionCertificate(False, None, ceiling, witness,
                                      grid_n, skipped)

    # every block's hardest pair (the witness among them) seeds the working
    # set beside the largest LHS, in each orientation; the rows only tighten
    # bounds, never results
    rows = list(dict.fromkeys((e, o) for e in [*pairs.hardest, lmax] for o in pairs.orientations))
    screen = _Screen(_level0(variant), pairs, rows)
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
    _verify_strict_point(xstar, t, tg)
    den = hausdorff_to_point(*tg.grid_values(grid_n, t.domain)[1:], xstar)
    xs, lo, hi = t.grid_values(grid_n)
    return _grid_sup(xs, hausdorff_to_point(lo, hi, xstar), den,
                     (xs == xstar) | (den < 1e-14), xstar)


def sup_gap_ratio_l(t: MultivaluedOperator, tg: MultivaluedOperator, xstar: float,
                    grid_n: int = 2001) -> GridSup:
    """Gap-based analogue: sup of D(T(x), {x*}) / D(T_G(x), {x*}) (weak variant)."""
    _verify_strict_point(xstar, t, tg)
    den = dist_to_value(xstar, *tg.grid_values(grid_n, t.domain)[1:])
    xs, lo, hi = t.grid_values(grid_n)
    return _grid_sup(xs, dist_to_value(xstar, lo, hi), den,
                     (xs == xstar) | (den < 1e-14), xstar)


def displacement_constant_L(t: MultivaluedOperator, tg: MultivaluedOperator,
                            grid_n: int = 2001) -> GridSup:
    """sup over grid of D(x, T_G(x)) / D(x, T(x)).

    Points where both displacements are below 1e-14 are skipped; a vanishing
    denominator with nonvanishing numerator yields +inf.  For the Takahashi
    combination the ratio is identically 1 - lam.
    """
    xs, glo, ghi = tg.grid_values(grid_n, t.domain)
    num = dist_to_value(xs, glo, ghi)
    den = dist_to_value(xs, *t.grid_values(grid_n)[1:])
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
    xs, lo, hi = t.grid_values(grid_n)
    dist = dist_to_value(xs, lo, hi)
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

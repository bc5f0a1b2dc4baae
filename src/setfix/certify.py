"""Numerical certification of Ciric-type contraction conditions.

For a multivalued operator T and each ordered grid pair (x, y) a
contraction condition is one linear constraint on (alpha, beta, gamma) =
(a, b, g), admissible in an open region w_a*a + w_b*b + w_g*g < 1, with a
contraction factor k toward a strict fixed point x*,
H(T(x), {x*}) <= k*d(x, x*):

    ciric            H(T(x),T(y)) <= a*d(x,y) + b*D(x,T(y)) + g*D(y,T(x))
                     a + b + g < 1, k = (a+b)/(1-g); the source paper's
    ciric_reich_rus  H(T(x),T(y)) <= a*d(x,y) + b*D(x,T(x)) + g*D(y,T(y))
                     a + b + g < 1, k = min((a+b)/(1-b), (a+g)/(1-g));
                     Reich, "Some remarks concerning contraction mappings", 1971
    combined         H(T(x),T(y)) <= a*d(x,y) + b*[D(x,T(x)) + D(y,T(y))]
                                              + g*[D(x,T(y)) + D(y,T(x))]
                     a + 2b + 2g < 1, k = (a+b+g)/(1-b-g);
                     Hardy and Rogers, Canad. Math. Bull. 16, 1973

Each k is the condition at y = x* with D(x, T(x)) <= d(x, x*) +
H(T(x), {x*}) and D(x*, T(x)) <= H(T(x), {x*}); ciric_reich_rus holds in
both orientations, so its k is the smaller of two.  _CONDITIONS declares
each variant once, and every rule below reads its row.

Feasibility is decided by a deterministic coarse-to-fine search of the
region (initial step 0.05, three halvings, one numpy lattice per level)
minimizing a+b+g.  The largest a*u + b*v + g*w on the region is
max(u/w_a, v/w_b, w/w_g), so a witness pair whose lhs exceeds it (reported
bound > 1) proves that no admissible parameters exist; otherwise
infeasibility means exhaustion of the search grid, and the hardest pair is
reported with its bound <= 1.  _PairSystem stores each unordered grid pair
once, building it block by block in the scratch rows its sweeps reuse, and
_Screen sweeps it only for the candidates that a small working set of pairs
cannot decide, so results equal an exhaustive sweep of every candidate.

certify_contraction runs with numpy's ufunc buffer at _BUFSIZE elements and
gives the caller's size back on return or raise.  numpy copies each operand
of a broadcast whose rows are shorter than the buffer (8 192 elements by
default) into it: on numpy 2.4.6 a (64, 512) broadcast subtract took 35 us
at the default size and 9 us at 64, while (8, 4 096) took 9 us at either.
The pair-system build and the screen broadcast such rows.  The size moves
no bit: every ufunc here is elementwise or a min, max, argmin or argmax,
whose results do not depend on how numpy chunks the loop.

Grid sweeps read each operator's values from its grid table
(MultivaluedOperator.grid_values: eval_grid once per operator and grid size,
on first use, kept on the operator) and apply the single-interval closed
forms in operators to them.  T_G is read at T's grid through
operators.paired_values: from its own table if it is on the same X as T (by
value), else by eval_grid at T's grid on each call.  The
strict fixed point x* comes from the caller
(SFix(T) from scan_fixed_points in run_scenario, or
unique_strict_fixed_point), checked by one eval at iteration.STRICT_TOL.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateDomainError,
    ParameterRangeError,
    SchemaError,
    StrictFixedPointMismatchError,
    fields_dict,
    is_json_int,
    is_json_number,
    json_field,
    json_keys,
    record,
)
from .iteration import STRICT_TOL, strict_defect
from .operators import (
    MultivaluedOperator,
    dist_to_value,
    hausdorff_between_values,
    hausdorff_to_point,
    paired_values,
)


class _Condition(NamedTuple):
    """H(T(x), T(y)) <= a*d(x, y) + b*v + g*w, admissible where
    w_a*a + w_b*b + w_g*g < 1 for weights (w_a, w_b, w_g).

    v and w sum displacements D(x_p, T(x_q)), each named pq, with i for x and
    j for y.  mirrored: the (y, x) constraint is the (x, y) one with v
    and w exchanged, not the same one (then w_b == w_g, so a pair's witness
    bound is the same in both).  k(a, b, g): the contraction factor toward x*.
    """

    weights: tuple[float, float, float]
    mirrored: bool
    v: tuple[str, ...]
    w: tuple[str, ...]
    k: Callable[[float, float, float], float]


_CONDITIONS = {
    "ciric": _Condition((1.0, 1.0, 1.0), True, ("ij",), ("ji",),
                        lambda a, b, g: (a + b) / (1.0 - g)),
    "ciric_reich_rus": _Condition((1.0, 1.0, 1.0), True, ("ii",), ("jj",),
                                  lambda a, b, g: min((a + b) / (1.0 - b), (a + g) / (1.0 - g))),
    "combined": _Condition((1.0, 2.0, 2.0), False, ("ii", "jj"), ("ij", "ji"),
                           lambda a, b, g: (a + b + g) / (1.0 - b - g)),
}
VARIANTS = tuple(_CONDITIONS)

#: The variant whose parameters the constants of retraction_displacement_check
#: and the stability harnesses are derived for; run_scenario runs no harness
#: for another variant.
CONSTANTS_VARIANT = "ciric"


def variant_reason(variant: str) -> str | None:
    """Why the derived constants do not apply to params of this variant, or
    None for CONSTANTS_VARIANT."""
    if variant == CONSTANTS_VARIANT:
        return None
    return (f"the stability constants are derived for the {CONSTANTS_VARIANT} "
            f"condition, not for variant {variant!r}")

#: The admissible region is closed with this margin off the open boundary,
#: respecting the strict inequality in the contraction definitions.
STRICTNESS = 1e-6

_SEARCH_STEP = 0.05
_REFINEMENTS = 3


@record
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
                f"params {(self.alpha, self.beta, self.gamma)} leave the "
                f"{self.variant} region {_CONDITIONS[self.variant].weights}.(a, b, g) < 1")

    def simplex_ok(self) -> bool:
        wa, wb, wg = _CONDITIONS[self.variant].weights
        return wa * self.alpha + wb * self.beta + wg * self.gamma < 1.0

    @property
    def total(self) -> float:
        return self.alpha + self.beta + self.gamma

    to_json = fields_dict


class Witness(NamedTuple):
    x: float
    y: float
    bound: float


@record
class ContractionCertificate:
    """Outcome of a feasibility search over the parameter simplex.

    feasible   -- params satisfy every sampled pair constraint with margin >= 0
    margin     -- min over pairs of RHS - LHS at the found params; for an
                  infeasible certificate, the best (largest) margin seen
    witness    -- hardest pair; bound > 1 is a proof that no admissible
                  parameters exist (for every variant), bound <= 1 records
                  search exhaustion
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


#: ufunc buffer size, in elements, inside certify_contraction; 16 and 256
#: time the same, numpy's default 8 192 a third slower (module docstring).
_BUFSIZE = 64


@contextlib.contextmanager
def _ufunc_buffer(size: int):
    """np.setbufsize(size) for the block, then the caller's size again.

    Restored by hand: numpy >= 2.0 also restores it on leaving np.errstate,
    numpy 1.x does not."""
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


def _reach(weights, u, v, w, out=None, tmp=None):
    """max(u/w_a, v/w_b, w/w_g), the largest a*u + b*v + g*w on the region
    w_a*a + w_b*b + w_g*g <= 1 (a, b, g >= 0); a weight of 1 takes no pass.
    Into out if given, with v/w_b in out and w/w_g in tmp."""
    u, v, w = (x if wt == 1.0 else np.divide(x, wt, out=o)
               for wt, x, o in zip(weights, (u, v, w), (None, out, tmp)))
    return np.maximum(u, np.maximum(v, w, out=out), out=out)


class _PairSystem:
    """The pair system with one entry per unordered grid pair i < j, as d(x, y)
    and H(T(x), T(y)) do not change when x and y swap.

    u = |x_i - x_j|, lhs = H(T(x_i), T(x_j)) and the displacement terms v, w
    of the orientation (i, j), as the condition's row names them, are flat
    arrays of row-block rectangles, rows r0:r1 by columns r0+1:n, stored
    back to back; the corner entries j <= i carry lhs = -inf.  They are the
    four rows of one (4, E) block, which the heap keeps for the next call
    (four arrays trimmed its top: 1 200 page faults a call at grid 501).  A
    row of the system is (entry, orientation), orientation 1 being the
    mirrored pair (j, i), which reads v and w swapped.  Each block, once
    built, appends its first argmax of required = lhs / _reach(u, v, w) (0
    where lhs <= 1e-14) to hardest as an entry and its value to tops, and adds
    its active ordered pairs to active, so the witness is the first ordered
    pair in row-major order attaining it.  A block's intermediates live in
    the two scratch rows that the sweeps reuse and one bool row.  The
    corner's diagonal j == i has u = 0, so its _reach is 0 where x_i is a
    fixed point; there lhs / _reach is -inf / 0 = -inf, which IEEE 754
    flags with nothing, and the entry, inactive, reads 0.

    Its seven broadcasts per block, (h, 1) columns against (width,) rows
    shorter than numpy's default ufunc buffer, are why certify_contraction
    sets the buffer to _BUFSIZE: one build took 2.4 ms at the default and
    1.5 ms at _BUFSIZE at grid 501, 44 and 29 ms at grid 2001 (numpy 2.4.6).
    """

    def __init__(self, cond: _Condition, xs: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> None:
        n = self.n = len(xs)
        rows = _block_rows(n)
        self.orientations = (0, 1) if cond.mirrored else (0,)
        self.r0s = list(range(0, n - 1, rows))
        shapes = [(min(r0 + rows, n - 1) - r0, n - 1 - r0) for r0 in self.r0s]
        self.ends = [0, *itertools.accumulate(h * w for h, w in shapes)]
        self.u, self.lhs, self.v, self.w = np.empty((4, self.ends[-1]))
        self.hardest, self.tops, self.active = [], [], 0
        size = max(h * w for h, w in shapes)
        self._s, self._tmp = np.empty(size), np.empty(size)
        flags = np.empty(size, dtype=bool)
        corner = np.tri(shapes[0][0], k=-1, dtype=bool)
        for r0, (h, width), e0, e1 in zip(self.r0s, shapes, self.ends, self.ends[1:]):
            i, j = slice(r0, r0 + h), slice(r0 + 1, n)
            point = {"i": xs[i, None], "j": xs[j]}
            value = {"i": (lo[i, None], hi[i, None]), "j": (lo[j], hi[j])}
            u, lhs, v, w = (a[e0:e1].reshape(h, width) for a in (self.u, self.lhs, self.v, self.w))
            s, tmp, act = (a[:e1 - e0].reshape(h, width) for a in (self._s, self._tmp, flags))
            np.abs(np.subtract(point["i"], point["j"], out=u), out=u)
            hausdorff_between_values(*value["i"], *value["j"], out=lhs, tmp=s)
            np.copyto(lhs[:, :h], -np.inf, where=corner[:h, :h])
            for out, ((p, q), *rest) in ((v, cond.v), (w, cond.w)):
                dist_to_value(point[p], *value[q], out=out, tmp=tmp)
                for p, q in rest:
                    out += dist_to_value(point[p], *value[q], out=s, tmp=tmp)
            required = _reach(cond.weights, u, v, w, out=s, tmp=tmp)
            np.greater(lhs, 1e-14, out=act)
            self.active += 2 * int(np.count_nonzero(act))
            np.divide(lhs, required, out=required)
            np.copyto(required, 0.0, where=np.logical_not(act, out=act))
            k = int(np.argmax(required))
            self.hardest.append(e0 + k)
            self.tops.append(float(required.flat[k]))

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
    """3 x m coefficients (a, b, g) >= 0 of the axes' product inside the variant's
    region capped at w_a*a + w_b*b + w_g*g <= 1 - STRICTNESS, in ascending
    (a+b+g, a, b, g) order."""
    wa, wb, wg = _CONDITIONS[variant].weights
    a, b, g = (c.ravel() for c in np.meshgrid(*axes, indexing="ij"))
    keep = np.minimum(np.minimum(a, b), g) >= 0.0
    keep &= wa * a + wb * b + wg * g <= 1.0 - STRICTNESS
    a, b, g = a[keep], b[keep], g[keep]
    order = np.lexsort((g, b, a, a + b + g))
    return np.stack((a, b, g))[:, order]


@functools.lru_cache(maxsize=None)
def _level0(variant: str) -> np.ndarray:
    """The whole region at step 0.05, built on first use and shared read-only."""
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
    full sweep (one (R, m) broadcast for R rows, reduced over the rows, no
    matmul), so it is an exact upper bound on the margin (a matmul or any
    fused or reordered form would change the bits and lose that; the sweep's
    skipped zero products add +0.0 here and change nothing).  A sweep runs only where the bound
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
        lhs, u, v, w = (x[:, None] for x in self.pairs.row_terms(rows))
        a, b, g = self.coef[:, None]
        s, tmp = a * u, b * v
        s += tmp
        s += np.multiply(g, w, out=tmp)
        s -= lhs
        np.minimum(self.bounds, s.min(axis=0), out=self.bounds)

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


@_ufunc_buffer(_BUFSIZE)
def certify_contraction(t: MultivaluedOperator, variant: str = "ciric",
                        grid_n: int = 501,
                        margin_req: float = 0.0) -> ContractionCertificate:
    """Search the admissible region for parameters satisfying every pair constraint.

    Deterministic: level 0 sweeps the whole region at step 0.05 in ascending
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
    cond = _CONDITIONS[variant]
    pairs = _PairSystem(cond, xs, lo, hi)
    top = int(np.argmax(pairs.tops))
    wi, wj = pairs.pair((pairs.hardest[top], 0))
    witness = Witness(float(xs[wi]), float(xs[wj]), pairs.tops[top])
    skipped = n * n - n - pairs.active
    lmax = int(np.argmax(pairs.lhs))
    scale = max(1.0, float(pairs.lhs[lmax]))
    slack = margin_req * scale

    if witness.bound > 1.0 / (1.0 - STRICTNESS):
        # this single pair forbids the whole admissible region; its best
        # achievable slack bounds every candidate's margin from above
        e = pairs.hardest[top]
        ceiling = float((1.0 - STRICTNESS) * _reach(cond.weights, pairs.u[e], pairs.v[e],
                                                    pairs.w[e]) - pairs.lhs[e])
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


def _sup_l(t: MultivaluedOperator, tg: MultivaluedOperator, xstar: float, grid_n: int,
           dist) -> GridSup:
    """sup over grid x != x* of dist(x*, T(x)) / dist(x*, T_G(x)), skipping and
    counting denominators below 1e-14."""
    _verify_strict_point(xstar, t, tg)
    den = dist(xstar, *paired_values(t, tg, grid_n))
    xs, lo, hi = t.grid_values(grid_n)
    return _grid_sup(xs, dist(xstar, lo, hi), den, (xs == xstar) | (den < 1e-14), xstar)


def sup_ratio_l(t: MultivaluedOperator, tg: MultivaluedOperator, xstar: float,
                grid_n: int = 2001) -> GridSup:
    """sup over grid x != x* of H(T(x), {x*}) / H(T_G(x), {x*}).

    Denominators below 1e-14 are skipped and counted.  A value < 1 realizes
    the comparison constant used by the convergence and quasi-contraction
    arguments.
    """
    return _sup_l(t, tg, xstar, grid_n, lambda p, lo, hi: hausdorff_to_point(lo, hi, p))


def sup_gap_ratio_l(t: MultivaluedOperator, tg: MultivaluedOperator, xstar: float,
                    grid_n: int = 2001) -> GridSup:
    """Gap-based analogue: sup of D(T(x), {x*}) / D(T_G(x), {x*}) (weak variant)."""
    return _sup_l(t, tg, xstar, grid_n, dist_to_value)


def displacement_constant_L(t: MultivaluedOperator, tg: MultivaluedOperator,
                            grid_n: int = 2001) -> GridSup:
    """sup over grid of D(x, T_G(x)) / D(x, T(x)).

    Points where both displacements are below 1e-14 are skipped; a vanishing
    denominator with nonvanishing numerator yields +inf.  For the Takahashi
    combination the ratio is identically 1 - lam.
    """
    xs, lo, hi = t.grid_values(grid_n)
    num = dist_to_value(xs, *paired_values(t, tg, grid_n))
    den = dist_to_value(xs, lo, hi)
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
    1e-14 and |x - x*| < 1e-9.  holds means xi_max >= 1e-6.  The constant is
    derived for CONSTANTS_VARIANT: params of another variant raise
    ParameterRangeError with variant_reason's reason.
    """
    if L <= 0.0:
        raise ParameterRangeError("retraction-displacement check needs L > 0")
    reason = variant_reason(params.variant)
    if reason is not None:
        raise ParameterRangeError(reason)
    C = (1.0 + params.gamma) * L / (1.0 - params.alpha - params.beta)
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


def corollary_k(params: ContractionParams) -> float:
    """The pointwise contraction factor k toward x*, H(T(x), {x*}) <= k*d(x, x*),
    of the params' variant; it is below 1 on the variant's region."""
    return _CONDITIONS[params.variant].k(params.alpha, params.beta, params.gamma)

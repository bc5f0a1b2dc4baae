"""Brute-force grid oracles used to cross-check the exact implementations.

These deliberately share no code with the library algorithms they check.
Set functionals are recomputed from dense point grids, giving an
independent reference accurate to the grid step.  The certification,
fixed-point, exact set-functional, well-posedness and grid-evaluation
references are the implementations the library replaced (a flat off-diagonal
pair system with a per-tuple candidate lattice, a sampling scan, all-pairs
scans of the parts, a part scan for the nearest point, the merging loop of
normalize, a scalar bisection per residual band, a per-piece eval_grid, the
closed-form extrema and np.roots order check of the terms, and the pair
system, screen bounds and sign-change bisection before they stopped
allocating or calling value per midpoint, and the csv.writer orbit file
before every CSV file took one writer); from the library they use only
operator evaluation (eval, eval_grid and its single-interval closed forms,
and term values and ranges), constants and result types.  exact_end_signs
reads a term in rational arithmetic, with no float evaluation at all.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
from hypothesis import reject, strategies as st

from setfix import (
    BoundaryFn,
    ContractionCertificate,
    ContractionParams,
    Domain,
    Interval,
    IntervalUnion,
    MultivaluedOperator,
    Piece,
    normalize,
)
from setfix.certify import (
    _REFINEMENTS,
    _SEARCH_STEP,
    STRICTNESS,
    Witness,
)
from setfix.errors import (
    BoundaryOrderError,
    ConstructionFailedError,
    OutOfDomainError,
    ParameterRangeError,
)
from setfix.intervals import AMBIENT_TOL, MERGE_EPS, dist_point_to_set, hausdorff
from setfix.iteration import FixedPointScan
from setfix.operators import ORDER_SLACK, dist_to_value, hausdorff_between_values


def csv_writer_steps(steps: list[dict]) -> str:
    """Orbit report rows as CSV through csv.writer: n, part_i_lo, part_i_hi...,
    h_to_prev, h_to_target, with empty cells past a row's parts."""
    max_parts = max(len(s["parts"]) for s in steps)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["n"]
    for i in range(max_parts):
        header += [f"part{i}_lo", f"part{i}_hi"]
    header += ["h_to_prev", "h_to_target"]
    writer.writerow(header)
    for s in steps:
        row: list[object] = [s["n"]]
        for i in range(max_parts):
            if i < len(s["parts"]):
                row += [repr(s["parts"][i][0]), repr(s["parts"][i][1])]
            else:
                row += ["", ""]
        row.append(repr(s["h_to_prev"]))
        row.append("" if s["h_to_target"] is None else repr(s["h_to_target"]))
        writer.writerow(row)
    return buf.getvalue()


def set_grid(u: IntervalUnion, h: float) -> np.ndarray:
    """All sample points of the union at step <= h, endpoints included."""
    chunks = []
    for p in u.parts:
        n = max(2, int(np.ceil(p.width / h)) + 1)
        chunks.append(np.linspace(p.lo, p.hi, n))
    return np.unique(np.concatenate(chunks))


def dist_to_grid(xs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Distance from each x to the nearest grid point (grid sorted)."""
    idx = np.searchsorted(grid, xs)
    lo = np.clip(idx - 1, 0, len(grid) - 1)
    hi = np.clip(idx, 0, len(grid) - 1)
    return np.minimum(np.abs(xs - grid[lo]), np.abs(xs - grid[hi]))


def brute_gap(a: IntervalUnion, b: IntervalUnion, h: float) -> float:
    return float(dist_to_grid(set_grid(a, h), set_grid(b, h)).min())


def brute_excess(a: IntervalUnion, b: IntervalUnion, h: float) -> float:
    return float(dist_to_grid(set_grid(a, h), set_grid(b, h)).max())


def brute_hausdorff(a: IntervalUnion, b: IntervalUnion, h: float) -> float:
    return max(brute_excess(a, b, h), brute_excess(b, a, h))


def brute_set_image(t: MultivaluedOperator, y: IntervalUnion, h: float) -> IntervalUnion:
    """Union of pointwise evaluations over a dense grid of Y."""
    parts = []
    for x in set_grid(y, h):
        parts.extend(t.eval(float(x)).parts)
    return normalize(parts)


def lipschitz_bound(t: MultivaluedOperator) -> float:
    """An upper bound of |f'| for every boundary term f of T on its piece;
    a sqrt or 1/sqrt term needs a piece of positive numbers."""
    def bound(term: BoundaryFn, lo: float, hi: float) -> float:
        if term.base == "none" or term.coeff == 0.0:
            base = 0.0
        elif term.base == "power":
            base = term.p * max(abs(lo), abs(hi)) ** (term.p - 1)
        elif term.base == "sqrt":
            base = 0.5 * lo ** -0.5
        else:  # invsqrt
            base = 0.5 * lo ** -1.5
        return abs(term.slope) + abs(term.coeff) * base
    return max(bound(term, pc.sub.lo, pc.sub.hi)
               for pc in t.pieces for term in (pc.lower, pc.upper))


# -- pairwise set functionals -----------------------------------------------------
# The all-pairs scans that preceded setfix.intervals' sorted sweeps, the part
# scan of nearest_point, the merging loop of normalize, and the set image that
# took each boundary's range from BoundaryFn.range_on (one part against one
# piece at a time), kept as exact references: the library must agree with
# them bit for bit.


def affine_combine(x: float, s: IntervalUnion, lam: float) -> IntervalUnion:
    """{lam*x + (1-lam)*s : s in S} -- the Takahashi convex combination on R,
    the pointwise reference for perturb.

    lam = 0 returns S unchanged; lam = 1 collapses to the singleton {x}.
    """
    if not 0.0 <= lam <= 1.0:
        raise ParameterRangeError(f"affine_combine needs lam in [0, 1], got {lam}")
    w = 1.0 - lam
    parts = [Interval(lam * x + w * p.lo, lam * x + w * p.hi) for p in s.parts]
    return normalize(parts, s.ambient)


def pairwise_dist_point_to_set(x: float, a: IntervalUnion) -> float:
    """Distance from the point x to the set A; 0 iff x is a member."""
    return min(max(0.0, p.lo - x, x - p.hi) for p in a.parts)


def pairwise_gap(a: IntervalUnion, b: IntervalUnion) -> float:
    """inf distance between the two sets; 0 iff they intersect."""
    best = math.inf
    for p in a.parts:
        for q in b.parts:
            d = max(0.0, p.lo - q.hi, q.lo - p.hi)
            if d < best:
                best = d
            if best == 0.0:
                return 0.0
    return best


def pairwise_excess(a: IntervalUnion, b: IntervalUnion) -> float:
    """sup_{x in A} D(x, B), computed exactly on the finite candidate set.

    D(., B) is piecewise linear with peaks only at midpoints of B's gaps,
    so the sup over A is attained at an endpoint of a part of A or at a gap
    midpoint of B lying inside A.
    """
    best = 0.0
    for p in a.parts:
        best = max(best, pairwise_dist_point_to_set(p.lo, b),
                   pairwise_dist_point_to_set(p.hi, b))
    for q1, q2 in zip(b.parts, b.parts[1:]):
        m = 0.5 * (q1.hi + q2.lo)
        if pairwise_dist_point_to_set(m, a) == 0.0:
            best = max(best, pairwise_dist_point_to_set(m, b))
    return best


def pairwise_hausdorff(a: IntervalUnion, b: IntervalUnion) -> float:
    return max(pairwise_excess(a, b), pairwise_excess(b, a))


def scan_nearest_point(a: IntervalUnion, x: float) -> float:
    """Point of A closest to x (leftmost on ties)."""
    best, best_d = None, math.inf
    for p in a.parts:
        c = p.clamp(x)
        d = abs(x - c)
        if d < best_d:
            best, best_d = c, d
    return best  # parts nonempty


def sequential_normalize(raw, ambient: Interval | None = None) -> IntervalUnion:
    """Canonical form of raw [lo, hi] items by a sort and one merging pass."""
    items: list[Interval] = []
    for entry in raw:
        if isinstance(entry, Interval):
            items.append(entry)
        else:
            lo, hi = entry
            items.append(Interval(float(lo), float(hi)))
    items.sort(key=lambda iv: (iv.lo, iv.hi))
    merged: list[list[float]] = [[items[0].lo, items[0].hi]]
    for iv in items[1:]:
        cur = merged[-1]
        if iv.lo <= cur[1] + MERGE_EPS:
            cur[1] = max(cur[1], iv.hi)
        else:
            merged.append([iv.lo, iv.hi])
    return IntervalUnion(tuple(Interval(lo, hi) for lo, hi in merged), ambient)


def range_on_set_image(t: MultivaluedOperator, y: IntervalUnion) -> IntervalUnion:
    """The closure of T(Y) with each boundary's range on [u, v] from
    ``range_on``, over the pieces from the one eval selects for a part's
    start to the one it selects for its end (bisecting the piece starts)."""
    b = t.domain.bounds
    if y.parts[0].lo < b.lo - AMBIENT_TOL or y.parts[-1].hi > b.hi + AMBIENT_TOL:
        raise OutOfDomainError(
            f"set {y.to_json()} escapes operator domain [{b.lo}, {b.hi}]")
    starts = [pc.sub.lo for pc in t.pieces]
    out: list[Interval] = []
    for part in y.parts:
        a = max(part.lo, b.lo)
        z = min(part.hi, b.hi)
        first, last = (max(bisect_right(starts, x) - 1, 0) for x in (a, z))
        for pc in t.pieces[first:last + 1]:
            u = max(a, pc.sub.lo)
            v = min(z, pc.sub.hi)
            if u > v:
                continue
            lo = pc.lower.range_on(u, v)[0]
            hi = pc.upper.range_on(u, v)[1]
            out.append(Interval(b.clamp(lo), b.clamp(max(lo, hi))))
    return sequential_normalize(out, ambient=b)


def random_union(rng: np.random.Generator, max_parts: int = 4,
                 lo: float = -3.0, hi: float = 3.0,
                 max_width: float = 0.8) -> IntervalUnion:
    k = int(rng.integers(1, max_parts + 1))
    parts = []
    for _ in range(k):
        a = float(rng.uniform(lo, hi - max_width))
        w = float(rng.uniform(0.0, max_width))
        parts.append(Interval(a, a + w))
    return normalize(parts)


def random_subunion(rng: np.random.Generator, ambient: Interval,
                    max_parts: int = 3) -> IntervalUnion:
    """Random union contained in the given ambient interval."""
    k = int(rng.integers(1, max_parts + 1))
    parts = []
    for _ in range(k):
        a = float(rng.uniform(ambient.lo, ambient.hi))
        b = float(rng.uniform(ambient.lo, ambient.hi))
        lo_, hi_ = min(a, b), max(a, b)
        parts.append(Interval(lo_, hi_))
    return normalize(parts, ambient)


def linear_pair_operator(c: float = 0.5) -> MultivaluedOperator:
    """T(x) = [-c|x|, c|x|] on [-1, 1]: strict fixed point 0, plain scaling."""
    pieces = (
        Piece(Interval(-1.0, 0.0), BoundaryFn(slope=c), BoundaryFn(slope=-c)),
        Piece(Interval(0.0, 1.0), BoundaryFn(slope=-c), BoundaryFn(slope=c)),
    )
    return MultivaluedOperator(Domain(Interval(-1.0, 1.0)), pieces,
                               name=f"linear_scaling({c:g})")


def jump_to_one_operator() -> MultivaluedOperator:
    """T = [0.5, 1] on [0.25, 1) and {1} on [1, 2]: T jumps at the junction 1,
    which the right piece owns, so T(1) = {1}."""
    one = BoundaryFn(offset=1.0)
    return MultivaluedOperator(Domain(Interval(0.25, 2.0)), (
        Piece(Interval(0.25, 1.0), BoundaryFn(offset=0.5), one),
        Piece(Interval(1.0, 2.0), one, one)), name="jump_to_one")


# -- closed-form extrema and the np.roots order check -----------------------------
# BoundaryFn.critical_points with one closed form per base, and the order check
# that took the worst point of lower - upper from np.roots of a dense
# polynomial, as they stood before one sign-change routine answered both.


def closed_form_critical_points(fn: BoundaryFn, lo: float, hi: float) -> list[float]:
    """Interior extrema of the term on (lo, hi); analytically exact."""
    pts: list[float] = []
    if fn.base == "none" or fn.coeff == 0.0:
        return pts
    if fn.base == "power":
        p = fn.p
        if p == 1:
            return pts
        d = p * fn.coeff  # f' = d*x^(p-1) + slope
        if fn.slope == 0.0:
            if (p - 1) % 2 == 1:  # even p: sign change at 0
                pts = [0.0]
        else:
            r = -fn.slope / d
            if (p - 1) % 2 == 1:
                pts = [math.copysign(abs(r) ** (1.0 / (p - 1)), r)]
            elif r > 0.0:
                root = r ** (1.0 / (p - 1))
                pts = [root, -root]
    elif fn.base == "sqrt":
        # f' = coeff/(2 sqrt x) + slope
        if fn.slope != 0.0:
            s = -fn.coeff / (2.0 * fn.slope)
            if s > 0.0:
                pts = [s * s]
    elif fn.base == "invsqrt":
        # f' = -coeff/(2 x^(3/2)) + slope
        if fn.slope != 0.0:
            r = fn.coeff / (2.0 * fn.slope)
            if r > 0.0:
                pts = [r ** (2.0 / 3.0)]
    eps = 1e-12
    return sorted(x for x in pts if lo + eps < x < hi - eps)


def roots_worst_order_point(lower: BoundaryFn, upper: BoundaryFn, lo: float, hi: float) -> float:
    """The x of [lo, hi] where lower - upper is largest, from the exact extrema
    of the gap upper - lower.

    With s = sqrt(x) when either term has a sqrt or 1/sqrt part (then lo >= 0),
    else s = x, the gap is a sum of c*s^e with integer e >= -1, so
    s^2 * d(gap)/ds is a polynomial.  The real parts of its roots (a multiple
    root may come back as a complex cluster) are the interior candidates,
    besides the ends and 0; extra candidates do no harm.
    """
    half = any(fn.base in ("sqrt", "invsqrt") and fn.coeff != 0.0 for fn in (lower, upper))
    gap: dict[int, float] = {}  # exponent of s -> coefficient; offsets drop out
    for fn, sign in ((upper, 1.0), (lower, -1.0)):
        e = 2 if half else 1
        gap[e] = gap.get(e, 0.0) + sign * fn.slope
        if fn.coeff != 0.0 and fn.base != "none":
            e = {"power": fn.p * e, "sqrt": 1, "invsqrt": -1}[fn.base]
            gap[e] = gap.get(e, 0.0) + sign * fn.coeff
    # s^2 * d/ds sum(c*s^e) = sum(e*c*s^(e+1)), highest degree first
    deg = max(gap) + 1
    poly = np.zeros(deg + 1)
    for e, c in gap.items():
        poly[deg - e - 1] += e * c
    # np.roots divides by the leading coefficient; this keeps the quotients finite
    poly[np.abs(poly) < 1e-280 * np.abs(poly).max()] = 0.0
    cands = [lo, hi]
    if lo < 0.0 < hi:
        cands.append(0.0)
    if poly.any():
        s_lo, s_hi = (math.sqrt(lo), math.sqrt(hi)) if half else (lo, hi)
        for s in np.roots(poly).real.tolist():
            if s_lo < s < s_hi:  # before squaring: a far root would overflow
                cands.append(min(max(s * s if half else s, lo), hi))
    return max(cands, key=lambda x: lower.value(x) - upper.value(x))


# -- per-piece grid evaluation ----------------------------------------------------
# MultivaluedOperator.eval_grid before it evaluated per term run and skipped
# the identity clamps: a mask, a gather and a scatter per piece, and four clamp
# passes, kept as its reference.


def per_piece_eval_grid(t: MultivaluedOperator, xs) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (lo, hi) of T(x) for every x in xs, one piece at a time."""
    b = t.domain.bounds

    def clamp(v):  # Interval.clamp's max and min, which keep the sign of a zero
        v = np.array(v, dtype=float)
        np.copyto(v, b.lo, where=b.lo > v)
        np.copyto(v, b.hi, where=b.hi < v)
        return v

    xs = np.asarray(xs, dtype=float)
    inside = (xs >= b.lo - AMBIENT_TOL) & (xs <= b.hi + AMBIENT_TOL)
    if not inside.all():
        raise OutOfDomainError(f"x={float(xs[np.argmin(inside)])!r} outside operator "
                               f"domain [{b.lo}, {b.hi}]")
    xs = clamp(xs)
    piece_los = [pc.sub.lo for pc in t.pieces]
    idx = np.maximum(np.searchsorted(piece_los, xs, side="right") - 1, 0)
    lo, hi = np.empty_like(xs), np.empty_like(xs)
    for i, pc in enumerate(t.pieces):
        sel = idx == i
        lo[sel] = pc.lower.value_array(xs[sel])
        hi[sel] = pc.upper.value_array(xs[sel])
    swap = hi < lo
    if swap.any():
        bad = lo > hi + ORDER_SLACK
        if bad.any():
            i = int(np.argmax(bad))
            raise BoundaryOrderError(
                f"lower boundary exceeds upper at x={float(xs[i])!r} by "
                f"{float(lo[i] - hi[i])!r}, beyond the slack {ORDER_SLACK!r}")
    lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
    return clamp(lo), clamp(hi)


# -- exhaustive certification ----------------------------------------------------
# The flat off-diagonal pair system and the per-tuple candidate lattice that
# preceded setfix.certify's n x n arrays and numpy lattice, kept as the
# independent reference for exhaustive_certify and the lattice tests.


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


def rowmax(variant: str, u, v, w):
    """The largest a*u + b*v + g*w over the variant's region a, b, g >= 0 with
    a + b + g <= 1 (ciric, ciric_reich_rus) or a + 2b + 2g <= 1 (combined)."""
    if variant == "combined":
        return np.maximum(u, np.maximum(v / 2.0, w / 2.0))
    return np.maximum(u, np.maximum(v, w))


def _candidates(step: float, variant: str,
                center: tuple[float, float, float] | None = None,
                radius: float | None = None) -> list[tuple[float, float, float]]:
    cap = 1.0 - STRICTNESS

    def ok(a: float, b: float, g: float) -> bool:
        if min(a, b, g) < 0.0 or max(a, b, g) > cap:
            return False
        if variant == "combined":  # Hardy-Rogers
            return a + 2.0 * b + 2.0 * g <= cap
        return a + b + g <= cap  # ciric; ciric_reich_rus (Reich)

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


def exhaustive_certify(t: MultivaluedOperator, variant: str = "ciric",
                       grid_n: int = 501,
                       margin_req: float = 0.0) -> ContractionCertificate:
    """certify_contraction by a full serial sweep of every candidate.

    The same lattice search as the library, with no screening: each
    candidate's margin is the minimum over all pairs, and the witness pair
    is named from np.nonzero of the off-diagonal mask.
    """
    xs = t.domain.grid(grid_n)
    lhs, u, v, w = _pair_system(t, variant, xs)
    idx_i, idx_j = np.nonzero(~np.eye(grid_n, dtype=bool))
    reach = rowmax(variant, u, v, w)
    active = lhs > 1e-14
    skipped = int(np.sum(~active))
    required = np.zeros_like(lhs)
    np.divide(lhs, np.maximum(reach, 1e-300), out=required, where=active)
    imax = int(np.argmax(required))
    witness = Witness(float(xs[idx_i[imax]]), float(xs[idx_j[imax]]),
                      float(required[imax]))
    scale = max(1.0, float(lhs.max())) if len(lhs) else 1.0
    slack = margin_req * scale

    if witness.bound > 1.0 / (1.0 - STRICTNESS):
        ceiling = float((1.0 - STRICTNESS) * reach[imax] - lhs[imax])
        return ContractionCertificate(False, None, ceiling, witness,
                                      grid_n, skipped)

    def margins(cands):
        return np.fromiter((float(np.min(a * u + b * v + g * w - lhs))
                            for a, b, g in cands), dtype=float, count=len(cands))

    best: tuple[float, float, float] | None = None
    best_margin = -np.inf
    cands = _candidates(_SEARCH_STEP, variant)
    level0 = margins(cands)
    best_seen = float(np.max(level0)) if len(level0) else -np.inf
    for c, m in zip(cands, level0):
        if m >= slack:
            best, best_margin = c, m
            break
    if best is None:
        return ContractionCertificate(False, None, best_seen, witness, grid_n, skipped)

    radius = _SEARCH_STEP
    for _ in range(_REFINEMENTS):
        radius *= 0.5
        local = _candidates(radius, variant, center=best, radius=radius)
        for c, m in zip(local, margins(local)):
            if m >= slack and sum(c) < sum(best) - 1e-12:
                best, best_margin = c, m
                break
    params = ContractionParams(*best, variant=variant)
    return ContractionCertificate(True, params, float(best_margin), None,
                                  grid_n, skipped)


def bisect_retraction_xi(t: MultivaluedOperator, params: ContractionParams,
                         L: float, xstar: float, grid_n: int = 2001) -> tuple[float, bool]:
    """(xi_max, holds) of retraction_displacement_check by 100-step bisection.

    The bisection that preceded the closed form in setfix.certify: the cap
    1 - 1e-12 if it satisfies every kept point, else the largest xi found by
    halving [0, 1]; holds means xi_max >= 1e-6.
    """
    C = (1.0 + params.gamma) * L / (1.0 - params.alpha - params.beta)
    xs = t.domain.grid(grid_n)
    dist = dist_to_value(xs, *t.eval_grid(xs))
    err = np.abs(xs - xstar)
    keep = (dist >= 1e-14) | (err >= 1e-9)
    dd, ee = dist[keep], err[keep]

    def pred(xi: float) -> bool:
        return bool(np.all(ee * xi <= C * dd))

    lo, hi = 0.0, 1.0
    if pred(1.0 - 1e-12):
        return 1.0 - 1e-12, True
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, lo >= 1e-6


# -- the kernels before they formed their intermediates in place -----------------
# certify._PairSystem's build when each row block allocated its temporaries
# and took the witness ratio by a masked divide, _Screen's bounds in the
# (candidates x rows) layout, and iteration._nonneg_part's bisection by one
# scalar value per midpoint, kept as bit-for-bit references.


def allocating_pair_blocks(cond, xs: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                           rows: int):
    """(u, lhs, v, w, hardest, tops, active) of the pair system of a
    certify._CONDITIONS row, built rows grid rows per block; u, lhs, v and w
    are flat, in the blocks' order."""
    n = len(xs)
    r0s = list(range(0, n - 1, rows))
    shapes = [(min(r0 + rows, n - 1) - r0, n - 1 - r0) for r0 in r0s]
    ends = [0, *itertools.accumulate(h * w for h, w in shapes)]
    flat = np.empty((4, ends[-1]))
    hardest, tops, active = [], [], 0
    for r0, (h, width), e0, e1 in zip(r0s, shapes, ends, ends[1:]):
        i, j = slice(r0, r0 + h), slice(r0 + 1, n)
        point = {"i": xs[i, None], "j": xs[j]}
        value = {"i": (lo[i, None], hi[i, None]), "j": (lo[j], hi[j])}
        u, lhs, v, w = (a[e0:e1].reshape(h, width) for a in flat)
        np.abs(np.subtract(point["i"], point["j"], out=u), out=u)
        hausdorff_between_values(*value["i"], *value["j"], out=lhs)
        np.copyto(lhs[:, :h], -np.inf, where=np.tri(h, h, -1, dtype=bool))
        for out, ((p, q), *rest) in ((v, cond.v), (w, cond.w)):
            dist_to_value(point[p], *value[q], out=out)
            for p, q in rest:
                out += dist_to_value(point[p], *value[q])
        su, sv, sw = (x if wt == 1.0 else x / wt for wt, x in zip(cond.weights, (u, v, w)))
        rowmax = np.maximum(su, np.maximum(sv, sw))
        act = lhs > 1e-14
        active += 2 * int(np.count_nonzero(act))
        required = np.divide(lhs, np.maximum(rowmax, 1e-300, out=rowmax),
                             out=np.zeros_like(lhs), where=act)
        k = int(np.argmax(required))
        hardest.append(e0 + k)
        tops.append(float(required.flat[k]))
    return (*flat, hardest, tops, active)


def candidate_major_bounds(coef: np.ndarray, lhs, u, v, w) -> np.ndarray:
    """Each column (a, b, g) of coef's minimum of a*u + b*v + g*w - lhs over
    the rows, formed as one (candidates x rows) array."""
    a, b, g = coef[:, :, None]
    s, tmp = a * u, b * v
    s += tmp
    s += np.multiply(g, w, out=tmp)
    s -= lhs
    return s.min(axis=1)


def value_bisection(fn: BoundaryFn, u: float, v: float) -> tuple[float, float] | None:
    """{x in [u, v] : fn(x) >= 0} for fn monotone on [u, v], or None; a sign
    change is bisected to adjacent floats by one fn.value per midpoint."""
    at_u = fn.value(u) >= 0.0
    if at_u == (fn.value(v) >= 0.0):
        return (u, v) if at_u else None
    a, b = u, v
    while a < (m := 0.5 * (a + b)) < b:
        if (fn.value(m) >= 0.0) == at_u:
            a = m
        else:
            b = m
    return (u, a) if at_u else (b, v)


# -- scalar well-posedness construction -------------------------------------------
# The per-band scalar bisection over eval that preceded the lockstep array
# search in setfix.stability, kept as the differential reference.


def _residual(t: MultivaluedOperator, x: float) -> float:
    return dist_point_to_set(x, t.eval(x))


def point_with_residual(t: MultivaluedOperator, xstar: float,
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


def scalar_well_posedness(t: MultivaluedOperator, xstar: float, c: float,
                          targets: list[float]) -> dict:
    """u_n, worst_ratio, final_error and max_error of the well-posedness
    harness, one band and one scalar ratio at a time."""
    us, worst = [], 0.0
    for r in targets:
        u = xstar if r <= 0.0 else point_with_residual(t, xstar, 0.5 * r, r)
        err, rhs = abs(u - xstar), c * _residual(t, u)
        if r > 0.0:
            ratio = err / rhs if rhs >= 1e-300 else (0.0 if err <= 1e-12 else math.inf)
            worst = max(worst, ratio)
        us.append(u)
    errors = [abs(u - xstar) for u in us]
    return {"u": us, "worst_ratio": worst, "final_error": errors[-1],
            "max_error": max(errors)}


# -- grid scan of fixed points ---------------------------------------------------
# The sampling scan that preceded the exact per-piece solver in
# setfix.iteration, kept as the differential reference: fixed points are grid
# hits and refined sign changes of the membership defect, merged within tol.


def _membership_defect(t: MultivaluedOperator, x: float) -> float:
    return x - scan_nearest_point(t.eval(x), x)


def _strictness(t: MultivaluedOperator, x: float) -> float:
    return hausdorff(t.eval(x), IntervalUnion.singleton(x))


def _bisect_root(t: MultivaluedOperator, a: float, b: float, fa: float,
                 tol: float) -> float:
    # plain bisection on the membership defect; continuous between grid points
    for _ in range(200):
        if b - a < tol * 0.25:
            break
        m = 0.5 * (a + b)
        fm = _membership_defect(t, m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def _refine_strict(t: MultivaluedOperator, x: float, h: float) -> tuple[float, float]:
    """Ternary search of the strictness defect around x; returns (argmin, min)."""
    lo = max(t.domain.bounds.lo, x - h)
    hi = min(t.domain.bounds.hi, x + h)
    for _ in range(120):
        if hi - lo < 1e-15:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _strictness(t, m1) <= _strictness(t, m2):
            hi = m2
        else:
            lo = m1
    arg = 0.5 * (lo + hi)
    cand = min((x, arg), key=lambda z: _strictness(t, z))
    return cand, _strictness(t, cand)


def grid_scan_fixed_points(t: MultivaluedOperator, grid_n: int = 10_001,
                           tol: float = 1e-9) -> FixedPointScan:
    """Grid scan plus bisection refinement of x - nearest point of T(x).

    Fixed points are zeros of the membership defect (grid hits within tol
    plus refined sign changes, accepted only if the refined point actually
    lies in T(x) within tol).  Strict points additionally have
    hausdorff(T(x), {x}) < tol after a local ternary refinement.  Refined
    roots closer than tol are merged into one reported point.
    """
    if grid_n < 2:
        raise ParameterRangeError("scan_fixed_points needs grid_n >= 2")
    xs = t.domain.grid(grid_n)
    step = float(xs[1] - xs[0])
    lo, hi = t.eval_grid(xs)
    psi = xs - np.clip(xs, lo, hi)

    candidates = [float(x) for x in xs[np.abs(psi) <= tol]]
    for i in np.nonzero(psi[:-1] * psi[1:] < 0.0)[0]:
        root = _bisect_root(t, float(xs[i]), float(xs[i + 1]), float(psi[i]), tol)
        if dist_point_to_set(root, t.eval(root)) <= tol:
            candidates.append(root)

    candidates.sort()
    fixed: list[float] = []
    for c in candidates:
        if fixed and c - fixed[-1] < tol:
            # keep the representative with the smaller defect
            if abs(_membership_defect(t, c)) < abs(_membership_defect(t, fixed[-1])):
                fixed[-1] = c
        else:
            fixed.append(c)

    strict: list[float] = []
    for c in fixed:
        if _strictness(t, c) < tol:
            strict.append(c)
            continue
        arg, val = _refine_strict(t, c, step)
        if val < tol and (not strict or arg - strict[-1] >= tol):
            strict.append(arg)
    # a strict point is a fixed point; keep the containment exact even when
    # the strictness refinement moved off the membership root
    for s in strict:
        if all(abs(s - f) > tol for f in fixed):
            fixed.append(s)
    fixed.sort()
    return FixedPointScan(tuple(fixed), tuple(strict), tol, grid_n)


# -- exact membership ----------------------------------------------------------
# Every float is a rational, so a term's value at a float x is decided exactly
# from its coefficients: the floats eval rounds to are not consulted.


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def exact_term_sign(fn: BoundaryFn, x: float) -> int:
    """The sign of fn(x) - x, with x and the float coefficients read as
    rationals and the real sqrt.

    fn(x) - x = P + Q*r with rational P, Q and r = sqrt(x) or 1/sqrt(x) (Q = 0
    for the other bases).  Where P and Q have opposite signs, the sign is
    that of the larger of P^2 and Q^2*r^2, both rational.
    """
    X = Fraction(x)
    P = Fraction(fn.offset) + Fraction(fn.slope) * X - X
    if fn.base == "power":
        P += Fraction(fn.coeff) * X ** fn.p
    if fn.base not in ("sqrt", "invsqrt") or fn.coeff == 0.0 or X == 0:
        return _sign(P)
    Q, r2 = Fraction(fn.coeff), X if fn.base == "sqrt" else 1 / X
    sp, sq = _sign(P), _sign(Q)
    if sp != -sq:  # the same sign, or P = 0
        return sp or sq
    return sp * _sign(P * P - Q * Q * r2)


def exact_end_signs(t: MultivaluedOperator, x: float) -> tuple[int, int]:
    """The signs of lower(x) - x and upper(x) - x, exactly, for the piece that
    owns x and each end clamped into X as eval clamps it: x is in T(x) iff
    they are not both positive or both negative, and T(x) = {x} iff both
    are 0."""
    dom = t.domain.bounds
    pc = t.pieces[max(bisect_right([p.sub.lo for p in t.pieces], x) - 1, 0)]
    signs = []
    for fn in (pc.lower, pc.upper):
        s = exact_term_sign(fn, x)
        signs.append(0 if (s < 0 and x == dom.lo) or (s > 0 and x == dom.hi) else s)
    return signs[0], signs[1]


# -- random catalog operators -------------------------------------------------------


@st.composite
def catalog_operators(draw) -> MultivaluedOperator:
    """Random valid operators, handed to the constructor unsplit.

    The domain is [0.25, 2], where every base is defined, or [lo, hi] with
    lo <= 0 < hi, where only power and affine terms are drawn.  It is cut
    into at most three runs.  Each run draws a raw term per boundary and
    rescales it affinely into a random band of the domain: lower into
    [a, m] and upper into [m, c], or upper = lower for a single-valued run,
    so lower <= upper and the self-map property hold by construction.  A run
    is given as up to three pieces, cut at extrema of its terms or at a drawn
    point, so construction merges them and splits the run at the extrema,
    across a junction at an extremum too; the outer ends are given up to
    5e-10 off the domain's, which construction snaps.  An operator the
    constructor still rejects is discarded.
    """
    if draw(st.booleans()):
        lo, hi, bases = 0.25, 2.0, ["none", "power", "sqrt", "invsqrt"]
    else:
        lo, hi, bases = draw(st.floats(-2.0, 0.0)), draw(st.floats(0.25, 2.0)), ["none", "power"]
    inner = draw(st.lists(st.floats(lo + 0.05, hi - 0.05), max_size=2, unique=True))
    edges = [lo, *sorted(inner), hi]

    def term(u: float, v: float, band_lo: float, band_hi: float) -> BoundaryFn:
        base = draw(st.sampled_from(bases))
        raw = BoundaryFn(base=base, p=draw(st.integers(1, 3) | st.sampled_from([8, 25])),
                         coeff=0.0 if base == "none" else draw(st.floats(-2.0, 2.0)),
                         slope=draw(st.floats(-2.0, 2.0)))
        rmin, rmax = raw.range_on(u, v)
        if rmax - rmin < 1e-6:
            return BoundaryFn(offset=band_lo)
        scale = (band_hi - band_lo) / (rmax - rmin)
        return raw.compose_affine(0.0, scale, band_lo - scale * rmin)

    pieces = []
    for u, v in zip(edges, edges[1:]):
        a, m, c = sorted(draw(st.floats(lo, hi)) for _ in range(3))
        lower = term(u, v, a, m)
        upper = lower if draw(st.booleans()) else term(u, v, m, c)
        cuts = [*lower.critical_points(u, v), *upper.critical_points(u, v), draw(st.floats(u, v))]
        run = [u, *sorted(draw(st.lists(st.sampled_from(cuts), max_size=2, unique=True))), v]
        pieces += [Piece(Interval(s, e), lower, upper) for s, e in zip(run, run[1:])]
    off = st.sampled_from([0.0, 5e-10, -5e-10])
    given_lo, given_hi = lo + draw(off), hi + draw(off)
    try:
        first = pieces[0]
        pieces[0] = Piece(Interval(given_lo, first.sub.hi), first.lower, first.upper)
        last = pieces[-1]
        pieces[-1] = Piece(Interval(last.sub.lo, given_hi), last.lower, last.upper)
        return MultivaluedOperator(Domain(Interval(lo, hi)), tuple(pieces), name="random")
    except ValueError:
        reject()

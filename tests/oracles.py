"""Brute-force grid oracles used to cross-check the exact implementations.

These deliberately share no code with the library's candidate-point
algorithms: every functional is recomputed from dense point grids, giving
an independent reference accurate to the grid step.
"""

from __future__ import annotations

import numpy as np

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
    _candidates,
    _pair_system,
)


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
    rowmax = np.maximum(u, np.maximum(v, w))
    active = lhs > 1e-14
    skipped = int(np.sum(~active))
    required = np.zeros_like(lhs)
    np.divide(lhs, np.maximum(rowmax, 1e-300), out=required, where=active)
    imax = int(np.argmax(required))
    witness = Witness(float(xs[idx_i[imax]]), float(xs[idx_j[imax]]),
                      float(required[imax]))
    scale = max(1.0, float(lhs.max())) if len(lhs) else 1.0
    slack = margin_req * scale

    if witness.bound > 1.0 / (1.0 - STRICTNESS):
        ceiling = float((1.0 - STRICTNESS) * rowmax[imax] - lhs[imax])
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

"""Dense-grid reference for the set_algebra workload.

Shares no code with setfix: the two operators are written out from their
closed forms, and every set functional is recomputed from point samples at
step <= H, so each reference value is within about H of the exact one.
"""

from __future__ import annotations

import numpy as np

#: Sample step of the reference sets.
H = 5e-5

#: Allowed distance between a library value and its reference.  Sampling two
#: sets at step H moves a distance between them by at most H; the image
#: extremes of both operators lie at part endpoints, which are sampled exactly.
TOL = 2.0 * H + 1e-12

#: name -> (domain, lam): base operators of setfix's built-ins and the
#: Takahashi parameter of their perturbation T_G(x) = lam*x + (1-lam)*T(x).
OPERATORS = {
    "sqrt": ((0.25, 4.0), 0.75),
    "square": ((-8.0 / 9.0, 8.0 / 9.0), 0.5),
}


def boundaries(name: str, perturbed: bool, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of T(x) -- or of T_G(x) when perturbed -- at each x."""
    if name == "sqrt":
        lo = np.ones_like(xs)
        hi = np.where(xs < 1.0, 1.0 / np.sqrt(xs), np.sqrt(xs))
    else:
        lo, hi = -xs * xs, xs * xs
    if perturbed:
        lam = OPERATORS[name][1]
        lo, hi = lam * xs + (1.0 - lam) * lo, lam * xs + (1.0 - lam) * hi
    return lo, hi


def sample(parts) -> np.ndarray:
    """Sorted sample points of a union of [lo, hi] pairs, endpoints included."""
    chunks = [np.linspace(lo, hi, max(2, int(np.ceil((hi - lo) / H)) + 1))
              for lo, hi in parts]
    return np.unique(np.concatenate(chunks))


def _dist(xs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(grid, xs)
    left = grid[np.clip(idx - 1, 0, len(grid) - 1)]
    right = grid[np.clip(idx, 0, len(grid) - 1)]
    return np.minimum(np.abs(xs - left), np.abs(xs - right))


def gap(a, b) -> float:
    return float(_dist(sample(a), sample(b)).min())


def excess(a, b) -> float:
    return float(_dist(sample(a), sample(b)).max())


def hausdorff(a, b) -> float:
    return max(excess(a, b), excess(b, a))


def image(name: str, perturbed: bool, parts) -> list[tuple[float, float]]:
    """T(Y) (or T_G(Y)): [min lower, max upper] over each part of Y, merged."""
    out: list[tuple[float, float]] = []
    for p in parts:
        lo, hi = boundaries(name, perturbed, sample([p]))
        out.append((float(lo.min()), float(hi.max())))
    out.sort()
    merged = [out[0]]
    for lo, hi in out[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def random_union(rng: np.random.Generator, domain: tuple[float, float],
                 n_parts: int) -> list[tuple[float, float]]:
    """n_parts sorted closed intervals inside domain, pairwise >= 1e-6 apart."""
    while True:
        ends = np.sort(rng.uniform(domain[0], domain[1], 2 * n_parts))
        if np.all(np.diff(ends)[1::2] > 1e-6):
            return [(float(ends[2 * i]), float(ends[2 * i + 1])) for i in range(n_parts)]

"""Picard orbits of sets and grid location of (strict) fixed points.

The orbit S_0 = {x0}, S_{n+1} = T(S_n) is tracked in the Pompeiu-Hausdorff
metric.  Convergence is declared Cauchy-style (successive distance below a
tolerance) because the limit point is not known a priori; a separate
optional target point lets callers record distances to a known strict
fixed point.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, OutOfDomainError, ParameterRangeError
from .intervals import (
    IntervalUnion,
    dist_point_to_set,
    hausdorff,
    nearest_point,
)
from .operators import MultivaluedOperator

#: Orbits whose successive-distance ratio stays above this for STALL_STEPS
#: consecutive steps are reported unconverged instead of running to max_n.
STALL_RATIO = 1.0 - 1e-6
STALL_STEPS = 100


@dataclass(frozen=True)
class OrbitStep:
    n: int
    set: IntervalUnion
    h_to_prev: float
    h_to_target: float | None


@dataclass(frozen=True)
class OrbitTrace:
    steps: tuple[OrbitStep, ...]
    converged: bool
    limit_estimate: float | None
    tol: float
    target: float | None

    @property
    def final(self) -> OrbitStep:
        return self.steps[-1]


@dataclass(frozen=True)
class FixedPointScan:
    """Grid-detected fixed points (x in T(x)) and strict fixed points (T(x) = {x})."""

    fixed: tuple[float, ...]
    strict: tuple[float, ...]
    tol: float
    grid_n: int


def picard_orbit(t: MultivaluedOperator, x0: float, max_n: int = 10_000,
                 tol: float = 1e-10, target: float | None = None) -> OrbitTrace:
    """Iterate S_{n+1} = T(S_n) from the singleton {x0}.

    Stops when hausdorff(S_n, S_{n+1}) < tol (converged), at max_n, or when
    the orbit stalls (ratio >= STALL_RATIO for STALL_STEPS steps).
    """
    if max_n < 1:
        raise ParameterRangeError("picard_orbit needs max_n >= 1")
    if not tol > 0.0:
        raise ParameterRangeError("picard_orbit needs tol > 0")
    bounds = t.domain.bounds
    if not t.domain.contains(x0):
        raise OutOfDomainError(f"x0={x0!r} outside operator domain")
    x0 = bounds.clamp(x0)

    def h_target(s: IntervalUnion) -> float | None:
        if target is None:
            return None
        return hausdorff(s, IntervalUnion.singleton(target))

    current = IntervalUnion.singleton(x0, ambient=bounds)
    steps = [OrbitStep(0, current, 0.0, h_target(current))]
    converged = False
    stall = 0
    prev_h: float | None = None
    for n in range(1, max_n + 1):
        try:
            nxt = t.set_image(current)
        except OutOfDomainError as exc:
            raise OutOfDomainError(f"orbit escaped the domain at step {n}: {exc}") from exc
        h = hausdorff(current, nxt)
        steps.append(OrbitStep(n, nxt, h, h_target(nxt)))
        if h < tol:
            converged = True
            break
        if prev_h is not None and prev_h > 0.0 and h / prev_h >= STALL_RATIO:
            stall += 1
            if stall >= STALL_STEPS:
                break
        else:
            stall = 0
        prev_h = h
        current = nxt
    limit = steps[-1].set.hull.midpoint if converged else None
    return OrbitTrace(tuple(steps), converged, limit, tol, target)


def orbit_rate(trace: OrbitTrace) -> float:
    """Empirical contraction factor: max ratio of successive target distances.

    The initial step ({x0} itself, not an iterate) is excluded.  Requires at
    least three post-initial steps with positive distance to the target.
    """
    hs = [s.h_to_target for s in trace.steps[1:]
          if s.h_to_target is not None and s.h_to_target > 0.0]
    if len(hs) < 3:
        raise InsufficientDataError(
            f"orbit_rate needs >= 3 steps with positive target distance, got {len(hs)}")
    return max(b / a for a, b in zip(hs, hs[1:]))


def _membership_defect(t: MultivaluedOperator, x: float) -> float:
    return x - nearest_point(t.eval(x), x)


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


def scan_fixed_points(t: MultivaluedOperator, grid_n: int = 10_001,
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


def orbit_steps(trace: OrbitTrace) -> list[dict]:
    """The steps of an orbit as report rows: n, parts, h_to_prev, h_to_target."""
    return [{"n": s.n, "parts": [[p.lo, p.hi] for p in s.set.parts],
             "h_to_prev": s.h_to_prev, "h_to_target": s.h_to_target}
            for s in trace.steps]


def steps_to_csv(steps: list[dict]) -> str:
    """Flatten orbit rows to CSV: n, part_i_lo, part_i_hi..., h_to_prev, h_to_target."""
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


def orbit_to_csv(trace: OrbitTrace) -> str:
    """The orbit as CSV, in the layout of steps_to_csv."""
    return steps_to_csv(orbit_steps(trace))

"""Picard orbits of sets, and the fixed-point sets Fix(T) and SFix(T).

The orbit S_0 = {x0}, S_{n+1} = T(S_n) is tracked in the Pompeiu-Hausdorff
metric.  Convergence is declared Cauchy-style (successive distance below a
tolerance) because the limit point is not known a priori; a separate
optional target point lets callers record distances to a known strict
fixed point.  Fix(T) and SFix(T) come from the catalog terms x - lower(x)
and upper(x) - x of each piece, bisected on their monotone segments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (InsufficientDataError, OutOfDomainError, ParameterRangeError, csv_text,
                     record)
from .intervals import Interval, IntervalUnion, hausdorff, normalize
from .operators import BoundaryFn, MultivaluedOperator

#: Orbits whose successive-distance ratio stays above this for STALL_STEPS
#: consecutive steps are reported unconverged instead of running to max_n.
STALL_RATIO = 1.0 - 1e-6
STALL_STEPS = 100

#: x is a strict fixed point iff hausdorff(T(x), {x}) < STRICT_TOL; the same
#: tolerance collapses fixed-point parts narrower than it to their midpoint.
STRICT_TOL = 1e-9


@record
class OrbitStep:
    """The n-th orbit set S_n, with its distance to S_{n-1} and to the target."""

    n: int
    set: IntervalUnion
    h_to_prev: float
    h_to_target: float | None


@record
class OrbitTrace:
    """A Picard orbit's steps, whether it converged within tol, and its limit."""

    steps: tuple[OrbitStep, ...]
    converged: bool
    limit_estimate: float | None
    tol: float
    target: float | None

    @property
    def final(self) -> OrbitStep:
        return self.steps[-1]


@record
class FixedPointScan:
    """Fix(T) (x in T(x)) and SFix(T) (T(x) = {x}), sorted; each entry is a
    float for an isolated point or (lo, hi) for a nondegenerate part."""

    fixed: tuple[float | tuple[float, float], ...]
    strict: tuple[float | tuple[float, float], ...]
    tol: float
    grid_n: int

    def to_json(self) -> dict:
        """{"fixed": [...], "strict": [...]}: a number per point, [lo, hi] per part."""
        def rows(entries):
            return [list(e) if isinstance(e, tuple) else e for e in entries]
        return {"fixed": rows(self.fixed), "strict": rows(self.strict)}

    @property
    def xstar(self) -> float | None:
        """The strict fixed point if SFix(T) is one isolated point, else None."""
        if len(self.strict) == 1 and isinstance(self.strict[0], float):
            return self.strict[0]
        return None


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
    if target is not None and not math.isfinite(target):
        raise ParameterRangeError(f"picard_orbit needs a finite target, got {target!r}")
    bounds = t.domain.bounds
    if not t.domain.contains(x0):
        raise OutOfDomainError(f"x0={x0!r} outside operator domain")
    x0 = bounds.clamp(x0)

    def h_target(s: IntervalUnion) -> float | None:
        # H(S, {p}) in closed form, bit for bit hausdorff(S, {p})
        if target is None:
            return None
        return max(abs(s._los[0] - target), abs(s._his[-1] - target))

    current = IntervalUnion.singleton(x0, ambient=bounds)
    steps = [OrbitStep(0, current, 0.0, h_target(current))]
    image, append = t.set_image, steps.append
    converged = False
    stall = 0
    prev_h: float | None = None
    for n in range(1, max_n + 1):
        try:
            nxt = image(current)
        except OutOfDomainError as exc:
            raise OutOfDomainError(f"orbit escaped the domain at step {n}: {exc}") from exc
        h = hausdorff(current, nxt)
        append(OrbitStep(n, nxt, h, h_target(nxt)))
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


def strict_defect(t: MultivaluedOperator, x: float) -> float:
    """hausdorff(T(x), {x}); x is a strict fixed point iff it is below STRICT_TOL."""
    return hausdorff(t.eval(x), IntervalUnion.singleton(x))


def _nonneg_part(fn: BoundaryFn, u: float, v: float) -> tuple[float, float] | None:
    """{x in [u, v] : fn(x) >= 0} for fn monotone on [u, v], or None; a sign
    change is bisected to adjacent floats, keeping the one with fn >= 0.  While
    a bracket end is +-0.0 (a root at 0), _halvings takes the steps at once."""
    at_u = fn.value(u) >= 0.0
    if at_u == (fn.value(v) >= 0.0):
        return (u, v) if at_u else None
    a, b = u, v
    while a < (m := 0.5 * (a + b)) < b:
        if a == 0.0 or b == 0.0:
            a, b = _halvings(fn, a, b, at_u)
        elif (fn.value(m) >= 0.0) == at_u:
            a = m
        else:
            b = m
    return (u, a) if at_u else (b, v)


def _halvings(fn: BoundaryFn, a: float, b: float, at_u: bool) -> tuple[float, float]:
    """_nonneg_part's bracket after the midpoints that keep its end z = +-0.0:
    with o the other end they are 0.5 * (o + z) = o/2, o/4, ... down to 0, which
    np.multiply.accumulate rounds as the loop does and value_array (bit for bit
    value) decides at once.  The first to move z ends the run, between it and
    the midpoint before; with none, o ends at the last nonzero halving."""
    zero_left = a == 0.0
    o = b if zero_left else a
    chain = np.full(math.frexp(o)[1] + 1077, 0.5)
    chain[0] = o
    chain = np.multiply.accumulate(chain)
    chain = chain[:np.count_nonzero(chain)]  # o and its nonzero halvings
    moves_zero = ((fn.value_array(chain[1:]) >= 0.0) == at_u) == zero_left
    if moves_zero.any():
        k = int(np.argmax(moves_zero)) + 1
        ends = (float(chain[k]), float(chain[k - 1]))
        return ends if zero_left else ends[::-1]
    return (a, float(chain[-1])) if zero_left else (float(chain[-1]), b)


def _is_zero(fn: BoundaryFn) -> bool:
    return fn.offset == 0.0 and fn.slope == 0.0 and (fn.base == "none" or fn.coeff == 0.0)


def _entries(parts: list[Interval], tol: float) -> tuple[float | tuple[float, float], ...]:
    """The union of parts, sorted: a float for a part narrower than tol, else (lo, hi)."""
    if not parts:
        return ()
    return tuple(p.midpoint if p.lo == p.hi or p.width < tol else (p.lo, p.hi)
                 for p in normalize(parts).parts)


def scan_fixed_points(t: MultivaluedOperator, grid_n: int = 10_001,
                      tol: float = STRICT_TOL) -> FixedPointScan:
    """Fix(T) and SFix(T) from the boundary terms of each piece; grid_n is only recorded.

    x in T(x) iff f = x - lower(x) >= 0 and g = upper(x) - x >= 0.  Between
    their critical points both are monotone, so {f >= 0} and {g >= 0} are
    intervals and Fix is their intersection; a crossing between adjacent
    floats (as a single-valued boundary makes) counts as the lower one.  A
    part that is only a piece's cut belongs to the next piece (see Piece), a
    nondegenerate part is taken closed, and parts narrower than tol become
    their midpoint.  SFix: pieces with f = g = 0 identically, plus the Fix
    part ends and segment edges inside Fix with hausdorff(T(x), {x}) < tol.
    """
    fixed: list[Interval] = []
    strict: list[Interval] = []
    edges: list[float] = []
    ends = t.domain.bounds
    for pc, cut in zip(t.pieces, t._cuts):
        f = pc.lower.compose_affine(1.0, -1.0, 0.0)
        g = pc.upper.compose_affine(-1.0, 1.0, 0.0)
        lo, hi = pc.sub.lo, pc.sub.hi
        cuts = sorted({lo, hi, *f.critical_points(lo, hi), *g.critical_points(lo, hi)})
        edges += cuts
        if _is_zero(f) and _is_zero(g):
            strict.append(pc.sub)
        # eval clamps T(x) into X, so at an end of X one condition always holds
        if lo == ends.lo and f.value(lo) >= 0.0:
            fixed.append(Interval(lo, lo))
        if hi == ends.hi and g.value(hi) >= 0.0:
            fixed.append(Interval(hi, hi))
        for u, v in zip(cuts, cuts[1:]):
            fu, gu = _nonneg_part(f, u, v), _nonneg_part(g, u, v)
            if fu is None or gu is None:
                continue
            a, b = max(fu[0], gu[0]), min(fu[1], gu[1])
            if a > b:  # disjoint, unless they cross between adjacent floats
                if math.nextafter(b, a) != a:
                    continue
                a = b
            if a == cut:
                continue
            fixed.append(Interval(a, b))

    candidates: list[float] = []
    for p in normalize(fixed).parts if fixed else ():
        if p.width < tol:
            candidates.append(p.midpoint)
        else:
            candidates += [p.lo, p.hi, *(e for e in edges if p.lo < e < p.hi)]
    strict += [Interval(x, x) for x in candidates if strict_defect(t, x) < tol]
    return FixedPointScan(_entries(fixed, tol), _entries(strict, tol), tol, grid_n)


def orbit_summary(x0: float, trace: OrbitTrace) -> dict:
    """An orbit from x0 as a report row: x0, steps, converged, limit_estimate,
    and the final step's h_to_prev and h_to_target."""
    return {"x0": x0, "steps": len(trace.steps), "converged": trace.converged,
            "limit_estimate": trace.limit_estimate, "final_h_to_prev": trace.final.h_to_prev,
            "final_h_to_target": trace.final.h_to_target}


def orbit_steps(trace: OrbitTrace) -> list[dict]:
    """The steps of an orbit as report rows: n, parts, h_to_prev, h_to_target."""
    return [{"n": s.n, "parts": [[lo, hi] for lo, hi in zip(s.set._los, s.set._his)],
             "h_to_prev": s.h_to_prev, "h_to_target": s.h_to_target}
            for s in trace.steps]


def steps_to_csv(steps: list[dict]) -> str:
    """Flatten orbit rows to CSV: n, part_i_lo, part_i_hi..., h_to_prev, h_to_target;
    a row with fewer parts than the widest leaves the rest of its part cells empty."""
    width = max(len(s["parts"]) for s in steps)
    columns = ["n", *(f"part{i}_{end}" for i in range(width) for end in ("lo", "hi")),
               "h_to_prev", "h_to_target"]
    return csv_text(columns, ([s["n"], *(v for part in s["parts"] for v in part),
                               *[""] * (2 * (width - len(s["parts"]))),
                               s["h_to_prev"], s["h_to_target"]] for s in steps))


def orbit_to_csv(trace: OrbitTrace) -> str:
    """The orbit as CSV, in the layout of steps_to_csv."""
    return steps_to_csv(orbit_steps(trace))

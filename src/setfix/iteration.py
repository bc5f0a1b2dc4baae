"""Picard orbits of sets, and the fixed-point sets Fix(T) and SFix(T).

The orbit S_0 = {x0}, S_{n+1} = T(S_n) is tracked in the Pompeiu-Hausdorff
metric.  Convergence is declared Cauchy-style (successive distance below a
tolerance) because the limit point is not known a priori; a separate
optional target point lets callers record distances to a known strict
fixed point.  Fix(T) and SFix(T) come from the catalog terms x - lower(x)
and upper(x) - x of each piece, bisected on their monotone segments.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .errors import InsufficientDataError, OutOfDomainError, ParameterRangeError
from .intervals import Interval, IntervalUnion, hausdorff, normalize
from .operators import BoundaryFn, MultivaluedOperator

#: Orbits whose successive-distance ratio stays above this for STALL_STEPS
#: consecutive steps are reported unconverged instead of running to max_n.
STALL_RATIO = 1.0 - 1e-6
STALL_STEPS = 100

#: x is a strict fixed point iff hausdorff(T(x), {x}) < STRICT_TOL; the same
#: tolerance collapses fixed-point parts narrower than it to their midpoint.
STRICT_TOL = 1e-9


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


def strict_defect(t: MultivaluedOperator, x: float) -> float:
    """hausdorff(T(x), {x}); x is a strict fixed point iff it is below STRICT_TOL."""
    return hausdorff(t.eval(x), IntervalUnion.singleton(x))


def _nonneg_part(fn: BoundaryFn, u: float, v: float) -> tuple[float, float] | None:
    """{x in [u, v] : fn(x) >= 0} for fn monotone on [u, v], or None; a sign
    change is bisected to adjacent floats, keeping the one with fn >= 0."""
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
    floats (as a single-valued boundary makes) counts as the lower one.  A shared piece endpoint
    follows eval (right piece wins), a nondegenerate part is taken closed,
    and parts narrower than tol become their midpoint.  SFix: pieces with
    f = g = 0 identically, plus the Fix part ends and segment edges inside
    Fix with hausdorff(T(x), {x}) < tol.
    """
    fixed: list[Interval] = []
    strict: list[Interval] = []
    edges: list[float] = []
    ends = t.domain.bounds
    last = len(t.pieces) - 1
    for i, pc in enumerate(t.pieces):
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
            if a == hi and i < last:
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

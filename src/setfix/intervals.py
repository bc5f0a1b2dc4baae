"""Exact arithmetic and metric functionals on compact subsets of the real line.

A compact set is represented as a finite union of closed intervals in
canonical form: parts sorted, pairwise separated by more than ``MERGE_EPS``.
On this representation the classical set functionals are all exactly
computable:

* gap        D(A, B) = inf { |a - b| : a in A, b in B }
* excess     e(A, B) = sup { D(a, B) : a in A }
* Hausdorff  H(A, B) = max { e(A, B), e(B, A) }

The key fact is that x -> D(x, B) is piecewise linear with slope +-1 and
local maxima only at the midpoints of B's gaps, so suprema over another
union are attained on a finite candidate set (part endpoints of A plus gap
midpoints of B that lie inside A).  No sampling is involved.

Because the parts are sorted, a point's nearest part is one of the two parts
around it, and every functional reads the endpoints from the tuples each
union keeps (``_los``, ``_his``):

* ``dist_point_to_set`` bisects the part starts, O(log |A|);
* ``gap`` bisects B's part ends for each part of A, starting where the
  previous search ended, O(|A| log |B|);
* ``excess`` walks A's endpoints and B's gap midpoints in ascending order
  with a pointer into the other union that only moves right, O(|A| + |B|).

Each takes the same float expressions over fewer candidates than a scan of
all parts would, and fl(x - c) is monotone in c, so the values are those of
the all-pairs scan bit for bit (``tests/oracles.py`` keeps that scan).

Degenerate point intervals are first-class: singletons {x} appear as
targets of every convergence statement in the rest of the library.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySetError, ParameterRangeError, is_json_pair, json_field, json_keys

#: Canonicalization constant: parts whose gap is <= MERGE_EPS are merged.
MERGE_EPS = 1e-12

#: Slack used when checking containment in an ambient interval.
AMBIENT_TOL = 1e-9


@dataclass(frozen=True, order=True)
class Interval:
    """Closed bounded interval [lo, hi]; lo == hi encodes a point."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower end exceeds upper end: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)


@dataclass(frozen=True)
class IntervalUnion:
    """Nonempty compact subset of R as a sorted disjoint union of intervals.

    ``ambient``, when present, is the surrounding space X; every part must
    lie inside it (up to ``AMBIENT_TOL`` of floating-point slack).
    """

    parts: tuple[Interval, ...]
    ambient: Interval | None = None

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not parts:
            raise EmptySetError("an interval union needs at least one part")
        object.__setattr__(self, "parts", parts)
        # endpoint tuples for the sweeps below; not fields, so ==, hash and
        # repr see only the parts
        los = tuple([p.lo for p in parts])
        his = tuple([p.hi for p in parts])
        object.__setattr__(self, "_los", los)
        object.__setattr__(self, "_his", his)
        for hi, lo in zip(his, los[1:]):
            if not hi + MERGE_EPS < lo:
                raise ValueError(
                    "parts must be strictly sorted and separated; build via normalize()"
                )
        if self.ambient is not None:
            if (parts[0].lo < self.ambient.lo - AMBIENT_TOL
                    or parts[-1].hi > self.ambient.hi + AMBIENT_TOL):
                raise ValueError("parts escape the ambient interval")

    @classmethod
    def singleton(cls, x: float, ambient: Interval | None = None) -> "IntervalUnion":
        return cls((Interval(x, x),), ambient)

    @property
    def hull(self) -> Interval:
        return Interval(self.parts[0].lo, self.parts[-1].hi)

    def to_json(self) -> dict:
        return {"parts": [[p.lo, p.hi] for p in self.parts]}


def normalize(raw: Iterable[Interval | Sequence[float]],
              ambient: Interval | None = None) -> IntervalUnion:
    """Canonical sorted disjoint form covering exactly the same point set.

    Intervals whose gap is <= MERGE_EPS are merged into one part.
    """
    items: list[Interval] = []
    for entry in raw:
        if isinstance(entry, Interval):
            items.append(entry)
        else:
            lo, hi = entry
            items.append(Interval(float(lo), float(hi)))
    if not items:
        raise EmptySetError("normalize() needs at least one interval")
    items.sort(key=lambda iv: (iv.lo, iv.hi))
    merged: list[list[float]] = [[items[0].lo, items[0].hi]]
    for iv in items[1:]:
        cur = merged[-1]
        if iv.lo <= cur[1] + MERGE_EPS:
            cur[1] = max(cur[1], iv.hi)
        else:
            merged.append([iv.lo, iv.hi])
    return IntervalUnion(tuple(Interval(lo, hi) for lo, hi in merged), ambient)


def set_from_json(obj: object, ambient: Interval | None = None) -> IntervalUnion:
    """Parse ``{"parts": [[lo, hi], ...]}``, re-normalizing; reject bad shapes."""
    json_keys(obj, ("parts",), "set")
    parts = json_field(obj, "parts", lambda v: isinstance(v, list) and v != []
                       and all(map(is_json_pair, v)), "a nonempty list of [lo, hi]", "set")
    return normalize([Interval(float(lo), float(hi)) for lo, hi in parts], ambient)


def _dist_around(x: float, los: tuple, his: tuple, i: int) -> float:
    """D(x, A) from A's parts i - 1 and i, where i = bisect_right(los, x).

    Every part left of i - 1 ends before part i - 1 does and every part right
    of i starts after part i does, and fl(x - c) is monotone in c, so no other
    part can be nearer.
    """
    if i == 0:
        return max(0.0, los[0] - x, x - his[0])
    d = max(0.0, los[i - 1] - x, x - his[i - 1])
    if i < len(los):
        d = min(d, max(0.0, los[i] - x, x - his[i]))
    return d


def dist_point_to_set(x: float, a: IntervalUnion) -> float:
    """Distance from the point x to the set A; 0 iff x is a member."""
    return _dist_around(x, a._los, a._his, bisect_right(a._los, x))


def nearest_point(a: IntervalUnion, x: float) -> float:
    """Point of A closest to x (leftmost on ties)."""
    best, best_d = None, math.inf
    for p in a.parts:
        c = p.clamp(x)
        d = abs(x - c)
        if d < best_d:
            best, best_d = c, d
    return best  # parts nonempty


def gap(a: IntervalUnion, b: IntervalUnion) -> float:
    """inf distance between the two sets; 0 iff they intersect."""
    blos, bhis = b._los, b._his
    best = math.inf
    j = 0
    for p in a.parts:
        # the first part of B that ends at or after p starts, and the one
        # before it, are the only candidates; j only moves right
        j = bisect_left(bhis, p.lo, j)
        for k in range(max(j - 1, 0), min(j + 1, len(bhis))):
            d = max(0.0, p.lo - bhis[k], blos[k] - p.hi)
            if d < best:
                best = d
            if best == 0.0:
                return 0.0
    return best


def excess(a: IntervalUnion, b: IntervalUnion) -> float:
    """sup_{x in A} D(x, B), computed exactly on the finite candidate set.

    D(., B) is piecewise linear with peaks only at midpoints of B's gaps,
    so the sup over A is attained at an endpoint of a part of A or at a gap
    midpoint of B lying inside A.  Both candidate lists ascend, so one pass
    over each, with a pointer into the other union, finds every nearest part.
    """
    alos, ahis = a._los, a._his
    blos, bhis = b._los, b._his
    na, nb = len(alos), len(blos)
    best = 0.0
    j = 0  # B parts starting at or before the current endpoint of A
    for lo, hi in zip(alos, ahis):
        for x in (lo, hi):
            while j < nb and blos[j] <= x:
                j += 1
            d = _dist_around(x, blos, bhis, j)
            if d > best:
                best = d
    i = 0  # A parts starting at or before the current midpoint
    for k in range(1, nb):
        m = 0.5 * (bhis[k - 1] + blos[k])
        while i < na and alos[i] <= m:
            i += 1
        if i and ahis[i - 1] >= m:  # m lies in A
            d = _dist_around(m, blos, bhis, k)
            if d > best:
                best = d
    return best


def hausdorff(a: IntervalUnion, b: IntervalUnion) -> float:
    """Pompeiu-Hausdorff distance max(e(A,B), e(B,A)); a metric on canonical forms."""
    return max(excess(a, b), excess(b, a))


@dataclass(frozen=True)
class Domain:
    """The ambient complete metric space: a real interval with d(x,y) = |x-y|."""

    bounds: Interval

    def __post_init__(self) -> None:
        if not self.bounds.lo < self.bounds.hi:
            raise ValueError("a domain needs strictly positive width")

    def grid(self, n: int) -> np.ndarray:
        if n < 2:
            raise ParameterRangeError(f"a domain grid needs at least 2 points, got {n}")
        return np.linspace(self.bounds.lo, self.bounds.hi, n)

    def contains(self, x: float, tol: float = AMBIENT_TOL) -> bool:
        return self.bounds.contains(x, tol)

    @property
    def width(self) -> float:
        return self.bounds.width

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

A union's state is its endpoint tuples ``_los`` and ``_his``; its parts are
built as ``Interval`` objects only when a caller reads ``parts``.  Because
the parts are sorted, a point's nearest part is one of the two parts around
it, and every functional reads the endpoint tuples:

* ``dist_point_to_set`` and ``nearest_point`` bisect the part starts,
  O(log |A|);
* ``gap`` bisects B's part ends for each part of A, starting where the
  previous search ended, O(|A| log |B|);
* ``excess`` walks A's endpoints and B's gap midpoints in ascending order
  with a pointer into the other union that only moves right, O(|A| + |B|).

Each takes the same float expressions over fewer candidates than a scan of
all parts would, and fl(x - c) is monotone in c, so the values are those of
the all-pairs scan bit for bit (``tests/oracles.py`` keeps that scan).

``normalize`` and ``excess`` have two paths: a loop over floats, and a
numpy path of a fixed dozen or two numpy calls.  ``normalize`` loops over a
list (converting a list to an array costs about as much per item) and takes
the numpy path on an array, sorting with np.lexsort and merging with a
running maximum (``_normalize_ends``).  ``excess`` takes the numpy path from
``VECTOR_MIN_PARTS`` parts in |A| + |B| on, where the two cost the same on
unions like the benchmark's, with np.searchsorted on endpoint arrays that
each union builds once (``_array``).  Both paths compute the same
expressions on the same candidates and break ties the loop's way, 0.0
against -0.0 included, so they agree bit for bit (``tests/oracles.py`` keeps
normalize's merging loop).

Degenerate point intervals are first-class: singletons {x} appear as
targets of every convergence statement in the rest of the library.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (EmptySetError, ParameterRangeError, SchemaError, is_json_pair,
                     json_field, json_keys)

#: Canonicalization constant: parts whose gap is <= MERGE_EPS are merged.
MERGE_EPS = 1e-12

#: Slack used when checking containment in an ambient interval.
AMBIENT_TOL = 1e-9

#: excess of two unions with at least this many parts between them takes the
#: numpy path; below it the loops are faster.
VECTOR_MIN_PARTS = 20

_set = object.__setattr__  # writes the slots of an immutable IntervalUnion


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


class IntervalUnion:
    """Nonempty compact subset of R as a sorted disjoint union of intervals.

    ``ambient``, when present, is the surrounding space X; every part must
    lie inside it (up to ``AMBIENT_TOL`` of floating-point slack).  Instances
    are immutable; ==, hash and repr are those of (parts, ambient).
    """

    __slots__ = ("_los", "_his", "ambient", "_parts", "_arr")

    def __init__(self, parts: Iterable[Interval], ambient: Interval | None = None) -> None:
        parts = tuple(parts)
        self._init(tuple([p.lo for p in parts]), tuple([p.hi for p in parts]), ambient)
        _set(self, "_parts", parts)

    @classmethod
    def _from_ends(cls, los: tuple, his: tuple,
                   ambient: Interval | None = None) -> "IntervalUnion":
        """The union of the parts [los[i], his[i]], checked as the constructor checks."""
        self = object.__new__(cls)
        self._init(los, his, ambient)
        return self

    def _init(self, los: tuple, his: tuple, ambient: Interval | None) -> None:
        if not los:
            raise EmptySetError("an interval union needs at least one part")
        if not _canonical(los, his):
            for lo, hi in zip(los, his):
                Interval(lo, hi)  # raises for a non-finite or reversed part
            raise ValueError("parts must be strictly sorted and separated; build via normalize()")
        if ambient is not None and (los[0] < ambient.lo - AMBIENT_TOL
                                    or his[-1] > ambient.hi + AMBIENT_TOL):
            raise ValueError("parts escape the ambient interval")
        _set(self, "_los", los)
        _set(self, "_his", his)
        _set(self, "ambient", ambient)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self)._from_ends, (self._los, self._his, self.ambient)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._los, self._his, self.ambient) == (other._los, other._his, other.ambient)

    def __hash__(self) -> int:  # hash((parts, ambient)), as an Interval hashes as (lo, hi)
        return hash((tuple(zip(self._los, self._his)), self.ambient))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(parts={self.parts!r}, ambient={self.ambient!r})"

    @property
    def parts(self) -> tuple[Interval, ...]:
        """The parts as Interval objects, built from the endpoints on the first read."""
        try:
            return self._parts
        except AttributeError:
            _set(self, "_parts", tuple(map(Interval, self._los, self._his)))
            return self._parts

    def _array(self) -> np.ndarray:
        """[-inf, *his, *los, inf], read-only: the numpy paths slice the ends,
        with or without a sentinel, from it."""
        try:
            return self._arr
        except AttributeError:
            arr = np.array((-math.inf, *self._his, *self._los, math.inf))
            arr.flags.writeable = False
            _set(self, "_arr", arr)
            return arr

    @classmethod
    def singleton(cls, x: float, ambient: Interval | None = None) -> "IntervalUnion":
        return cls._from_ends((x,), (x,), ambient)

    @property
    def hull(self) -> Interval:
        return Interval(self._los[0], self._his[-1])

    def to_json(self) -> dict:
        return {"parts": [[lo, hi] for lo, hi in zip(self._los, self._his)]}


def _canonical(los: tuple, his: tuple) -> bool:
    """Whether every part has finite ends lo <= hi and starts more than
    MERGE_EPS after the part before it ends; a NaN fails a comparison."""
    prev = -math.inf
    for lo, hi in zip(los, his):
        if not prev < lo <= hi:
            return False
        prev = hi + MERGE_EPS
    return prev < math.inf


def normalize(raw: Iterable[Interval | Sequence[float]],
              ambient: Interval | None = None) -> IntervalUnion:
    """Canonical sorted disjoint form covering exactly the same point set.

    Intervals whose gap is <= MERGE_EPS are merged into one part.  ``raw`` may
    also be an (n, 2) array of [lo, hi] rows, which takes the numpy path.
    """
    if isinstance(raw, np.ndarray):
        return _normalize_ends(raw, ambient)
    ends: list[tuple] = []
    for entry in raw:
        if isinstance(entry, Interval):
            ends.append((entry.lo, entry.hi))
        else:
            lo, hi = map(float, entry)
            if not -math.inf < lo <= hi < math.inf:
                Interval(lo, hi)  # raises Interval's ValueError
            ends.append((lo, hi))
    if not ends:
        raise EmptySetError("normalize() needs at least one interval")
    ends.sort()
    los, his = [ends[0][0]], [ends[0][1]]
    for lo, hi in ends[1:]:
        if lo <= his[-1] + MERGE_EPS:
            if hi > his[-1]:  # max(his[-1], hi) keeps the first of equal values
                his[-1] = hi
        else:
            los.append(lo)
            his.append(hi)
    return IntervalUnion._from_ends(tuple(los), tuple(his), ambient)


def _normalize_ends(raw, ambient: Interval | None) -> IntervalUnion:
    """normalize's loop on an array of [lo, hi] rows, bit for bit.

    A stable sort by (lo, hi) orders ties as the loop's sort does.  A part
    starts where lo exceeds the largest hi before it plus MERGE_EPS: earlier
    parts all end below the current one's first hi, so that running maximum
    is the loop's ``his[-1]``.  Each part ends at the largest hi of its run;
    the loop's ``max`` keeps the first of equal values, which only shows in
    the sign of a zero, and np.maximum may keep either.
    """
    ends = np.asarray(raw, dtype=float)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError(f"normalize() needs [lo, hi] pairs, got an array of shape {ends.shape}")
    if not len(ends):
        raise EmptySetError("normalize() needs at least one interval")
    los, his = ends[:, 0], ends[:, 1]
    if not (np.isfinite(ends).all() and (los <= his).all()):
        i = int(np.argmin(np.isfinite(ends).all(axis=1) & (los <= his)))
        Interval(float(los[i]), float(his[i]))  # raises the loop's ValueError
    order = np.lexsort((his, los))
    los, his = los[order], his[order]
    start = np.empty(len(los), dtype=bool)
    start[0] = True
    np.greater(los[1:], np.maximum.accumulate(his)[:-1] + MERGE_EPS, out=start[1:])
    first = start.nonzero()[0]
    tops = np.maximum.reduceat(his, first)
    if not tops.all():  # one part ends at zero: tops ascend strictly
        k = int(np.argmin(tops != 0.0))
        run = his[first[k]:]
        tops[k] = run[np.argmax(run == 0.0)]
    return IntervalUnion._from_ends(tuple(los[first].tolist()), tuple(tops.tolist()), ambient)


def set_from_json(obj: object, ambient: Interval | None = None) -> IntervalUnion:
    """Parse ``{"parts": [[lo, hi], ...]}``, re-normalizing; reject bad shapes."""
    json_keys(obj, ("parts",), "set")
    parts = json_field(obj, "parts", lambda v: isinstance(v, list) and v != []
                       and all(map(is_json_pair, v)), "a nonempty list of [lo, hi]", "set")
    if ambient is not None:
        for part in parts:
            if not all(ambient.contains(v, AMBIENT_TOL) for v in part):
                raise SchemaError(f"set part {part!r} escapes the ambient interval "
                                  f"[{ambient.lo!r}, {ambient.hi!r}]")
    return normalize(parts, ambient)


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
    los, his = a._los, a._his
    i = bisect_right(los, x)
    if i and x <= his[i - 1]:  # x lies in part i - 1
        return x
    if i < len(los) and (not i or los[i] - x < x - his[i - 1]):
        return los[i]
    # fl(x - h) falls as h grows, so the parts left of x whose distance rounds
    # to that of part i - 1 are a run ending there; the leftmost of it wins
    d = x - his[i - 1]
    return his[bisect_left(his, True, 0, i - 1, key=lambda h: x - h <= d)]


def gap(a: IntervalUnion, b: IntervalUnion) -> float:
    """inf distance between the two sets; 0 iff they intersect."""
    blos, bhis = b._los, b._his
    best = math.inf
    j = 0
    for lo, hi in zip(a._los, a._his):
        # the first part of B that ends at or after [lo, hi] starts, and the
        # one before it, are the only candidates; j only moves right
        j = bisect_left(bhis, lo, j)
        for k in range(max(j - 1, 0), min(j + 1, len(bhis))):
            d = max(0.0, lo - bhis[k], blos[k] - hi)
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
    over each, with a pointer into the other union, finds every nearest part;
    from VECTOR_MIN_PARTS parts on, np.searchsorted finds them all at once.
    """
    alos, ahis = a._los, a._his
    blos, bhis = b._los, b._his
    na, nb = len(alos), len(blos)
    if na + nb >= VECTOR_MIN_PARTS:
        return _excess_arrays(a, b)
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


def _excess_arrays(a: IntervalUnion, b: IntervalUnion) -> float:
    """excess from the unions' endpoint arrays: the loops' candidates, with
    every nearest part found by np.searchsorted.

    Where x lies between part j - 1 of B and part j, max(0, lo - x, x - hi)
    is x - hi on the left and lo - x on the right, as values; ends of -inf
    and inf stand in for the missing neighbours of the outermost parts.  A
    gap midpoint m of B lies between the two parts around the gap.
    """
    na, nb = len(a._los), len(b._los)
    ea, eb = a._array(), b._array()
    bh, bl = eb[:nb + 1], eb[nb + 1:]  # -inf and B's his; B's los and inf
    xs = ea[1:-1]  # A's endpoints
    j = bl.searchsorted(xs, side="right")
    best = np.minimum(np.maximum(xs - bh[j], 0.0), bl[j] - xs).max()
    gl, gh = bh[1:-1], bl[1:-1]  # the ends around each gap of B
    m = 0.5 * (gl + gh)
    inside = ea[:na + 1][ea[na + 1:-1].searchsorted(m, side="right")] >= m  # m lies in A
    best = max(best, np.minimum(m - gl, gh - m).max(where=inside, initial=0.0))
    # the loops' best is 0.0 unless some distance is positive
    return float(best) if best > 0.0 else 0.0


def hausdorff(a: IntervalUnion, b: IntervalUnion) -> float:
    """Pompeiu-Hausdorff distance max(e(A,B), e(B,A)); a metric on canonical forms.

    Between two single parts it is max(|lo_a - lo_b|, |hi_a - hi_b|), with
    the excess loops' bits: their other candidates are dominated, because
    fl(c - q) <= fl(c - p) for p <= q, and a zero distance is +0.0 both ways
    (the loops' best starts at +0.0, abs drops the sign).
    """
    if len(a._los) == 1 == len(b._los):
        return max(abs(a._los[0] - b._los[0]), abs(a._his[0] - b._his[0]))
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

"""Multivalued operators T : X -> P_cl(X) with exact set images.

Operators are declarative: the domain is covered by pieces, and on each
piece the value T(x) = [lower(x), upper(x)] is bounded by terms from a
small closed-form catalog

    f(x) = offset + slope*x + coeff*base(x),   base in {x^p, sqrt(x), 1/sqrt(x)}

(affine and constant terms have no base part).  Construction splits the
given pieces where a term turns, as one sign-change routine finds them, so
both boundaries are monotone on every piece and the exact range of f over
any subinterval of a piece is attained at its ends.  That is what makes set
images T(Y) exact rather than sampled: for a connected family of nonempty
intervals the union over x in [u, v] is exactly [min lower, max upper].

The catalog is closed under x -> a*x + b*f(x) + c, which is precisely what
admissible perturbations T_G(x) = {G(x, u) : u in T(x)} with affine
G(x, y) = a*x + b*y + c (the Takahashi combination lam*x + (1-lam)*y being
the convex special case) require.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import groupby
from typing import Union

import numpy as np

from .errors import (
    AxiomViolationError,
    BoundaryOrderError,
    NotSelfMapError,
    OutOfDomainError,
    ParameterRangeError,
    SchemaError,
    is_json_int,
    is_json_number,
    is_json_pair,
    json_field,
    json_keys,
    record,
)
from .intervals import AMBIENT_TOL, Domain, Interval, IntervalUnion, normalize

#: set_image of a set with at least this many parts takes the numpy path;
#: below it the loop over parts and pieces is faster (measured crossover).
IMAGE_VECTOR_MIN_PARTS = 18

#: Tolerance for the self-map requirement T(x) subset of X at construction.
SELF_MAP_SLACK = 1e-9

#: lower(x) may exceed upper(x) by at most this much (float noise): more is
#: rejected at construction, at the minimum of upper - lower on each piece,
#: and raises at eval, where ends within it are swapped.
ORDER_SLACK = 1e-12

_BASES = ("none", "power", "sqrt", "invsqrt")

#: The keys of each term kind in JSON; a const term may give its value as "b".
_TERM_KEYS = {"const": ("kind", "value", "b"), "affine": ("kind", "a", "b"),
              "power": ("kind", "coeff", "p", "slope", "offset"),
              **dict.fromkeys(("sqrt", "invsqrt"), ("kind", "coeff", "slope", "offset"))}


@record
class BoundaryFn:
    """One term of the closed expression catalog, with its interior extrema
    (critical_points); MultivaluedOperator splits pieces there."""

    base: str = "none"
    p: int = 2
    coeff: float = 0.0
    slope: float = 0.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.base not in _BASES:
            raise ValueError(f"unknown base {self.base!r}")
        if self.base == "power" and not (is_json_int(self.p) and self.p >= 1):
            raise ValueError(f"power base needs an integer exponent >= 1, got {self.p!r}")
        if not all(map(math.isfinite, (self.coeff, self.slope, self.offset))):
            raise ValueError(f"term coefficients must be finite, got {self!r}")
        if self.base != "power":  # p is unused there: fix it, so that equal terms compare equal
            object.__setattr__(self, "p", 2)

    # -- evaluation ---------------------------------------------------------
    # value and value_array take the same float steps, so they agree bit for
    # bit: powers by repeated multiplication, 1/sqrt before the coeff

    def value(self, x: float) -> float:
        acc = self.offset + self.slope * x
        if self.coeff == 0.0 or self.base == "none":
            return acc
        if self.base == "power":
            v, k = x, self.p
            while k > 1:
                v, k = v * x, k - 1
        else:
            v = math.sqrt(x) if self.base == "sqrt" else 1.0 / math.sqrt(x)
        return acc + self.coeff * v

    def value_array(self, xs: np.ndarray) -> np.ndarray:
        acc = self.offset + self.slope * xs
        if self.coeff != 0.0 and self.base != "none":
            if self.base == "power":
                v = xs
                for _ in range(self.p - 1):
                    v = v * xs
            else:
                v = np.sqrt(xs) if self.base == "sqrt" else 1.0 / np.sqrt(xs)
            acc = acc + self.coeff * v
        return np.asarray(acc, dtype=float)

    # -- calculus on the catalog -------------------------------------------

    def critical_points(self, lo: float, hi: float) -> list[float]:
        """Interior extrema of the term, more than 1e-12 inside (lo, hi)."""
        return [x for x in _turns(((1.0, self),), lo, hi) if lo + 1e-12 < x < hi - 1e-12]

    def range_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Exact min/max of the term over [lo, hi]."""
        vals = [self.value(lo), self.value(hi)]
        vals.extend(self.value(x) for x in self.critical_points(lo, hi))
        return min(vals), max(vals)

    def min_domain(self) -> tuple[float, bool]:
        """(lowest admissible x, whether that bound is inclusive)."""
        if self.base == "sqrt" and self.coeff != 0.0:
            return 0.0, True
        if self.base == "invsqrt" and self.coeff != 0.0:
            return 0.0, False
        return -math.inf, False

    # -- algebra -------------------------------------------------------------

    def compose_affine(self, a: float, b: float, c: float) -> "BoundaryFn":
        """The term x -> a*x + b*f(x) + c, still inside the catalog."""
        return BoundaryFn(
            base=self.base,
            p=self.p,
            coeff=b * self.coeff,
            slope=a + b * self.slope,
            offset=c + b * self.offset,
        )

    def shifted(self, delta: float) -> "BoundaryFn":
        return BoundaryFn(self.base, self.p, self.coeff, self.slope, self.offset + delta)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        if self.base == "none":
            if self.slope == 0.0:
                return {"kind": "const", "value": self.offset}
            out = {"kind": "affine", "a": self.slope}
            if self.offset != 0.0:
                out["b"] = self.offset
            return out
        out = {"kind": self.base, "coeff": self.coeff}
        if self.base == "power":
            out["p"] = self.p
        if self.slope != 0.0:
            out["slope"] = self.slope
        if self.offset != 0.0:
            out["offset"] = self.offset
        return out

    @classmethod
    def from_json(cls, obj: object) -> "BoundaryFn":
        kind = json_field(obj, "kind", lambda v: isinstance(v, str) and v in _TERM_KEYS,
                          f"one of {list(_TERM_KEYS)}", "term")
        json_keys(obj, _TERM_KEYS[kind], "term")
        number = is_json_number, "a number", "term"
        b = float(json_field(obj, "b", *number, 0.0))  # const and affine terms only
        if kind == "const":
            return cls(offset=float(json_field(obj, "value", *number, b)))
        if kind == "affine":
            return cls(slope=float(json_field(obj, "a", *number)), offset=b)
        return cls(base=kind,
                   p=json_field(obj, "p", lambda v: is_json_int(v) and v >= 1,
                                "an integer >= 1", "term", 2),
                   coeff=float(json_field(obj, "coeff", *number, 1.0)),
                   slope=float(json_field(obj, "slope", *number, 0.0)),
                   offset=float(json_field(obj, "offset", *number, 0.0)))


@record
class Piece:
    """One subinterval of the domain with its lower/upper boundary terms.

    Ownership: with s_i the start of piece i, piece i owns [s_i, s_{i+1}) and
    the last piece its closed sub-interval, so a junction belongs to the
    piece on its right.  MultivaluedOperator keeps the cuts s_1, s_2, ...,
    +inf as ``_cuts`` (piece i owns x iff exactly i cuts are <= x), and
    eval, eval_grid, set_image and the fixed-point scan read them.
    """

    sub: Interval
    lower: BoundaryFn
    upper: BoundaryFn


def _check_order(xs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise BoundaryOrderError where lower exceeds upper beyond ORDER_SLACK."""
    bad = lo > hi + ORDER_SLACK
    if bad.any():
        i = int(np.argmax(bad))
        raise BoundaryOrderError(
            f"lower boundary exceeds upper at x={float(xs[i])!r} by "
            f"{float(lo[i] - hi[i])!r}, beyond the slack {ORDER_SLACK!r}")


def _clamp(v: np.ndarray, b: Interval) -> np.ndarray:
    """Interval.clamp elementwise: v itself when it lies in b, else a copy with
    the ends put in.  np.copyto under b.lo > v and b.hi < v keeps the choice of
    Python's max and min, which np.maximum and np.minimum do not make between
    0.0 and -0.0."""
    if not v.size or (v.min() >= b.lo and v.max() <= b.hi):
        return v
    v = v.copy()
    np.copyto(v, b.lo, where=b.lo > v)
    np.copyto(v, b.hi, where=b.hi < v)
    return v


def _negative(x: float, q: list[tuple[int, float]], half: bool) -> bool:
    """sum(c*s^k) over q (every k >= 0) < 0 at s = sqrt(x) if half, else s = x;
    summed over |s|^top when |s| > 1, so that no power overflows."""
    s = math.sqrt(x) if half else x
    top = q[-1][0] if abs(s) > 1.0 else 0
    v = math.fsum(c * s ** (k - top) for k, c in q)
    return (v < 0.0) != (s < 0.0 and top % 2 == 1)


def _sign_changes(terms: list[tuple[int, float]], lo: float, hi: float,
                  half: bool) -> list[float]:
    """The x in (lo, hi), sorted, where sum(c*s^e) over terms (sorted by e,
    every c nonzero) changes sign, with s = sqrt(x) if half, else s = x.

    The sum is s^e0 * q(s): it changes sign at 0 iff e0 is odd, and where q
    does.  Two monomials give s^d = r in closed form; with more, q changes
    sign at most once between sign changes of q', which has one monomial
    fewer, and is halved there to adjacent floats."""
    e0 = terms[0][0] if terms else 0
    q = [(e - e0, c) for e, c in terms]
    out = [0.0] if e0 % 2 and lo < 0.0 < hi else []
    if len(q) == 2:
        (_, c0), (d, c1) = q
        r = -c0 / c1
        if half:  # x = s^2 = r^(2/d); r ** 2.0 is not always r * r
            out += [r * r if d == 1 else r ** (2.0 / d)] if r > 0.0 else []
        elif d % 2:
            out.append(math.copysign(abs(r) ** (1.0 / d), r))
        elif r > 0.0:
            root = r ** (1.0 / d)
            out += [root, -root]
    elif len(q) > 2:
        m = max(abs(c) for _, c in q)  # scaled to |c| <= 1, so that no sum or k * c overflows
        q = [(k, c / m) for k, c in q]
        stops = [lo, *_sign_changes([(k - 1, k * c) for k, c in q[1:] if c], lo, hi, half), hi]
        for a, b in zip(stops, stops[1:]):
            if (at_a := _negative(a, q, half)) != _negative(b, q, half):
                while a < (mid := 0.5 * (a + b)) < b:
                    a, b = (mid, b) if _negative(mid, q, half) == at_a else (a, mid)
                out.append(a)
    return sorted(x for x in out if lo < x < hi)


def _turns(fns: tuple[tuple[float, BoundaryFn], ...], lo: float, hi: float) -> list[float]:
    """The x in (lo, hi) where sum(sign * fn) over fns turns: where its
    derivative in s changes sign, a sum of c*s^e, with s = sqrt(x) when a
    sqrt or 1/sqrt part occurs, else s = x."""
    half = any(fn.base in ("sqrt", "invsqrt") and fn.coeff != 0.0 for _, fn in fns)
    # scaled by a power of two, which is exact, where a sum of up to four
    # coefficients times its exponent (at most 2p) could overflow
    top = max(abs(v) for _, fn in fns for v in (fn.slope, fn.coeff))
    shift = min(0, 1022 - math.frexp(top)[1] - max(2 * fn.p for _, fn in fns).bit_length())
    mono: dict[int, float] = {}  # exponent of s -> coefficient; offsets drop out
    for sign, fn in fns:
        e = 2 if half else 1
        mono[e] = mono.get(e, 0.0) + math.ldexp(sign * fn.slope, shift)
        if fn.coeff != 0.0 and fn.base != "none":
            e = {"power": fn.p * e, "sqrt": 1, "invsqrt": -1}[fn.base]
            mono[e] = mono.get(e, 0.0) + math.ldexp(sign * fn.coeff, shift)
    return _sign_changes(sorted((e - 1, e * c) for e, c in mono.items() if c != 0.0),
                         lo, hi, half)


def _worst_order_point(lower: BoundaryFn, upper: BoundaryFn, lo: float, hi: float) -> float:
    """The x of [lo, hi] where lower - upper is largest: an end or a turn of upper - lower."""
    return max([lo, hi, *_turns(((1.0, upper), (-1.0, lower)), lo, hi)],
               key=lambda x: lower.value(x) - upper.value(x))


@record
class MultivaluedOperator:
    """Piecewise-monotone description of x -> [lower(x), upper(x)].

    Construction decides the piece layout: the given pieces must cover the
    domain up to 1e-9 at its ends and meet exactly at inner junctions
    (p1.sub.hi == p2.sub.lo); adjacent pieces with the same terms merge, the
    outer ends snap to the domain's, and each run is split at the interior
    extrema of its terms, so both boundaries are monotone on every piece,
    each junction owned by the piece on its right (see Piece).  Each piece
    must have its terms defined, lower <= upper up to ORDER_SLACK at the
    minimum of upper - lower (a piece end or a sign change of its
    derivative), and all values inside the domain (self-map) up to
    SELF_MAP_SLACK.  Both checks evaluate the terms at finitely many points
    found by _sign_changes, and take no samples.
    """

    domain: Domain
    pieces: tuple[Piece, ...]
    name: str = ""

    def __post_init__(self) -> None:
        given = tuple(self.pieces)
        if not given:
            raise ValueError("an operator needs at least one piece")
        b = self.domain.bounds
        if abs(given[0].sub.lo - b.lo) > 1e-9 or abs(given[-1].sub.hi - b.hi) > 1e-9:
            raise ValueError("pieces must cover the domain exactly")
        for p1, p2 in zip(given, given[1:]):
            if p1.sub.hi != p2.sub.lo:
                raise ValueError("pieces must be contiguous with disjoint interiors")
        # one run per group of adjacent pieces with the same terms, its ends
        # put in X and the outer ones snapped to X's; _term_runs keeps (lower,
        # upper, columns) of each run, so that set_image and eval_grid
        # evaluate its terms once
        pieces, runs, j = [], [], 0
        for (lower, upper), run in groupby(given, key=lambda pc: (pc.lower, pc.upper)):
            k = j + len(list(run))
            lo = b.clamp(given[j].sub.lo) if j else b.lo
            hi = b.clamp(given[k - 1].sub.hi) if k < len(given) else b.hi
            crits = {*lower.critical_points(lo, hi), *upper.critical_points(lo, hi)}
            edges = [lo, *sorted(crits), hi]  # a list keeps a zero-width run
            runs.append((lower, upper, slice(len(pieces), len(pieces) + len(edges) - 1)))
            pieces += [Piece(Interval(u, v), lower, upper) for u, v in zip(edges, edges[1:])]
            j = k
        for pc in pieces:
            self._validate_piece(pc)
        object.__setattr__(self, "pieces", tuple(pieces))
        object.__setattr__(self, "_cuts", tuple(pc.sub.lo for pc in pieces[1:]) + (math.inf,))
        object.__setattr__(self, "_sub_ends", np.array([[pc.sub.lo for pc in pieces],
                                                        [pc.sub.hi for pc in pieces]]))
        object.__setattr__(self, "_term_runs", tuple(runs))
        object.__setattr__(self, "_grids", {})

    def _validate_piece(self, pc: Piece) -> None:
        lo, hi = pc.sub.lo, pc.sub.hi
        for fn in (pc.lower, pc.upper):
            mlo, inclusive = fn.min_domain()
            if lo < mlo or (lo == mlo and not inclusive):
                raise ValueError(
                    f"term {fn.to_json()} undefined on piece [{lo}, {hi}]")
        x = _worst_order_point(pc.lower, pc.upper, lo, hi)
        if pc.lower.value(x) - pc.upper.value(x) > ORDER_SLACK:
            raise ValueError(
                f"lower boundary exceeds upper at x={x!r} on piece [{lo}, {hi}]")
        # both boundaries are monotone, so their ranges are taken at the ends
        b = self.domain.bounds
        ends = [fn.value(x) for fn in (pc.lower, pc.upper) for x in (lo, hi)]
        if min(ends) < b.lo - SELF_MAP_SLACK or max(ends) > b.hi + SELF_MAP_SLACK:
            raise NotSelfMapError(
                f"operator is not a self-map: values of piece [{lo}, {hi}] escape "
                f"[{b.lo}, {b.hi}]")

    # -- evaluation -----------------------------------------------------------

    def eval(self, x: float) -> IntervalUnion:
        """T(x) = [lower(x), upper(x)] of the piece containing x."""
        b = self.domain.bounds
        if not b.contains(x, AMBIENT_TOL):
            raise OutOfDomainError(f"x={x!r} outside operator domain [{b.lo}, {b.hi}]")
        x = b.clamp(x)
        pc = self.pieces[bisect_right(self._cuts, x)]
        lo = pc.lower.value(x)
        hi = pc.upper.value(x)
        if hi < lo:
            _check_order(np.array([x]), np.array([lo]), np.array([hi]))
            lo, hi = hi, lo
        return IntervalUnion._from_ends((b.clamp(lo),), (b.clamp(hi),), ambient=b)

    def eval_grid(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (lo, hi) of T(x) for every x in xs, bit for bit those of eval,
        as fresh arrays.

        Each run of adjacent pieces with the same terms is evaluated once, on
        the xs whose piece index falls in it.  The clamps into X copy only
        where a min/max check finds a value outside X; otherwise they are the
        identity, the sign of a zero included.
        """
        b = self.domain.bounds
        xs = np.asarray(xs, dtype=float)
        if xs.size and not (xs.min() >= b.lo - AMBIENT_TOL and xs.max() <= b.hi + AMBIENT_TOL):
            inside = (xs >= b.lo - AMBIENT_TOL) & (xs <= b.hi + AMBIENT_TOL)
            raise OutOfDomainError(f"x={float(xs[np.argmin(inside)])!r} outside operator "
                                   f"domain [{b.lo}, {b.hi}]")
        xs = _clamp(xs, b)
        idx = np.searchsorted(self._cuts, xs, side="right")
        lo, hi = np.empty_like(xs), np.empty_like(xs)
        for lower, upper, cols in self._term_runs:
            sel = (idx >= cols.start) & (idx < cols.stop)
            x = xs[sel]
            lo[sel], hi[sel] = lower.value_array(x), upper.value_array(x)
        swap = hi < lo
        if swap.any():
            _check_order(xs, lo, hi)
            lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
        return _clamp(lo, b), _clamp(hi, b)

    def grid_values(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xs, lo, hi): xs = domain.grid(n) and (lo, hi) = eval_grid(xs),
        computed on first use and kept on the operator, so every call returns
        the same read-only arrays.  paired_values reads another operator at
        this grid."""
        table = self._grids.get(n)
        if table is None:
            xs = self.domain.grid(n)
            table = (xs, *self.eval_grid(xs))
            for a in table:
                a.flags.writeable = False
            self._grids[n] = table
        return table

    def set_image(self, y: IntervalUnion) -> IntervalUnion:
        """The closure of T(Y) = union of T(y) over y in Y, exactly.

        Each piece contributes its overlap with Y less the cut that the next
        piece owns (see Piece), so a part that starts at a junction gets no
        value of the left piece; an overlap [u, s) that ends at the cut s
        contributes the closed range on [u, s].

        Construction splits the pieces at the extrema of their terms and puts
        them inside X, so a part is clipped to each piece only, both
        boundaries are monotone on every subinterval [u, v] of a piece, and
        their ranges there are taken at u and v.  A set of at least
        IMAGE_VECTOR_MIN_PARTS parts takes these ranges for all parts and
        pieces at once from numpy arrays, bit for bit those of the loop.
        """
        b = self.domain.bounds
        los, his = y._los, y._his
        if los[0] < b.lo - AMBIENT_TOL or his[-1] > b.hi + AMBIENT_TOL:
            raise OutOfDomainError(
                f"set {y.to_json()} escapes operator domain [{b.lo}, {b.hi}]")
        if len(los) >= IMAGE_VECTOR_MIN_PARTS:
            return normalize(self._image_ends(y), ambient=b)
        x_lo, x_hi = b.lo, b.hi
        out = []
        for a, z in zip(los, his):
            for pc, cut in zip(self.pieces, self._cuts):
                u = max(a, pc.sub.lo)
                v = min(z, pc.sub.hi)
                if u >= v and (u > v or u == cut):  # no overlap, or a point the next piece owns
                    continue
                lo = min(pc.lower.value(u), pc.lower.value(v))
                hi = max(lo, max(pc.upper.value(u), pc.upper.value(v)))
                out.append((min(max(lo, x_lo), x_hi), min(max(hi, x_lo), x_hi)))  # b.clamp
        return normalize(out, ambient=b)

    def _image_ends(self, y: IntervalUnion) -> np.ndarray:
        """The intervals of set_image's loop as the rows of an (n, 2) array, in
        the loop's order, from (part, piece) arrays.

        Python's max(p, q) is q only if q > p, and min(p, q) is q only if
        q < p.  np.copyto under those masks keeps that choice, which
        np.maximum and np.minimum do not make between 0.0 and -0.0.
        """
        b = self.domain.bounds
        sub_lo, sub_hi = self._sub_ends
        n, m = len(y._los), len(self.pieces)
        y_ends = y._array()
        # uv[0] and uv[1]: max(a, sub.lo) and min(z, sub.hi) for each part [a, z] and piece
        uv = np.empty((2, n, m))
        uv[0] = y_ends[n + 1:-1, None]
        uv[1] = y_ends[1:n + 1, None]
        np.copyto(uv[0], sub_lo, where=sub_lo > uv[0])
        np.copyto(uv[1], sub_hi, where=sub_hi < uv[1])
        hit = (uv[0] <= uv[1]) & (uv[0] < self._cuts)
        # a part that misses a piece is evaluated inside it, then dropped
        np.copyto(uv[0], sub_hi, where=uv[0] > sub_hi)
        np.copyto(uv[1], sub_lo, where=uv[1] < sub_lo)
        low, upp = np.empty_like(uv), np.empty_like(uv)
        for lower, upper, cols in self._term_runs:
            low[:, :, cols] = lower.value_array(uv[:, :, cols])
            upp[:, :, cols] = upper.value_array(uv[:, :, cols])
        ends = np.empty((n, m, 2))
        lo, hi = ends[:, :, 0], ends[:, :, 1]
        lo[...] = low[0]
        np.copyto(lo, low[1], where=low[1] < low[0])
        np.copyto(upp[0], upp[1], where=upp[1] > upp[0])
        hi[...] = upp[0]
        np.copyto(hi, lo, where=upp[0] <= lo)
        np.putmask(ends, ends < b.lo, b.lo)  # Interval.clamp
        np.putmask(ends, ends > b.hi, b.hi)
        return ends[hit]

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "domain": [self.domain.bounds.lo, self.domain.bounds.hi],
            "pieces": [
                {"sub": [pc.sub.lo, pc.sub.hi],
                 "lower": pc.lower.to_json(),
                 "upper": pc.upper.to_json()}
                for pc in self.pieces
            ],
        }

    @classmethod
    def from_json(cls, obj: object, name: str = "") -> "MultivaluedOperator":
        json_keys(obj, ("domain", "pieces"), "operator")
        dom = json_field(obj, "domain", is_json_pair, "[lo, hi] with lo <= hi", "operator")
        pieces = []
        for pj in json_field(obj, "pieces", lambda v: isinstance(v, list) and v != [],
                             "a nonempty list", "operator"):
            json_keys(pj, ("sub", "lower", "upper"), "piece")
            a, b = json_field(pj, "sub", is_json_pair, "[a, b] with a <= b", "piece")
            terms = [BoundaryFn.from_json(json_field(pj, k, lambda v: isinstance(v, dict),
                                                     "a term object", "piece"))
                     for k in ("lower", "upper")]
            pieces.append(Piece(Interval(float(a), float(b)), *terms))
        try:
            return cls(Domain(Interval(float(dom[0]), float(dom[1]))), tuple(pieces), name=name)
        except ValueError as exc:
            raise SchemaError(f"invalid operator: {exc}") from exc


def paired_values(t: MultivaluedOperator, f: MultivaluedOperator,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of F(x) at each x of T's grid t.grid_values(n)[0].

    An F on the same X as T (equal bounds, the same Domain object or not)
    reads its own grid table.  An F on another X is evaluated at T's grid on
    each call, with eval_grid's values and errors.
    """
    if f.domain == t.domain:
        return f.grid_values(n)[1:]
    return f.eval_grid(t.grid_values(n)[0])


# -- functionals of single-interval values ---------------------------------------
# Catalog values are single intervals [lo, hi]; on eval_grid's arrays these
# closed forms equal dist_point_to_set and hausdorff bit for bit.


def dist_to_value(x, lo, hi, out=None, tmp=None):
    """D(x, [lo, hi]) = max(0, lo - x, x - hi), elementwise, into out if given,
    with x - hi formed in tmp if given."""
    out = np.asarray(np.subtract(lo, x, out=out), dtype=float)
    return np.maximum(0.0, np.maximum(out, np.subtract(x, hi, out=tmp), out=out), out=out)[()]


def hausdorff_to_point(lo, hi, p):
    """H([lo, hi], {p}) = max(|lo - p|, |hi - p|), elementwise."""
    return np.maximum(np.abs(lo - p), np.abs(hi - p))


def hausdorff_between_values(lo1, hi1, lo2, hi2, out=None, tmp=None):
    """H([lo1, hi1], [lo2, hi2]) = max(|lo1 - lo2|, |hi1 - hi2|), elementwise,
    into out if given, with |hi1 - hi2| formed in tmp if given."""
    out = np.asarray(np.subtract(lo1, lo2, out=out), dtype=float)
    return np.maximum(np.abs(out, out=out), np.abs(np.subtract(hi1, hi2, out=tmp), out=tmp),
                      out=out)[()]


# -- perturbations --------------------------------------------------------------


@record
class Takahashi:
    """Convex-combination perturbation G(x, y) = lam*x + (1-lam)*y, lam in (0, 1)."""

    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ParameterRangeError(
                f"Takahashi parameter must lie strictly inside (0, 1), got {self.lam}")

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return (self.lam, 1.0 - self.lam, 0.0)

    def to_json(self) -> dict:
        return {"kind": "takahashi", "lam": self.lam}


@record
class GeneralG:
    """General affine perturbation G(x, y) = a*x + b*y + c.

    Within the term catalog any G satisfying the admissibility identity
    G(x, x) = x for all x is necessarily affine with a + b = 1 and c = 0;
    arbitrary coefficients are accepted here so that the axiom checker can
    exhibit failures.
    """

    a: float
    b: float
    c: float = 0.0

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def to_json(self) -> dict:
        return {"kind": "general", "a": self.a, "b": self.b, "c": self.c}


PerturbationSpec = Union[Takahashi, GeneralG]


def perturbation_from_json(obj: object) -> PerturbationSpec:
    kind = json_field(obj, "kind", lambda v: v in ("takahashi", "general"),
                      "'takahashi' or 'general'", "perturbation")
    if kind == "takahashi":
        json_keys(obj, ("kind", "lam"), "perturbation")
        return Takahashi(float(json_field(obj, "lam", lambda v: is_json_number(v) and 0 < v < 1,
                                          "a number strictly inside (0, 1)", "perturbation")))
    json_keys(obj, ("kind", "a", "b", "c"), "perturbation")
    return GeneralG(*(float(json_field(obj, k, is_json_number, "a number", "perturbation", 0.0))
                      for k in ("a", "b", "c")))


@record
class AxiomReport:
    """Result of the closed-form check of the admissibility axioms."""

    passes: bool
    max_identity_dev: float
    witness: tuple[float, float] | None


def check_perturbation_axioms(spec: PerturbationSpec, dom: Domain) -> AxiomReport:
    """Decide G(x,x) = x and (G(x,y) = x => y = x) on X for affine G.

    |G(x,x) - x| = |(a+b-1)x + c| is affine in x, so its maximum over X is
    attained at an endpoint.  Given the identity, G(x,y) - x = b(y - x), so
    the second axiom holds iff b != 0.  Passes iff the maximum is below 1e-12
    and b != 0; when only b = 0 fails, the witness is the pair of domain
    endpoints (G(lo, hi) = lo with hi != lo), otherwise it is None.
    """
    a, b, c = spec.coefficients
    lo, hi = dom.bounds.lo, dom.bounds.hi
    dev = max(abs(a * x + b * x + c - x) for x in (lo, hi))
    identity = dev < 1e-12
    witness = (lo, hi) if identity and b == 0.0 else None
    return AxiomReport(identity and b != 0.0, dev, witness)


def perturb(t: MultivaluedOperator, spec: PerturbationSpec) -> MultivaluedOperator:
    """The admissible perturbation T_G(x) = {G(x, u) : u in T(x)}.

    For affine G(x, y) = a*x + b*y + c each boundary term maps into the
    catalog via compose_affine, one piece per piece of T; construction merges
    and splits them at the extrema of the composed boundaries (see
    MultivaluedOperator).  An admissible G can still carry values out of X;
    that raises NotSelfMapError, naming the perturbation.
    """
    report = check_perturbation_axioms(spec, t.domain)
    if not report.passes:
        raise AxiomViolationError(
            f"perturbation {spec.to_json()} violates admissibility axioms: "
            f"max |G(x,x)-x| = {report.max_identity_dev:.3e}, witness = {report.witness}")
    a, b, c = spec.coefficients
    if isinstance(spec, Takahashi):
        label = f"takahashi({spec.lam:g})"
    else:
        label = f"general({a:g},{b:g},{c:g})"

    def ends(pc: Piece) -> tuple[BoundaryFn, BoundaryFn]:
        low, upp = pc.lower.compose_affine(a, b, c), pc.upper.compose_affine(a, b, c)
        return (upp, low) if b < 0.0 else (low, upp)
    return _remap(t, ends, f"|{label}", f"perturbation {spec.to_json()}")


def _remap(t: MultivaluedOperator, ends, suffix: str, what: str) -> MultivaluedOperator:
    """T with each piece's (lower, upper) replaced by ends(piece), named T's name
    + suffix; a NotSelfMapError names what was done to T."""
    pieces = tuple(Piece(pc.sub, *ends(pc)) for pc in t.pieces)
    base_name = t.name or "operator"
    try:
        return MultivaluedOperator(t.domain, pieces, name=base_name + suffix)
    except NotSelfMapError as exc:
        raise NotSelfMapError(f"{what} of {base_name}: {exc}") from exc


# -- built-in operators ----------------------------------------------------------


def square_example() -> MultivaluedOperator:
    """T(x) = [-x^2, x^2] on X = [-8/9, 8/9]; Fix(T) = SFix(T) = {0}."""
    c = 8.0 / 9.0
    lower = BoundaryFn(base="power", p=2, coeff=-1.0)
    upper = BoundaryFn(base="power", p=2, coeff=1.0)
    pieces = (
        Piece(Interval(-c, 0.0), lower, upper),
        Piece(Interval(0.0, c), lower, upper),
    )
    return MultivaluedOperator(Domain(Interval(-c, c)), pieces, name="square_example")


def sqrt_example() -> MultivaluedOperator:
    """T(x) = [1, 1/sqrt(x)] on [1/4, 1), [1, sqrt(x)] on [1, 4]; strict fixed point 1."""
    one = BoundaryFn(offset=1.0)
    pieces = (
        Piece(Interval(0.25, 1.0), one, BoundaryFn(base="invsqrt", coeff=1.0)),
        Piece(Interval(1.0, 4.0), one, BoundaryFn(base="sqrt", coeff=1.0)),
    )
    return MultivaluedOperator(Domain(Interval(0.25, 4.0)), pieces, name="sqrt_example")


BUILTIN_OPERATORS = {
    "square_example": square_example,
    "sqrt_example": sqrt_example,
}


def get_builtin(name: str) -> MultivaluedOperator:
    try:
        factory = BUILTIN_OPERATORS[name]
    except KeyError:
        raise SchemaError(
            f"unknown built-in operator {name!r}; "
            f"available: {sorted(BUILTIN_OPERATORS)}") from None
    return factory()


def constant_operator(dom: Domain, value: float, name: str = "") -> MultivaluedOperator:
    """T(x) = {value}; the simplest operator with a strict fixed point."""
    if not dom.contains(value, 0.0):
        raise OutOfDomainError(f"constant value {value} outside domain")
    term = BoundaryFn(offset=value)
    return MultivaluedOperator(dom, (Piece(dom.bounds, term, term),),
                               name=name or f"const({value:g})")


def shift_operator(t: MultivaluedOperator, delta: float) -> MultivaluedOperator:
    """T(x) + delta (value translation).  Raises NotSelfMapError if the
    self-map property breaks."""
    return _remap(t, lambda pc: (pc.lower.shifted(delta), pc.upper.shifted(delta)),
                  f"+{delta:g}", f"shift by {delta!r}")

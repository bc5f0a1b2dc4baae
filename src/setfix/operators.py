"""Multivalued operators T : X -> P_cl(X) with exact set images.

Operators are declarative: the domain is covered by pieces, and on each
piece the value T(x) = [lower(x), upper(x)] is bounded by terms from a
small closed-form catalog

    f(x) = offset + slope*x + coeff*base(x),   base in {x^p, sqrt(x), 1/sqrt(x)}

(affine and constant terms have no base part).  Every term has analytically
known critical points, so pieces can always be split until both boundaries
are monotone and the exact range of f over any subinterval is attained at
endpoints or interior extrema.  That is what makes set images T(Y) exact
rather than sampled: for a connected family of nonempty intervals the union
over x in [u, v] is exactly [min lower, max upper].

The catalog is closed under x -> a*x + b*f(x) + c, which is precisely what
admissible perturbations T_G(x) = {G(x, u) : u in T(x)} with affine
G(x, y) = a*x + b*y + c (the Takahashi combination lam*x + (1-lam)*y being
the convex special case) require.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from typing import Union

import numpy as np

from .errors import (
    AxiomViolationError,
    BoundaryOrderError,
    OutOfDomainError,
    ParameterRangeError,
    SchemaError,
    is_json_int,
    is_json_number,
    is_json_pair,
    json_field,
    json_keys,
)
from .intervals import AMBIENT_TOL, Domain, Interval, IntervalUnion, normalize

#: set_image of a set with at least this many parts takes the numpy path;
#: below it the loop over parts and pieces is faster (measured crossover).
IMAGE_VECTOR_MIN_PARTS = 12

#: Tolerance for the self-map requirement T(x) subset of X at construction.
SELF_MAP_SLACK = 1e-9

#: lower(x) may exceed upper(x) by at most this much (float noise): more is
#: rejected at construction, at the exact minimum of upper - lower on each
#: piece, and raises at eval, where ends within it are swapped.
ORDER_SLACK = 1e-12

_BASES = ("none", "power", "sqrt", "invsqrt")

#: The keys of each term kind in JSON; a const term may give its value as "b".
_TERM_KEYS = {"const": ("kind", "value", "b"), "affine": ("kind", "a", "b"),
              "power": ("kind", "coeff", "p", "slope", "offset"),
              **dict.fromkeys(("sqrt", "invsqrt"), ("kind", "coeff", "slope", "offset"))}


@dataclass(frozen=True)
class BoundaryFn:
    """One term of the closed expression catalog, monotone after splitting."""

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

    # -- evaluation ---------------------------------------------------------

    def _base(self, x, sqrt):
        # one formula for scalars and arrays, so value and value_array agree bit
        # for bit: powers by repeated multiplication, 1/sqrt before the coeff
        if self.base == "power":
            v = x
            for _ in range(self.p - 1):
                v = v * x
            return v
        if self.base == "sqrt":
            return sqrt(x)
        return 1.0 / sqrt(x)

    def value(self, x: float) -> float:
        acc = self.offset + self.slope * x
        if self.coeff != 0.0 and self.base != "none":
            acc += self.coeff * self._base(x, math.sqrt)
        return acc

    def value_array(self, xs: np.ndarray) -> np.ndarray:
        acc = self.offset + self.slope * xs
        if self.coeff != 0.0 and self.base != "none":
            acc = acc + self.coeff * self._base(xs, np.sqrt)
        return np.asarray(acc, dtype=float)

    # -- calculus on the catalog -------------------------------------------

    def critical_points(self, lo: float, hi: float) -> list[float]:
        """Interior extrema of the term on (lo, hi); analytically exact."""
        pts: list[float] = []
        if self.base == "none" or self.coeff == 0.0:
            return pts
        if self.base == "power":
            p = self.p
            if p == 1:
                return pts
            d = p * self.coeff  # f' = d*x^(p-1) + slope
            if self.slope == 0.0:
                if (p - 1) % 2 == 1:  # even p: sign change at 0
                    pts = [0.0]
            else:
                r = -self.slope / d
                if (p - 1) % 2 == 1:
                    pts = [math.copysign(abs(r) ** (1.0 / (p - 1)), r)]
                elif r > 0.0:
                    root = r ** (1.0 / (p - 1))
                    pts = [root, -root]
        elif self.base == "sqrt":
            # f' = coeff/(2 sqrt x) + slope
            if self.slope != 0.0:
                s = -self.coeff / (2.0 * self.slope)
                if s > 0.0:
                    pts = [s * s]
        elif self.base == "invsqrt":
            # f' = -coeff/(2 x^(3/2)) + slope
            if self.slope != 0.0:
                r = self.coeff / (2.0 * self.slope)
                if r > 0.0:
                    pts = [r ** (2.0 / 3.0)]
        eps = 1e-12
        return sorted(x for x in pts if lo + eps < x < hi - eps)

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


@dataclass(frozen=True)
class Piece:
    """One subinterval of the domain with its lower/upper boundary terms."""

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


def _worst_order_point(lower: BoundaryFn, upper: BoundaryFn, lo: float, hi: float) -> float:
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


@dataclass(frozen=True)
class MultivaluedOperator:
    """Piecewise-monotone description of x -> [lower(x), upper(x)].

    Construction is strict: pieces must cover the domain with disjoint
    interiors, both boundaries must be monotone on every piece (split at
    extrema first), lower <= upper up to ORDER_SLACK at the exact minimum of
    upper - lower, and all values must stay inside the domain (self-map) up
    to SELF_MAP_SLACK.  Both checks evaluate the terms at finitely many
    points taken from the catalog's closed forms, and take no samples.
    """

    domain: Domain
    pieces: tuple[Piece, ...]
    name: str = ""

    def __post_init__(self) -> None:
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise ValueError("an operator needs at least one piece")
        b = self.domain.bounds
        if abs(pieces[0].sub.lo - b.lo) > 1e-9 or abs(pieces[-1].sub.hi - b.hi) > 1e-9:
            raise ValueError("pieces must cover the domain exactly")
        for p1, p2 in zip(pieces, pieces[1:]):
            if abs(p1.sub.hi - p2.sub.lo) > 1e-9:
                raise ValueError("pieces must be contiguous with disjoint interiors")
        for pc in pieces:
            self._validate_piece(pc)
        object.__setattr__(self, "_piece_los", tuple(pc.sub.lo for pc in pieces))
        object.__setattr__(self, "_sub_ends", np.array([[pc.sub.lo for pc in pieces],
                                                        [pc.sub.hi for pc in pieces]]))
        # (lower, upper, columns) of each run of adjacent pieces with the same
        # terms, as splitting at extrema leaves them; set_image evaluates a
        # run's terms once
        runs, j = [], 0
        for (lower, upper), run in groupby(pieces, key=lambda pc: (pc.lower, pc.upper)):
            k = j + len(list(run))
            runs.append((lower, upper, slice(j, k)))
            j = k
        object.__setattr__(self, "_term_runs", tuple(runs))

    def _validate_piece(self, pc: Piece) -> None:
        lo, hi = pc.sub.lo, pc.sub.hi
        for fn in (pc.lower, pc.upper):
            mlo, inclusive = fn.min_domain()
            if lo < mlo or (lo == mlo and not inclusive):
                raise ValueError(
                    f"term {fn.to_json()} undefined on piece [{lo}, {hi}]")
            if fn.critical_points(lo, hi):
                raise ValueError(
                    f"boundary {fn.to_json()} is not monotone on [{lo}, {hi}]; "
                    f"split the piece at its extrema")
        x = _worst_order_point(pc.lower, pc.upper, lo, hi)
        if pc.lower.value(x) - pc.upper.value(x) > ORDER_SLACK:
            raise ValueError(
                f"lower boundary exceeds upper at x={x!r} on piece [{lo}, {hi}]")
        # both boundaries are monotone, so their ranges are taken at the ends
        b = self.domain.bounds
        (l_min, l_max), (u_min, u_max) = pc.lower.range_on(lo, hi), pc.upper.range_on(lo, hi)
        if (min(l_min, u_min) < b.lo - SELF_MAP_SLACK
                or max(l_max, u_max) > b.hi + SELF_MAP_SLACK):
            raise ValueError(
                f"operator is not a self-map: values of piece [{lo}, {hi}] escape "
                f"[{b.lo}, {b.hi}]")

    # -- evaluation -----------------------------------------------------------

    def _piece_index(self, x: float) -> int:
        # left-closed selection: at a shared endpoint the right piece wins
        i = bisect_right(self._piece_los, x) - 1
        return max(i, 0)

    def eval(self, x: float) -> IntervalUnion:
        """T(x) = [lower(x), upper(x)] of the piece containing x."""
        b = self.domain.bounds
        if not b.contains(x, AMBIENT_TOL):
            raise OutOfDomainError(f"x={x!r} outside operator domain [{b.lo}, {b.hi}]")
        x = b.clamp(x)
        pc = self.pieces[self._piece_index(x)]
        lo = pc.lower.value(x)
        hi = pc.upper.value(x)
        if hi < lo:
            _check_order(np.array([x]), np.array([lo]), np.array([hi]))
            lo, hi = hi, lo
        return IntervalUnion((Interval(b.clamp(lo), b.clamp(hi)),), ambient=b)

    def eval_grid(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (lo, hi) of T(x) for every x in xs, bit for bit those of eval."""
        b = self.domain.bounds

        def clamp(v):  # Interval.clamp, signed zeros included
            return np.minimum(np.maximum(v, b.lo), b.hi)

        xs = np.asarray(xs, dtype=float)
        inside = (xs >= b.lo - AMBIENT_TOL) & (xs <= b.hi + AMBIENT_TOL)
        if not inside.all():
            raise OutOfDomainError(f"x={float(xs[np.argmin(inside)])!r} outside operator "
                                   f"domain [{b.lo}, {b.hi}]")
        xs = clamp(xs)
        idx = np.maximum(np.searchsorted(self._piece_los, xs, side="right") - 1, 0)
        lo, hi = np.empty_like(xs), np.empty_like(xs)
        for i, pc in enumerate(self.pieces):
            sel = idx == i
            lo[sel] = pc.lower.value_array(xs[sel])
            hi[sel] = pc.upper.value_array(xs[sel])
        swap = hi < lo
        if swap.any():
            _check_order(xs, lo, hi)
        lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
        return clamp(lo), clamp(hi)

    def set_image(self, y: IntervalUnion) -> IntervalUnion:
        """Exact T(Y) = union of T(y) over y in Y (closure at piece junctions).

        Construction rejects a piece whose boundary has an interior extremum,
        so both boundaries are monotone on every subinterval [u, v] of a
        piece and their ranges there are taken at u and v.  A set of at least
        IMAGE_VECTOR_MIN_PARTS parts takes these ranges for all parts and
        pieces at once from numpy arrays, bit for bit those of the loop.
        """
        b = self.domain.bounds
        if y.parts[0].lo < b.lo - AMBIENT_TOL or y.parts[-1].hi > b.hi + AMBIENT_TOL:
            raise OutOfDomainError(
                f"set {y.to_json()} escapes operator domain [{b.lo}, {b.hi}]")
        if len(y.parts) >= IMAGE_VECTOR_MIN_PARTS:
            return normalize(self._image_ends(y), ambient=b)
        out: list[Interval] = []
        for part in y.parts:
            a = max(part.lo, b.lo)
            z = min(part.hi, b.hi)
            for pc in self.pieces:
                u = max(a, pc.sub.lo)
                v = min(z, pc.sub.hi)
                if u > v:
                    continue
                lo = min(pc.lower.value(u), pc.lower.value(v))
                hi = max(pc.upper.value(u), pc.upper.value(v))
                out.append(Interval(b.clamp(lo), b.clamp(max(lo, hi))))
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
        n, m = len(y.parts), len(self.pieces)
        # uv[0] and uv[1]: max(a, sub.lo) and min(z, sub.hi) for each part and piece
        uv = np.empty((2, n, m))
        uv[0] = np.array(y._los)[:, None]
        uv[1] = np.array(y._his)[:, None]
        if y._los[0] < b.lo:
            np.copyto(uv[0], b.lo, where=b.lo > uv[0])
        if y._his[-1] > b.hi:
            np.copyto(uv[1], b.hi, where=b.hi < uv[1])
        np.copyto(uv[0], sub_lo, where=sub_lo > uv[0])
        np.copyto(uv[1], sub_hi, where=sub_hi < uv[1])
        hit = uv[0] <= uv[1]
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


# -- functionals of single-interval values ---------------------------------------
# Catalog values are single intervals [lo, hi]; on eval_grid's arrays these
# closed forms equal dist_point_to_set and hausdorff bit for bit.


def dist_to_value(x, lo, hi, out=None):
    """D(x, [lo, hi]) = max(0, lo - x, x - hi), elementwise, into out if given."""
    out = np.asarray(np.subtract(lo, x, out=out), dtype=float)
    return np.maximum(0.0, np.maximum(out, x - hi, out=out), out=out)[()]


def hausdorff_to_point(lo, hi, p):
    """H([lo, hi], {p}) = max(|lo - p|, |hi - p|), elementwise."""
    return np.maximum(np.abs(lo - p), np.abs(hi - p))


def hausdorff_between_values(lo1, hi1, lo2, hi2, out=None):
    """H([lo1, hi1], [lo2, hi2]) = max(|lo1 - lo2|, |hi1 - hi2|), elementwise,
    into out if given."""
    out = np.asarray(np.subtract(lo1, lo2, out=out), dtype=float)
    return np.maximum(np.abs(out, out=out), np.abs(hi1 - hi2), out=out)[()]


# -- perturbations --------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    catalog via compose_affine; pieces are re-split at the extrema of the
    composed boundaries so the result keeps the monotone-piece invariant
    and supports exact set images.
    """
    report = check_perturbation_axioms(spec, t.domain)
    if not report.passes:
        raise AxiomViolationError(
            f"perturbation {spec.to_json()} violates admissibility axioms: "
            f"max |G(x,x)-x| = {report.max_identity_dev:.3e}, witness = {report.witness}")
    a, b, c = spec.coefficients
    pieces: list[Piece] = []
    for pc in t.pieces:
        low = pc.lower.compose_affine(a, b, c)
        upp = pc.upper.compose_affine(a, b, c)
        if b < 0.0:
            low, upp = upp, low
        cuts = sorted(set(
            low.critical_points(pc.sub.lo, pc.sub.hi)
            + upp.critical_points(pc.sub.lo, pc.sub.hi)))
        edges = [pc.sub.lo, *cuts, pc.sub.hi]
        for u, v in zip(edges, edges[1:]):
            pieces.append(Piece(Interval(u, v), low, upp))
    if isinstance(spec, Takahashi):
        label = f"takahashi({spec.lam:g})"
    else:
        label = f"general({a:g},{b:g},{c:g})"
    base_name = t.name or "operator"
    return MultivaluedOperator(t.domain, tuple(pieces), name=f"{base_name}|{label}")


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
    """T(x) + delta (value translation).  Raises if the self-map property breaks."""
    pieces = tuple(
        Piece(pc.sub, pc.lower.shifted(delta), pc.upper.shifted(delta))
        for pc in t.pieces)
    return MultivaluedOperator(t.domain, pieces,
                               name=f"{t.name or 'operator'}+{delta:g}")

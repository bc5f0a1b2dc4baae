from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setfix
from setfix import (
    AxiomViolationError,
    BoundaryFn,
    BoundaryOrderError,
    Domain,
    GeneralG,
    Interval,
    MultivaluedOperator,
    OutOfDomainError,
    ParameterRangeError,
    Piece,
    SchemaError,
    Takahashi,
    check_perturbation_axioms,
    dist_point_to_set,
    excess,
    hausdorff,
    normalize,
    perturb,
    perturbation_from_json,
)
from setfix.operators import (
    IMAGE_VECTOR_MIN_PARTS,
    ORDER_SLACK,
    dist_to_value,
    hausdorff_between_values,
    hausdorff_to_point,
)
from oracles import (
    affine_combine,
    brute_set_image,
    catalog_operators,
    random_subunion,
    range_on_set_image,
)


def identity_operator():
    term = BoundaryFn(slope=1.0)
    return MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                               (Piece(Interval(0.0, 1.0), term, term),),
                               name="identity")


class TestEval:
    def test_square_at_half(self, square_t):
        assert square_t.eval(0.5).to_json() == {"parts": [[-0.25, 0.25]]}

    def test_sqrt_low_piece(self, sqrt_t):
        assert sqrt_t.eval(0.25).to_json() == {"parts": [[1.0, 2.0]]}

    def test_sqrt_high_piece(self, sqrt_t):
        assert sqrt_t.eval(4.0).to_json() == {"parts": [[1.0, 2.0]]}

    def test_left_closed_selection_at_junction(self, sqrt_t):
        # x = 1 belongs to the right piece: T(1) = [1, sqrt(1)] = {1}
        assert sqrt_t.eval(1.0).to_json() == {"parts": [[1.0, 1.0]]}

    def test_out_of_domain(self, sqrt_t):
        with pytest.raises(OutOfDomainError):
            sqrt_t.eval(5.0)
        with pytest.raises(OutOfDomainError):
            sqrt_t.eval(0.2)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def _grid_operators() -> list[MultivaluedOperator]:
    ops = [setfix.constant_operator(Domain(Interval(0.0, 1.0)), 0.3)]
    for base in (setfix.sqrt_example(), setfix.square_example()):
        ops.append(base)
        ops.extend(perturb(base, Takahashi(lam)) for lam in (0.05, 0.39, 0.5, 0.75))
    # an odd power, where libm pow and repeated multiplication can disagree
    cubic = BoundaryFn(base="power", p=3, coeff=0.5)
    ops.append(MultivaluedOperator(
        Domain(Interval(-1.0, 1.0)),
        (Piece(Interval(-1.0, 1.0), cubic.shifted(-0.25), cubic.shifted(0.25)),)))
    return ops


class TestEvalGrid:
    def test_bitwise_equal_to_eval(self):
        for t in _grid_operators():
            for n in (101, 2001, 40_001):
                xs = t.domain.grid(n)
                lo, hi = t.eval_grid(xs)
                vals = [t.eval(float(x)).parts for x in xs]
                assert all(len(v) == 1 for v in vals)
                assert np.array_equal(_bits(lo), _bits([v[0].lo for v in vals])), t.name
                assert np.array_equal(_bits(hi), _bits([v[0].hi for v in vals])), t.name

    def test_closed_forms_match_set_functionals(self, sqrt_t, sqrt_tg):
        xs = sqrt_t.domain.grid(1001)
        lo, hi = sqrt_t.eval_grid(xs)
        glo, ghi = sqrt_tg.eval_grid(xs)
        values = [sqrt_t.eval(float(x)) for x in xs]
        g_values = [sqrt_tg.eval(float(x)) for x in xs]
        point = setfix.IntervalUnion.singleton(1.25)
        assert np.array_equal(
            _bits(dist_to_value(xs, lo, hi)),
            _bits([dist_point_to_set(float(x), v) for x, v in zip(xs, values)]))
        assert np.array_equal(
            _bits(hausdorff_to_point(lo, hi, 1.25)),
            _bits([hausdorff(v, point) for v in values]))
        assert np.array_equal(
            _bits(hausdorff_between_values(lo, hi, glo, ghi)),
            _bits([hausdorff(v, w) for v, w in zip(values, g_values)]))

    def test_closed_forms_take_scalars(self, sqrt_t, sqrt_tg):
        point = setfix.IntervalUnion.singleton(1.25)
        for x in sqrt_t.domain.grid(1001).tolist():
            v, w = sqrt_t.eval(x), sqrt_tg.eval(x)
            (lo, hi), (glo, ghi) = (v.parts[0].lo, v.parts[0].hi), (w.parts[0].lo, w.parts[0].hi)
            for got, want in ((dist_to_value(x, lo, hi), dist_point_to_set(x, v)),
                              (hausdorff_to_point(lo, hi, 1.25), hausdorff(v, point)),
                              (hausdorff_between_values(lo, hi, glo, ghi), hausdorff(v, w))):
                assert np.ndim(got) == 0 and _bits(got) == _bits(want), x
        assert dist_to_value(1, 2, 3) == 1.0 and hausdorff_between_values(0, 1, 3, 1) == 3.0

    def test_out_of_domain(self, sqrt_t):
        with pytest.raises(OutOfDomainError):
            sqrt_t.eval_grid(np.array([1.0, 5.0]))


class TestSetImage:
    def test_square_iterate(self, square_t):
        y = normalize([Interval(-0.25, 0.25)])
        assert square_t.set_image(y).to_json() == {"parts": [[-0.0625, 0.0625]]}

    def test_singleton_equals_eval(self, sqrt_t, square_t):
        for op in (sqrt_t, square_t):
            for x in op.domain.grid(101):
                x = float(x)
                img = op.set_image(setfix.IntervalUnion.singleton(x))
                assert img.parts == op.eval(x).parts

    def test_sqrt_full_domain(self, sqrt_t):
        y = normalize([Interval(0.25, 4.0)])
        assert sqrt_t.set_image(y).to_json() == {"parts": [[1.0, 2.0]]}

    def test_matches_brute_force(self, sqrt_t, square_t):
        rng = np.random.default_rng(7)
        for op in (sqrt_t, square_t):
            for _ in range(10):
                y = random_subunion(rng, op.domain.bounds)
                exact = op.set_image(y)
                approx = brute_set_image(op, y, 1e-3)
                assert hausdorff(exact, approx) <= 5e-3

    def test_escaping_set_rejected(self, sqrt_t):
        with pytest.raises(OutOfDomainError):
            sqrt_t.set_image(normalize([Interval(0.0, 1.0)]))

    @pytest.mark.parametrize("n", [1, 2 * IMAGE_VECTOR_MIN_PARTS])
    def test_escape_is_rejected_on_both_paths(self, sqrt_t, n):
        b = sqrt_t.domain.bounds
        inside = [Interval(b.lo + 0.1 * k, b.lo + 0.1 * k + 0.05) for k in range(n - 1)]
        for last in (Interval(b.hi, b.hi + 1e-6), Interval(b.lo - 1e-6, b.lo)):
            with pytest.raises(OutOfDomainError):
                sqrt_t.set_image(normalize(inside + [last]))

    def test_monotone_union_property(self, sqrt_t, square_t):
        rng = np.random.default_rng(11)
        for op in (sqrt_t, square_t):
            for _ in range(20):
                y2 = random_subunion(rng, op.domain.bounds)
                # carve a nonempty sub-union out of y2
                p = y2.parts[0]
                y1 = normalize([Interval(p.lo, p.lo + 0.5 * p.width)])
                assert excess(op.set_image(y1), op.set_image(y2)) == 0.0


@st.composite
def junction_unions(draw, t: MultivaluedOperator,
                    max_parts: int = max(80, 2 * IMAGE_VECTOR_MIN_PARTS)):
    """Unions of 1..max_parts parts in T's domain, on both sides of the part
    count from which set_image takes its array path, whose ends are often
    piece junctions, so parts start, end or sit as points exactly on them; where
    the domain holds 0, ends of 0.0 and -0.0 too."""
    b = t.domain.bounds
    junctions = sorted({b.lo, b.hi, *(pc.sub.lo for pc in t.pieces)})
    if b.lo <= 0.0 <= b.hi:
        junctions += [0.0, -0.0]
    coord = st.one_of(st.sampled_from(junctions), st.floats(b.lo, b.hi))
    n = draw(st.integers(1, max_parts))
    ends = sorted(draw(st.lists(coord, min_size=2 * n, max_size=2 * n)))
    return normalize([Interval(lo, hi) for lo, hi in zip(ends[::2], ends[1::2])], b)


def _builtins_and_perturbations() -> list[MultivaluedOperator]:
    ops = []
    for base, lam in ((setfix.sqrt_example(), 0.75), (setfix.square_example(), 0.5)):
        ops += [base, perturb(base, Takahashi(lam)), perturb(base, Takahashi(0.05))]
    return ops


def _composed_takahashi_gap(t: MultivaluedOperator, lam1: float, lam2: float) -> float:
    """Largest endpoint difference on 10 001 points between T perturbed by lam1
    then lam2 and T perturbed once by 1 - (1-lam1)(1-lam2).  Values, not
    pieces: the twice-perturbed operator keeps splits the direct one needs not."""
    xs = t.domain.grid(10_001)
    twice = perturb(perturb(t, Takahashi(lam1)), Takahashi(lam2))
    once = perturb(t, Takahashi(1.0 - (1.0 - lam1) * (1.0 - lam2)))
    return float(np.max(hausdorff_between_values(*twice.eval_grid(xs), *once.eval_grid(xs))))


class TestSetImageAgainstRangeOn:
    """set_image takes each boundary's range at the ends of [u, v]; the copy
    in oracles asks range_on, which also checks interior extrema, one part
    and one piece at a time."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(_builtins_and_perturbations()), st.data())
    def test_builtins_bit_for_bit(self, t, data):
        y = data.draw(junction_unions(t))
        assert repr(t.set_image(y)) == repr(range_on_set_image(t, y))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(catalog_operators(), st.floats(0.01, 0.99), st.data())
    def test_catalog_operators_bit_for_bit(self, t, lam, data):
        for op in (t, perturb(t, Takahashi(lam))):
            y = data.draw(junction_unions(op))
            assert repr(op.set_image(y)) == repr(range_on_set_image(op, y))

    @pytest.mark.parametrize("n", [2, 2 * IMAGE_VECTOR_MIN_PARTS])
    def test_ends_within_the_slack_outside_the_domain(self, n):
        # pieces may reach up to 1e-9 past the domain, so that a part end is
        # clipped to the domain before it is clipped to a piece
        term = BoundaryFn(slope=0.5, offset=0.25)
        wide = MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                                   (Piece(Interval(-5e-10, 1.0 + 5e-10), term, term),))
        for t in (*_builtins_and_perturbations(), wide):
            b = t.domain.bounds
            xs = np.linspace(b.lo, b.hi, 2 * n).tolist()
            xs[0], xs[-1] = b.lo - 4e-10, b.hi + 4e-10
            y = normalize([Interval(lo, hi) for lo, hi in zip(xs[::2], xs[1::2])])
            assert repr(t.set_image(y)) == repr(range_on_set_image(t, y))

    @pytest.mark.parametrize("n", [1, 2 * IMAGE_VECTOR_MIN_PARTS])
    def test_parts_missing_a_sqrt_piece(self, n):
        # parts left of 0 miss the sqrt piece; sqrt must not see them
        zero = BoundaryFn()
        t = MultivaluedOperator(Domain(Interval(-1.0, 1.0)),
                                (Piece(Interval(-1.0, 0.0), zero, zero),
                                 Piece(Interval(0.0, 1.0), zero, BoundaryFn(base="sqrt", coeff=1.0))))
        y = normalize([Interval(-1.0 + 0.03 * k, -0.99 + 0.03 * k) for k in range(n)])
        assert repr(t.set_image(y)) == repr(range_on_set_image(t, y))

    @pytest.mark.parametrize("n", [1, 2 * IMAGE_VECTOR_MIN_PARTS])
    def test_signed_zero_ends(self, n):
        # with the offset -0.0, T(x) = {x} keeps the sign of a zero x, so an
        # image end shows which of max(-0.0, 0.0) and max(0.0, -0.0) was taken
        term = BoundaryFn(slope=1.0, offset=-0.0)
        t = MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                                (Piece(Interval(0.0, 0.5), term, term),
                                 Piece(Interval(0.5, 1.0), term, term)))
        right = [Interval(0.3 + 0.01 * k, 0.305 + 0.01 * k) for k in range(n - 1)]
        for zero in ((-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, 0.25)):
            y = normalize([Interval(*zero), *right], t.domain.bounds)
            assert repr(t.set_image(y)) == repr(range_on_set_image(t, y))

    def test_every_piece_junction_as_a_point(self):
        for t in _builtins_and_perturbations():
            for pc in t.pieces:
                y = setfix.IntervalUnion.singleton(pc.sub.lo, t.domain.bounds)
                assert repr(t.set_image(y)) == repr(range_on_set_image(t, y))


class TestPerturb:
    def test_sqrt_takahashi_value(self, sqrt_tg):
        assert sqrt_tg.eval(0.25).parts == (Interval(7 / 16, 11 / 16),)

    def test_square_takahashi_value(self, square_tg):
        assert square_tg.eval(0.5).parts == (Interval(0.125, 0.375),)

    def test_identity_fixed_point_preserved(self):
        op = identity_operator()
        tg = perturb(op, Takahashi(0.5))
        assert tg.eval(0.3).parts == (Interval(0.3, 0.3),)

    def test_lam_bounds(self):
        with pytest.raises(ParameterRangeError):
            Takahashi(0.0)
        with pytest.raises(ParameterRangeError):
            Takahashi(1.0)

    def test_piece_splitting_at_extrema(self, sqrt_tg, square_tg):
        # perturbed upper boundary 0.75x + 0.25/sqrt(x) dips at (1/6)^(2/3)
        cut = (1.0 / 6.0) ** (2.0 / 3.0)
        subs = [(p.sub.lo, p.sub.hi) for p in sqrt_tg.pieces]
        assert len(subs) == 3
        assert abs(subs[0][1] - cut) < 1e-12
        # square boundaries (x +- x^2)/2 have extrema at -+1/2
        subs = [p.sub.lo for p in square_tg.pieces]
        assert any(abs(s + 0.5) < 1e-12 for s in subs)
        assert any(abs(s - 0.5) < 1e-12 for s in subs)

    def test_takahashi_identity_on_grid(self, sqrt_t, sqrt_tg, square_t, square_tg):
        # eval of the perturbed operator == affine_combine of the original, exactly
        for base, pert, lam in ((sqrt_t, sqrt_tg, 0.75), (square_t, square_tg, 0.5)):
            for x in base.domain.grid(501):
                x = float(x)
                direct = pert.eval(x).parts
                combined = affine_combine(x, base.eval(x), lam).parts
                assert direct == combined

    @pytest.mark.parametrize("lam1, lam2", [(0.3, 0.5), (0.75, 0.2), (0.05, 0.9)])
    def test_composed_takahashi_on_builtins(self, sqrt_t, square_t, lam1, lam2):
        for t in (sqrt_t, square_t):
            assert _composed_takahashi_gap(t, lam1, lam2) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(catalog_operators(), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_composed_takahashi_on_catalog_operators(self, t, lam1, lam2):
        assert _composed_takahashi_gap(t, lam1, lam2) <= 1e-12

    def test_general_affine_equivalent_to_takahashi(self, sqrt_t):
        tg = perturb(sqrt_t, GeneralG(a=0.75, b=0.25))
        tw = perturb(sqrt_t, Takahashi(0.75))
        for x in (0.25, 0.5, 1.0, 2.0, 4.0):
            assert tg.eval(x).parts == tw.eval(x).parts

    def test_identity_in_second_argument(self, sqrt_t):
        # G(x, y) = y leaves the operator unchanged
        tg = perturb(sqrt_t, GeneralG(a=0.0, b=1.0))
        for x in (0.25, 0.7, 1.5, 4.0):
            assert tg.eval(x).parts == sqrt_t.eval(x).parts

    def test_negative_weight_swaps_boundaries(self):
        # G(x, y) = 2x - y is admissible; on the identity operator it is a
        # no-op but exercises the lower/upper swap for b < 0
        op = identity_operator()
        tg = perturb(op, GeneralG(a=2.0, b=-1.0))
        for x in (0.0, 0.4, 1.0):
            assert tg.eval(x).parts == op.eval(x).parts

    def test_axiom_violation_raises(self, sqrt_t):
        with pytest.raises(AxiomViolationError):
            perturb(sqrt_t, GeneralG(a=1.0, b=0.0))  # constant in y
        with pytest.raises(AxiomViolationError):
            perturb(sqrt_t, GeneralG(a=0.5, b=0.25))  # G(x,x) != x


class TestAxiomCheck:
    def test_takahashi_passes(self):
        rep = check_perturbation_axioms(Takahashi(0.7), Domain(Interval(0.0, 1.0)))
        assert rep.passes
        assert rep.max_identity_dev < 1e-12
        assert rep.witness is None

    def test_constant_in_y_fails_with_corner_witness(self):
        rep = check_perturbation_axioms(GeneralG(a=1.0, b=0.0),
                                        Domain(Interval(0.0, 1.0)))
        assert not rep.passes
        assert rep.witness == (0.0, 1.0)

    def test_mean_passes(self):
        rep = check_perturbation_axioms(GeneralG(a=0.5, b=0.5),
                                        Domain(Interval(0.0, 1.0)))
        assert rep.passes

    def test_identity_violation_detected(self):
        rep = check_perturbation_axioms(GeneralG(a=0.5, b=0.25),
                                        Domain(Interval(0.0, 1.0)))
        assert not rep.passes
        assert rep.max_identity_dev > 1e-12

    def test_identity_violation_has_no_witness(self):
        rep = check_perturbation_axioms(GeneralG(a=0.5, b=0.25),
                                        Domain(Interval(0.0, 1.0)))
        assert rep.witness is None

    def test_tiny_weight_on_y_is_admissible(self):
        # G(x, y) - x = 1e-10 (y - x) vanishes only at y = x, though below the
        # 1e-9 level on every pair of [0, 1]
        rep = check_perturbation_axioms(GeneralG(a=1.0 - 1e-10, b=1e-10),
                                        Domain(Interval(0.0, 1.0)))
        assert rep.passes
        assert rep.witness is None

    def test_identity_deviation_is_the_endpoint_maximum(self):
        rep = check_perturbation_axioms(GeneralG(a=0.5, b=0.25, c=0.1),
                                        Domain(Interval(-2.0, 1.0)))
        assert rep.max_identity_dev == abs(0.5 * -2.0 + 0.25 * -2.0 + 0.1 + 2.0)


def _flanked(lower, upper, lo, hi, dom):
    """An operator on dom with (lower, upper) on [lo, hi] and a constant elsewhere."""
    flat = BoundaryFn(offset=lo)
    b = dom.bounds
    return MultivaluedOperator(dom, (Piece(Interval(b.lo, lo), flat, flat),
                                     Piece(Interval(lo, hi), lower, upper),
                                     Piece(Interval(hi, b.hi), flat, flat)))


def _order_witness(exc: Exception) -> float:
    """The x named by an order rejection."""
    return float(re.search(r"exceeds upper at x=(\S+) on piece", str(exc)).group(1))


@st.composite
def _monotone_pair(draw):
    """Catalog terms (lower, upper) and a piece [lo, hi] where both are monotone."""
    sqrt_kinds = draw(st.booleans())
    bases = ["none", "power", "sqrt", "invsqrt"] if sqrt_kinds else ["none", "power"]
    coef = st.floats(-2.0, 2.0)

    def term():
        base = draw(st.sampled_from(bases))
        return BoundaryFn(base=base, p=draw(st.integers(1, 4)),
                          coeff=0.0 if base == "none" else draw(coef),
                          slope=draw(coef), offset=draw(coef))

    lower, upper = term(), term()
    lo = draw(st.floats(0.05, 2.0) if sqrt_kinds else st.floats(-2.0, 2.0))
    hi = lo + draw(st.floats(0.01, 2.0))
    # the widest monotone stretch between the extrema of either term
    cuts = sorted({lo, hi, *lower.critical_points(lo, hi), *upper.critical_points(lo, hi)})
    k = int(np.argmax(np.diff(cuts)))
    return lower, upper, cuts[k], cuts[k + 1]


class TestValidation:
    def test_non_self_map_rejected(self):
        term = BoundaryFn(slope=1.0, offset=0.5)
        with pytest.raises(ValueError, match="self-map"):
            MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                                (Piece(Interval(0.0, 1.0), term, term),))

    def test_non_monotone_piece_rejected(self):
        sq = BoundaryFn(base="power", p=2, coeff=1.0)
        with pytest.raises(ValueError, match="monotone"):
            MultivaluedOperator(Domain(Interval(-0.5, 0.5)),
                                (Piece(Interval(-0.5, 0.5), sq, sq),))

    def test_lower_above_upper_rejected(self):
        lo = BoundaryFn(offset=0.8)
        hi = BoundaryFn(offset=0.2)
        with pytest.raises(ValueError, match="lower boundary exceeds"):
            MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                                (Piece(Interval(0.0, 1.0), lo, hi),))

    @staticmethod
    def _narrow_crossing():
        # lower is the tangent of x^2 at c raised by 1e-9, so it lies above
        # upper = x^2 only within about 3.2e-5 of c; c is midway between two
        # nodes of a 1e-4 grid, which a sampled check would miss
        c = 0.5 + 5000.5e-4
        lower = BoundaryFn(slope=2.0 * c, offset=1e-9 - c * c)
        upper = BoundaryFn(base="power", p=2, coeff=1.0)
        return c, lower, upper

    def test_narrow_crossing_rejected_at_construction(self):
        c, lower, upper = self._narrow_crossing()
        with pytest.raises(ValueError, match="lower boundary exceeds upper") as exc:
            _flanked(lower, upper, 0.5, 1.5, Domain(Interval(-1.0, 3.0)))
        x = _order_witness(exc.value)
        assert abs(x - c) < 3.2e-5
        assert lower.value(x) - upper.value(x) > ORDER_SLACK

    def test_narrow_crossing_raises_at_eval(self, monkeypatch):
        c, lower, upper = self._narrow_crossing()
        monkeypatch.setattr(MultivaluedOperator, "_validate_piece", lambda self, pc: None)
        t = _flanked(lower, upper, 0.5, 1.5, Domain(Interval(-1.0, 3.0)))
        assert lower.value(c) - upper.value(c) > 0.9e-9
        with pytest.raises(BoundaryOrderError, match=f"x={c!r}"):
            t.eval(c)
        with pytest.raises(BoundaryOrderError, match=f"x={c!r}"):
            t.eval_grid(np.array([0.0, 1.0, c, 2.0]))
        assert t.eval(1.0).parts[0].hi == 1.0

    def test_mixed_base_tangency(self):
        # 4 sqrt(x) - 3 touches x^2 from below at x = 1 only
        lower = BoundaryFn(base="sqrt", coeff=4.0, offset=-3.0)
        upper = BoundaryFn(base="power", p=2, coeff=1.0)
        dom = Domain(Interval(-1.0, 5.0))
        _flanked(lower, upper, 0.5, 2.0, dom)
        with pytest.raises(ValueError, match="lower boundary exceeds upper") as exc:
            _flanked(lower.shifted(1e-9), upper, 0.5, 2.0, dom)
        x = _order_witness(exc.value)
        assert abs(x - 1.0) < 1e-6
        assert lower.shifted(1e-9).value(x) - upper.value(x) > ORDER_SLACK

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_order_decided_at_the_exact_minimum(self, data):
        lower, upper, lo, hi = data.draw(_monotone_pair())
        xs = np.linspace(lo, hi, 10_001)
        # shift lower so the sampled minimum gap lands on a value near the slack
        gap_min = float(np.min(upper.value_array(xs) - lower.value_array(xs)))
        target = data.draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11,
                                            1e-9, -1e-9, 1e-3]))
        lower = lower.shifted(gap_min - target)
        vals = [*lower.range_on(lo, hi), *upper.range_on(lo, hi)]
        dom = Domain(Interval(min(lo, *vals) - 1.0, max(hi, *vals) + 1.0))
        try:
            _flanked(lower, upper, lo, hi, dom)
        except ValueError as exc:
            x = _order_witness(exc)
            assert lo <= x <= hi
            assert lower.value(x) - upper.value(x) > ORDER_SLACK
        else:
            assert np.all(lower.value_array(xs) - upper.value_array(xs) <= ORDER_SLACK)

    def test_construction_takes_no_samples(self, monkeypatch):
        calls = []
        value_array = BoundaryFn.value_array
        monkeypatch.setattr(BoundaryFn, "value_array",
                            lambda self, xs: calls.append(1) or value_array(self, xs))
        t = setfix.sqrt_example()
        perturb(t, Takahashi(0.75))
        setfix.constant_operator(t.domain, 1.0)
        assert calls == []

    def test_ends_within_order_slack_are_swapped(self):
        lo, hi = BoundaryFn(offset=0.5 + 0.5 * ORDER_SLACK), BoundaryFn(offset=0.5)
        t = MultivaluedOperator(Domain(Interval(0.0, 1.0)), (Piece(Interval(0.0, 1.0), lo, hi),))
        part = t.eval(0.3).parts[0]
        assert (part.lo, part.hi) == (0.5, lo.offset)
        assert [v.tolist() for v in t.eval_grid(np.array([0.3]))] == [[0.5], [lo.offset]]

    def test_coverage_gap_rejected(self):
        term = BoundaryFn(offset=0.5)
        with pytest.raises(ValueError, match="cover|contiguous"):
            MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                                (Piece(Interval(0.0, 0.4), term, term),
                                 Piece(Interval(0.6, 1.0), term, term)))

    def test_invsqrt_domain_guard(self):
        bad = BoundaryFn(base="invsqrt", coeff=1.0)
        with pytest.raises(ValueError, match="undefined"):
            MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                                (Piece(Interval(0.0, 1.0), BoundaryFn(offset=0.5), bad),))


class TestJsonSchema:
    def test_round_trip(self, sqrt_t, sqrt_tg, square_tg):
        for op in (sqrt_t, sqrt_tg, square_tg):
            clone = MultivaluedOperator.from_json(
                json.loads(json.dumps(op.to_json())), name=op.name)
            for x in op.domain.grid(101):
                assert clone.eval(float(x)).parts == op.eval(float(x)).parts

    @pytest.mark.parametrize("bad", [
        {},
        {"domain": [0, 1]},
        {"domain": [0], "pieces": []},
        {"domain": [0, 1], "pieces": [{"sub": [0, 1], "lower": {"kind": "mystery"},
                                       "upper": {"kind": "const", "value": 0.5}}]},
        {"domain": [0, 1], "pieces": [{"sub": [0, 1],
                                       "lower": {"kind": "const", "value": 2.0},
                                       "upper": {"kind": "const", "value": 2.0}}]},
        {"domain": [False, True], "pieces": [{"sub": [0, 1],
                                              "lower": {"kind": "const", "value": 0.5},
                                              "upper": {"kind": "const", "value": 0.5}}]},
        {"domain": [0, 1], "pieces": [{"sub": [False, True],
                                       "lower": {"kind": "const", "value": 0.5},
                                       "upper": {"kind": "const", "value": 0.5}}]},
    ])
    def test_rejects(self, bad):
        with pytest.raises(SchemaError):
            MultivaluedOperator.from_json(bad)

    @pytest.mark.parametrize("reader, obj", [
        (BoundaryFn.from_json, {"kind": "const", "value": True}),
        (BoundaryFn.from_json, {"kind": "affine", "a": False}),
        (BoundaryFn.from_json, {"kind": "power", "p": True, "coeff": 1.0}),
        (perturbation_from_json, {"kind": "general", "a": True}),
        (perturbation_from_json, {"kind": "general", "b": True}),
        (perturbation_from_json, {"kind": "general", "c": False}),
    ])
    def test_rejects_bools_as_numbers(self, reader, obj):
        with pytest.raises(SchemaError):
            reader(obj)

    def test_builtin_registry(self):
        assert set(setfix.BUILTIN_OPERATORS) == {"square_example", "sqrt_example"}
        with pytest.raises(SchemaError):
            setfix.get_builtin("nope")


class TestBoundaryFn:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(["power", "sqrt", "invsqrt", "none"]),
           st.integers(min_value=1, max_value=5),
           st.floats(min_value=-2, max_value=2, allow_nan=False),
           st.floats(min_value=-2, max_value=2, allow_nan=False),
           st.floats(min_value=-2, max_value=2, allow_nan=False))
    def test_range_contains_samples(self, base, p, coeff, slope, offset):
        fn = BoundaryFn(base=base, p=p, coeff=coeff, slope=slope, offset=offset)
        lo, hi = (0.5, 2.0) if base in ("sqrt", "invsqrt") else (-1.5, 2.0)
        rmin, rmax = fn.range_on(lo, hi)
        for x in np.linspace(lo, hi, 97):
            v = fn.value(float(x))
            assert rmin - 1e-9 <= v <= rmax + 1e-9

    def test_critical_points_square(self):
        fn = BoundaryFn(base="power", p=2, coeff=1.0)
        assert fn.critical_points(-1.0, 1.0) == [0.0]
        assert fn.critical_points(0.5, 1.0) == []

    @pytest.mark.parametrize("field", ["coeff", "slope", "offset"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coefficient_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            BoundaryFn(base="sqrt", **{field: value})

    def test_bool_power_exponent_rejected(self):
        with pytest.raises(ValueError, match="integer exponent"):
            BoundaryFn(base="power", p=True, coeff=1.0)

    def test_critical_points_cubic_with_slope(self):
        # f = x^3 - 0.75 x has extrema at +-0.5
        fn = BoundaryFn(base="power", p=3, coeff=1.0, slope=-0.75)
        pts = fn.critical_points(-1.0, 1.0)
        assert len(pts) == 2
        assert abs(pts[0] + 0.5) < 1e-12 and abs(pts[1] - 0.5) < 1e-12


def test_constant_operator_and_shift(sqrt_t):
    c = setfix.constant_operator(sqrt_t.domain, 2.125)
    assert c.eval(0.3).parts == (Interval(2.125, 2.125),)
    shifted = setfix.shift_operator(sqrt_t, 0.01)
    assert shifted.eval(4.0).parts == (Interval(1.01, 2.01),)
    # shifting far enough breaks the self-map requirement
    with pytest.raises(ValueError, match="self-map"):
        setfix.shift_operator(sqrt_t, 3.0)

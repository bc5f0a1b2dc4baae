from __future__ import annotations

import json
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import setfix
from setfix import (
    AxiomViolationError,
    BoundaryFn,
    BoundaryOrderError,
    Domain,
    GeneralG,
    Interval,
    MultivaluedOperator,
    NotSelfMapError,
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
    _turns,
    _worst_order_point,
    dist_to_value,
    hausdorff_between_values,
    hausdorff_to_point,
    paired_values,
)
from setfix.intervals import AMBIENT_TOL
from oracles import (
    affine_combine,
    brute_set_image,
    catalog_operators,
    closed_form_critical_points,
    jump_to_one_operator,
    lipschitz_bound,
    per_piece_eval_grid,
    random_subunion,
    range_on_set_image,
    roots_worst_order_point,
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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]),
           st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 0.5, -0.5, 1.0, -1.0]),
                              st.sampled_from([0.0, -0.0, 1e-13, -1e-13])),
                    min_size=2, max_size=2),
           st.lists(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0]),
                    min_size=1, max_size=8))
    @example((0.0, 1.0), [(-1e-12, -0.0), (1.0, 0.0)], [0.0])
    def test_signed_zeros_at_domain_ends(self, ends, terms, xs):
        # values that touch or cross an end at 0.0 or -0.0 are clamped to it
        # as eval clamps them, the sign of a zero included
        lo, hi = ends
        xs = [x for x in xs if lo <= x <= hi]
        lower, upper = (BoundaryFn(slope=s, offset=c) for s, c in terms)
        try:
            t = MultivaluedOperator(Domain(Interval(lo, hi)),
                                    (Piece(Interval(lo, hi), lower, upper),))
        except ValueError:
            reject()
        glo, ghi = t.eval_grid(np.array(xs, dtype=float))
        for x, gl, gh in zip(xs, glo, ghi):
            v = t.eval(x)
            assert np.array_equal(_bits([gl, gh]), _bits([v._los[0], v._his[0]])), x


@st.composite
def _affine_operators(draw):
    """Operators of one or two pieces of affine terms on a domain with an end
    at 0.0 or -0.0, whose values may touch or cross that end, and whose lower
    end may lie above the upper by up to ORDER_SLACK (eval swaps the two)."""
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]))
    ends = [lo, 0.5 * (lo + hi), hi] if draw(st.booleans()) else [lo, hi]
    pieces = []
    for u, v in zip(ends, ends[1:]):
        upper = BoundaryFn(slope=draw(st.sampled_from([0.0, -0.0, 1e-13, -1e-13])),
                           offset=draw(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 0.5, -0.5,
                                                        1.0, -1.0])))
        lower = upper.shifted(draw(st.sampled_from([0.0, -0.5, 0.5 * ORDER_SLACK, ORDER_SLACK])))
        pieces.append(Piece(Interval(u, v), lower, upper))
    try:
        return MultivaluedOperator(Domain(Interval(lo, hi)), tuple(pieces))
    except ValueError:
        reject()


@st.composite
def _grid_inputs(draw, t: MultivaluedOperator):
    """Up to 40 points of T's domain widened by AMBIENT_TOL, often its ends,
    piece junctions or signed zeros, sorted or in drawn order."""
    b = t.domain.bounds
    special = [b.lo, b.hi, b.lo - AMBIENT_TOL, b.hi + AMBIENT_TOL,
               b.lo - 0.5 * AMBIENT_TOL, b.hi + 0.5 * AMBIENT_TOL,
               *(pc.sub.lo for pc in t.pieces)]
    if b.lo - AMBIENT_TOL <= 0.0 <= b.hi + AMBIENT_TOL:
        special += [0.0, -0.0]
    coord = st.one_of(st.sampled_from(special),
                      st.floats(b.lo - AMBIENT_TOL, b.hi + AMBIENT_TOL))
    xs = draw(st.lists(coord, max_size=40))
    return np.array(sorted(xs) if draw(st.booleans()) else xs, dtype=float)


class TestEvalGridAgainstPerPiece:
    """eval_grid, per term run and with identity clamps skipped, against the
    per-piece evaluation it replaced, bit for bit (the sign of a zero too)."""

    @staticmethod
    def _check(t, xs):
        lo, hi = t.eval_grid(xs)
        ref_lo, ref_hi = per_piece_eval_grid(t, xs)
        for got, want in ((lo, ref_lo), (hi, ref_hi)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            # fresh arrays the caller may write
            assert got.flags.writeable and not np.shares_memory(got, xs)
        assert not np.shares_memory(lo, hi)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_catalog_operators(self, data):
        t = data.draw(st.one_of(catalog_operators(), st.sampled_from(_grid_operators())))
        self._check(t, data.draw(_grid_inputs(t)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_signed_zero_ends_and_swapped_ends(self, data):
        t = data.draw(_affine_operators())
        self._check(t, data.draw(_grid_inputs(t)))

    def test_empty_and_domain_grids(self):
        for t in _grid_operators():
            self._check(t, np.array([]))
            for n in (2, 3, 2001):
                self._check(t, t.domain.grid(n))

    @pytest.mark.parametrize("bad", [[5.0], [1.0, 4.0 + 2 * AMBIENT_TOL], [0.25 - 2 * AMBIENT_TOL],
                                     [1.0, np.nan, 2.0], [np.inf], [2.0, -np.inf, 7.0]])
    def test_out_of_domain_error_and_message(self, sqrt_t, bad):
        with pytest.raises(OutOfDomainError) as want:
            per_piece_eval_grid(sqrt_t, np.array(bad))
        with pytest.raises(OutOfDomainError) as got:
            sqrt_t.eval_grid(np.array(bad))
        assert str(got.value) == str(want.value)

    def test_boundary_order_error_and_message(self, monkeypatch):
        c, lower, upper = TestValidation._narrow_crossing()
        monkeypatch.setattr(MultivaluedOperator, "_validate_piece", lambda self, pc: None)
        t = _flanked(lower, upper, 0.5, 1.5, Domain(Interval(-1.0, 3.0)))
        for xs in ([0.0, 1.0, c, 2.0], [2.0, c, 0.0, c], [c]):
            with pytest.raises(BoundaryOrderError) as want:
                per_piece_eval_grid(t, np.array(xs))
            with pytest.raises(BoundaryOrderError) as got:
                t.eval_grid(np.array(xs))
            assert str(got.value) == str(want.value)


def _sqrt_like(hi: float) -> MultivaluedOperator:
    """sqrt_example's terms on [1/4, hi]: T(x) = [1, 1/sqrt(x)] below 1, [1, sqrt(x)] above."""
    one = BoundaryFn(offset=1.0)
    return MultivaluedOperator(
        Domain(Interval(0.25, hi)),
        (Piece(Interval(0.25, 1.0), one, BoundaryFn(base="invsqrt", coeff=1.0)),
         Piece(Interval(1.0, hi), one, BoundaryFn(base="sqrt", coeff=1.0))))


class TestGridValues:
    def test_read_only_and_kept(self):
        t = setfix.sqrt_example()
        table = t.grid_values(101)
        again = t.grid_values(101)
        assert all(a is b for a, b in zip(table, again))
        assert not any(a.flags.writeable for a in table)
        with pytest.raises(ValueError):
            table[1][0] = 0.0

    def test_equals_eval_grid_of_the_domain_grid(self):
        for t in _grid_operators():
            for n in (2, 101, 2001):
                xs, lo, hi = t.grid_values(n)
                want = t.domain.grid(n)
                assert _bits(xs).tobytes() == _bits(want).tobytes()
                for got, ref in zip((lo, hi), t.eval_grid(want)):
                    assert _bits(got).tobytes() == _bits(ref).tobytes()

    def test_operators_on_one_domain_keep_their_own_tables(self):
        t = setfix.sqrt_example()
        tg = perturb(t, Takahashi(0.75))
        assert tg.domain is t.domain
        _, lo, hi = t.grid_values(101)
        _, glo, ghi = tg.grid_values(101)
        assert not np.array_equal(hi, ghi)
        assert all(_bits(a).tobytes() == _bits(b).tobytes()
                   for a, b in zip((glo, ghi), tg.eval_grid(t.domain.grid(101))))
        # reading T_G at T's grid on T's domain object is reading its own table
        assert paired_values(t, tg, 101)[1] is ghi

    def test_an_equal_but_separate_domain_reads_its_own_table(self):
        t = setfix.sqrt_example()
        twin = MultivaluedOperator.from_json(perturb(t, Takahashi(0.75)).to_json())
        assert twin.domain == t.domain and twin.domain is not t.domain
        lo, hi = paired_values(t, twin, 101)
        assert lo is twin.grid_values(101)[1] and hi is twin.grid_values(101)[2]
        again = paired_values(t, twin, 101)
        assert again[0] is lo and again[1] is hi

    def test_another_domain_gives_the_values_at_t_grid(self):
        t = setfix.sqrt_example()
        wide = perturb(_sqrt_like(5.0), Takahashi(0.75))
        lo, hi = paired_values(t, wide, 101)
        assert lo.flags.writeable and lo is not paired_values(t, wide, 101)[0]
        want = per_piece_eval_grid(wide, t.domain.grid(101))
        assert all(_bits(a).tobytes() == _bits(b).tobytes() for a, b in zip((lo, hi), want))
        narrow = _sqrt_like(2.0)
        with pytest.raises(OutOfDomainError) as got:
            paired_values(t, narrow, 101)
        with pytest.raises(OutOfDomainError) as want:
            per_piece_eval_grid(narrow, t.domain.grid(101))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", [101, 2001])
    def test_constants_with_an_operator_on_another_domain(self, n):
        # T_G on a wider domain (or an equal but separate one) agrees with the
        # T_G on T's domain at T's grid, so L and l do too; on a narrower domain
        # both raise the OutOfDomainError eval_grid raises at T's grid
        t = setfix.sqrt_example()
        tg = perturb(t, Takahashi(0.75))
        wide = perturb(_sqrt_like(5.0), Takahashi(0.75))
        twin = MultivaluedOperator.from_json(tg.to_json())
        assert twin.domain == t.domain and twin.domain is not t.domain
        for other in (wide, twin):
            assert setfix.displacement_constant_L(t, other, n) == \
                setfix.displacement_constant_L(t, tg, n)
            assert setfix.sup_ratio_l(t, other, 1.0, n) == setfix.sup_ratio_l(t, tg, 1.0, n)
        narrow = perturb(_sqrt_like(2.0), Takahashi(0.75))
        with pytest.raises(OutOfDomainError) as want:
            per_piece_eval_grid(narrow, t.domain.grid(n))
        for call in (lambda: setfix.displacement_constant_L(t, narrow, n),
                     lambda: setfix.sup_ratio_l(t, narrow, 1.0, n)):
            with pytest.raises(OutOfDomainError) as got:
                call()
            assert str(got.value) == str(want.value)


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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(catalog_operators(), st.integers(1, 2 * IMAGE_VECTOR_MIN_PARTS),
           st.integers(0, 2**32 - 1))
    def test_matches_brute_force_on_catalog_operators(self, t, n, seed):
        # every sampled value lies in the exact image, and every exact value
        # is within L*h of a sampled one, L a Lipschitz bound of the terms;
        # n disjoint parts, so both sides of the array path's crossover are taken
        b = t.domain.bounds
        ends = np.sort(np.random.default_rng(seed).uniform(b.lo, b.hi, 2 * n)).tolist()
        y = normalize([Interval(lo, hi) for lo, hi in zip(ends[::2], ends[1::2])], b)
        h = 2e-3
        exact, sampled = t.set_image(y), brute_set_image(t, y, h)
        lip = lipschitz_bound(t)
        assert excess(sampled, exact) <= 1e-12
        assert excess(exact, sampled) <= lip * h + 1e-12

    @pytest.mark.parametrize("n", [1, 2 * IMAGE_VECTOR_MIN_PARTS])
    def test_part_starting_at_a_jump_junction(self, n):
        # T(1) = {1}, although the left piece reaches [0.5, 1] at 1; n - 1
        # more parts right of 1.5 take the array path
        t = jump_to_one_operator()
        right = [Interval(1.6 + 0.01 * k, 1.605 + 0.01 * k) for k in range(n - 1)]
        for y in (Interval(1.0, 1.0), Interval(1.0, 1.5)):
            assert t.set_image(normalize([y, *right])).to_json() == {"parts": [[1.0, 1.0]]}
        # a part that ends at the jump gets the closure: the left piece's
        # values up to 1, and T(1) = {1}
        y = normalize([Interval(0.5, 1.0), *right])
        assert t.set_image(y).to_json() == {"parts": [[0.5, 1.0]]}

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
    pieces: both are split at the extrema of their own terms, whose
    coefficients the two compositions round differently."""
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
        # a piece given up to 1e-9 past the domain is snapped to it, so that
        # clipping a part end to the pieces clips it to the domain too
        term = BoundaryFn(slope=0.5, offset=0.25)
        wide = MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                                   (Piece(Interval(-5e-10, 1.0 + 5e-10), term, term),))
        assert wide.pieces == (Piece(Interval(0.0, 1.0), term, term),)
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
        # at 0, lower = -0.0 ties upper = 0.0, and the image ends at max(lo, hi) = lo
        tie = MultivaluedOperator(Domain(Interval(0.0, 1.0)), (Piece(
            Interval(0.0, 1.0), BoundaryFn(slope=-1e-12, offset=-0.0), BoundaryFn()),))
        y = normalize([Interval(0.0, 0.0), *right], tie.domain.bounds)
        assert repr(tie.set_image(y)) == repr(range_on_set_image(tie, y))

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
        # square boundaries (x +- x^2)/2 have extrema at -+1/2; T's two pieces
        # have the same terms, so T_G is cut there and nowhere else
        c = 8.0 / 9.0
        assert [(p.sub.lo, p.sub.hi) for p in square_tg.pieces] == [
            (-c, -0.5), (-0.5, 0.5), (0.5, c)]

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

    def test_non_self_map_names_the_perturbation(self, sqrt_t):
        # admissible (a + b = 1, b != 0), but T_G(4) = [-0.5, 1] leaves X = [0.25, 4]
        spec = GeneralG(a=-0.5, b=1.5)
        assert check_perturbation_axioms(spec, sqrt_t.domain).passes
        with pytest.raises(NotSelfMapError, match=re.escape(f"perturbation {spec.to_json()}")):
            perturb(sqrt_t, spec)
        with pytest.raises(NotSelfMapError, match="shift by 3.0 of sqrt_example"):
            setfix.shift_operator(sqrt_t, 3.0)

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
def _term_pair(draw, powers=st.integers(1, 4)):
    """Catalog terms (lower, upper) and a piece [lo, hi] where both are defined."""
    sqrt_kinds = draw(st.booleans())
    bases = ["none", "power", "sqrt", "invsqrt"] if sqrt_kinds else ["none", "power"]
    coef = st.floats(-2.0, 2.0)

    def term():
        base = draw(st.sampled_from(bases))
        return BoundaryFn(base=base, p=draw(powers),
                          coeff=0.0 if base == "none" else draw(coef),
                          slope=draw(coef), offset=draw(coef))

    lower, upper = term(), term()
    lo = draw(st.floats(0.05, 2.0) if sqrt_kinds else st.floats(-2.0, 2.0))
    return lower, upper, lo, lo + draw(st.floats(0.01, 2.0))


class TestValidation:
    def test_non_self_map_rejected(self):
        term = BoundaryFn(slope=1.0, offset=0.5)
        with pytest.raises(ValueError, match="self-map"):
            MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                                (Piece(Interval(0.0, 1.0), term, term),))

    def test_non_monotone_piece_split_at_its_extrema(self):
        sq = BoundaryFn(base="power", p=2, coeff=1.0)
        dom = Domain(Interval(-0.5, 0.5))
        t = MultivaluedOperator(dom, (Piece(Interval(-0.5, 0.5), sq, sq),))
        assert t.pieces == (Piece(Interval(-0.5, 0.0), sq, sq), Piece(Interval(0.0, 0.5), sq, sq))
        assert t.eval(0.0).to_json() == {"parts": [[0.0, 0.0]]}

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
        lower, upper, lo, hi = data.draw(_term_pair())
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

    def test_inner_junctions_must_meet_exactly(self):
        # a junction off by 5e-10 would leave the points between the two ends
        # to no piece, or to two; the domain ends keep their 1e-9 slack
        term = BoundaryFn(offset=1.0)
        dom = Domain(Interval(0.25, 4.0))
        for start in (1.0 + 5e-10, 1.0 - 5e-10):
            with pytest.raises(ValueError, match="contiguous"):
                MultivaluedOperator(dom, (Piece(Interval(0.25, 1.0), term, term),
                                          Piece(Interval(start, 4.0), term, term)))
        t = MultivaluedOperator(dom, (Piece(Interval(0.25 + 5e-10, 1.0), term, term),
                                      Piece(Interval(1.0, 4.0 - 5e-10), term, term)))
        assert t.eval(4.0).to_json() == {"parts": [[1.0, 1.0]]}

    def test_invsqrt_domain_guard(self):
        bad = BoundaryFn(base="invsqrt", coeff=1.0)
        with pytest.raises(ValueError, match="undefined"):
            MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                                (Piece(Interval(0.0, 1.0), BoundaryFn(offset=0.5), bad),))


class TestLayout:
    """Construction merges adjacent pieces with the same terms, snaps the
    outer ends to the domain and splits each run at its terms' extrema."""

    def test_one_piece_square_is_square_example(self, square_t):
        c = 8.0 / 9.0
        t = MultivaluedOperator.from_json({"domain": [-c, c], "pieces": [
            {"sub": [-c, c], "lower": {"kind": "power", "coeff": -1.0},
             "upper": {"kind": "power", "coeff": 1.0}}]})
        assert t.pieces == square_t.pieces
        assert (setfix.certify_contraction(t, "ciric", 101)
                == setfix.certify_contraction(square_t, "ciric", 101))

    def test_equal_term_neighbours_merge(self):
        term = BoundaryFn(slope=0.5, offset=0.25)
        dom = Domain(Interval(0.0, 1.0))
        one = MultivaluedOperator(dom, (Piece(dom.bounds, term, term),))
        two = MultivaluedOperator(dom, (Piece(Interval(0.0, 0.4), term, term),
                                        Piece(Interval(0.4, 1.0), term, term)))
        assert two == one
        assert two.pieces == (Piece(dom.bounds, term, term),)

    def test_zero_width_last_piece_owns_its_point(self):
        # the edges of a run are a list, not a set, so [1, 1] keeps its piece
        dom = Domain(Interval(0.0, 1.0))
        low, high = BoundaryFn(offset=0.25), BoundaryFn(offset=0.75)
        t = MultivaluedOperator(dom, (Piece(Interval(0.0, 1.0), low, low),
                                      Piece(Interval(1.0, 1.0), high, high)))
        assert len(t.pieces) == 2
        assert t.eval(1.0).to_json() == {"parts": [[0.75, 0.75]]}
        y = setfix.IntervalUnion.singleton(1.0, dom.bounds)
        assert t.set_image(y).to_json() == {"parts": [[0.75, 0.75]]}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(catalog_operators(), st.floats(0.01, 0.99))
    def test_json_round_trip_is_exact(self, t, lam):
        for op in (t, perturb(t, Takahashi(lam))):
            raw = json.loads(json.dumps(op.to_json()))
            assert MultivaluedOperator.from_json(raw, name=op.name) == op


class TestDomainEndsSnap:
    """One piece given on [5e-10, 1] of X = [0, 1]: construction snaps it to
    [0, 1], so its checks see x = 0, which eval serves."""

    DOM = Domain(Interval(0.0, 1.0))

    def _affine(self) -> MultivaluedOperator:
        term = BoundaryFn(slope=0.5, offset=0.25)
        return MultivaluedOperator(self.DOM, (Piece(Interval(5e-10, 1.0), term, term),))

    def test_term_undefined_at_the_domain_end_is_refused(self):
        upper = BoundaryFn(base="invsqrt", coeff=1e-6, offset=0.25)
        with pytest.raises(ValueError, match=re.escape("undefined on piece [0.0, 1.0]")):
            MultivaluedOperator(self.DOM, (Piece(Interval(5e-10, 1.0), BoundaryFn(offset=0.25),
                                                 upper),))

    @pytest.mark.parametrize("n", [1, 2 * IMAGE_VECTOR_MIN_PARTS])
    def test_set_image_at_the_domain_end_is_eval(self, n):
        t = self._affine()
        assert t.eval(0.0).to_json() == {"parts": [[0.25, 0.25]]}
        right = [Interval(0.6 + 0.01 * k, 0.605 + 0.01 * k) for k in range(n - 1)]
        y = normalize([Interval(0.0, 0.0), *right], self.DOM.bounds)
        assert t.set_image(y).parts[0] == t.eval(0.0).parts[0]

    def test_piece_wholly_in_the_slack_owns_no_point(self):
        # its ends are put in X, so it keeps zero width at 0, which the next
        # piece owns
        term, edge = BoundaryFn(slope=0.5, offset=0.25), BoundaryFn(offset=0.75)
        t = MultivaluedOperator(self.DOM, (Piece(Interval(-5e-10, -2e-10), edge, edge),
                                           Piece(Interval(-2e-10, 1.0), term, term)))
        assert [pc.sub for pc in t.pieces] == [Interval(0.0, 0.0), self.DOM.bounds]
        assert t.eval(0.0).to_json() == {"parts": [[0.25, 0.25]]}
        y = setfix.IntervalUnion.singleton(0.0, self.DOM.bounds)
        assert t.set_image(y).to_json() == {"parts": [[0.25, 0.25]]}

    def test_picard_orbit_from_the_domain_end(self):
        trace = setfix.picard_orbit(self._affine(), 0.0)
        assert trace.converged
        assert abs(trace.limit_estimate - 0.5) < 1e-9


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

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(["none", "power", "sqrt", "invsqrt"]), st.integers(1, 9),
           *[st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0)] * 3, st.data())
    def test_value_is_value_array_bit_for_bit(self, base, p, coeff, slope, offset, data):
        fn = BoundaryFn(base=base, p=p, coeff=coeff, slope=slope, offset=offset)
        if base == "invsqrt":  # defined for x > 0 only
            x = data.draw(st.floats(0.0, 4.0, exclude_min=True))
        else:
            zeros = st.sampled_from([0.0, -0.0])
            x = data.draw(zeros | st.floats(0.0 if base == "sqrt" else -4.0, 4.0))
        assert _bits(fn.value(x)) == _bits(fn.value_array(np.array([x]))[0])

    def test_exponent_without_a_power_base_is_dropped(self):
        # p means nothing there, so the terms are equal, as to_json writes them
        for base in ("none", "sqrt", "invsqrt"):
            fn = BoundaryFn(base=base, p=3, coeff=0.0 if base == "none" else 1.0)
            assert fn == BoundaryFn(base=base, coeff=fn.coeff)
            assert BoundaryFn.from_json(fn.to_json()) == fn

    def test_bool_power_exponent_rejected(self):
        with pytest.raises(ValueError, match="integer exponent"):
            BoundaryFn(base="power", p=True, coeff=1.0)

    def test_critical_points_cubic_with_slope(self):
        # f = x^3 - 0.75 x has extrema at +-0.5
        fn = BoundaryFn(base="power", p=3, coeff=1.0, slope=-0.75)
        pts = fn.critical_points(-1.0, 1.0)
        assert len(pts) == 2
        assert abs(pts[0] + 0.5) < 1e-12 and abs(pts[1] - 0.5) < 1e-12


def _sampled_worst(lower, upper, lo, hi) -> tuple[float, float]:
    """(x, lower(x) - upper(x)) at the largest value on a 20 001-point grid of
    [lo, hi], refined once on a 20 001-point grid around it."""
    for _ in range(2):
        xs = np.linspace(lo, hi, 20_001)
        vals = lower.value_array(xs) - upper.value_array(xs)
        i = int(np.argmax(vals))
        lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
    return float(xs[i]), float(vals[i])


class TestSignChanges:
    """critical_points and the order check read one sign-change routine; the
    closed forms and the np.roots check that it replaced are their references."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.sampled_from(["none", "power", "sqrt", "invsqrt"]), st.integers(1, 64),
           *[st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0)] * 2, st.data())
    def test_critical_points_are_the_closed_forms(self, base, p, coeff, slope, data):
        fn = BoundaryFn(base=base, p=p, coeff=coeff, slope=slope)
        if base in ("sqrt", "invsqrt"):  # a negative lo is refused later, at validation
            lo = data.draw(st.floats(-1.0, 2.0))
            hi = lo + data.draw(st.floats(0.0, 4.0))
        else:  # integer exponents: domains crossing 0
            lo, hi = data.draw(st.floats(-3.0, 0.0)), data.draw(st.floats(0.0, 3.0))
        assert (_bits(fn.critical_points(lo, hi)).tolist()
                == _bits(closed_form_critical_points(fn, lo, hi)).tolist())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_term_pair(st.integers(1, 12)), st.sampled_from([0.0, 1e-13, -1e-13, 1e-6, -1e-6]))
    def test_order_decisions_are_the_roots_check(self, pair, target):
        lower, upper, lo, hi = pair
        # shift lower so that the exact minimum of upper - lower is target
        ref = roots_worst_order_point(lower, upper, lo, hi)
        lower = lower.shifted(upper.value(ref) - lower.value(ref) - target)
        ref = roots_worst_order_point(lower, upper, lo, hi)
        x = _worst_order_point(lower, upper, lo, hi)
        worst = lower.value(x) - upper.value(x)
        assert lo <= x <= hi
        assert (worst > ORDER_SLACK) == (lower.value(ref) - upper.value(ref) > ORDER_SLACK)
        xs = np.linspace(lo, hi, 2001)
        assert np.max(lower.value_array(xs) - upper.value_array(xs)) <= worst + 1e-12

    def test_sqrt_turn_is_squared_by_multiplication(self):
        # f' = 0 at sqrt(x) = c; here c ** 2.0 is one ulp above c * c
        c = 1.837984
        assert c ** 2.0 != c * c
        assert BoundaryFn(base="sqrt", coeff=c, slope=-0.5).critical_points(0.0, 4.0) == [c * c]

    def test_coefficients_and_powers_at_the_float_limits(self):
        # d(upper - lower)/dx = 1e308 (1 + x - x^2): its terms are summed scaled
        upper = BoundaryFn(base="power", p=2, coeff=5e307, slope=1e308)
        lower = BoundaryFn(base="power", p=3, coeff=1e308 / 3)
        (x,) = _turns(((1.0, upper), (-1.0, lower)), 0.0, 2.0)
        assert abs(x - (1.0 + 5.0 ** 0.5) / 2.0) < 1e-12
        dom = Domain(Interval(0.0, 1.5))
        # the same far values; 3e300 - 2e-30 x + 3e-30 x^2, whose scaled
        # coefficients 2e-30 / 3e300 and 3e-30 / 3e300 round to 0; and
        # 0.5 - 0.2 x + 2e-297 x^1999, where 1.5^1999 overflows a float
        for lower, upper in ((lower, upper),
                             (BoundaryFn(base="power", p=2, coeff=1e-30),
                              BoundaryFn(base="power", p=3, coeff=1e-30, slope=3e300)),
                             (BoundaryFn(base="power", p=2, coeff=0.1),
                              BoundaryFn(base="power", p=2000, coeff=1e-300, slope=0.5))):
            with pytest.raises(NotSelfMapError):
                MultivaluedOperator(dom, (Piece(dom.bounds, lower, upper),))

    # gap derivatives of three monomials: the routine finds the sign changes
    # of the two-monomial second derivative in closed form and bisects between
    CUBIC = (BoundaryFn(base="power", p=4, coeff=1.0),  # d(gap)/dx = -4x^3 + 2x + 0.3
             BoundaryFn(base="power", p=2, coeff=1.0, slope=0.3))
    MIXED = (BoundaryFn(base="sqrt", coeff=1.0, slope=0.2),  # in s = sqrt(x): 3s^5 - 2.4s - 1
             BoundaryFn(base="power", p=3, coeff=0.5, slope=-1.0))

    def test_bisected_turns_are_the_roots(self):
        lower, upper = self.CUBIC
        roots = sorted(r.real for r in np.roots([-4.0, 0.0, 2.0, 0.3]))
        turns = _turns(((1.0, upper), (-1.0, lower)), -1.5, 1.5)
        assert len(turns) == 3 and np.allclose(turns, roots, rtol=0.0, atol=1e-12)
        lower, upper = self.MIXED
        (s,) = [r.real for r in np.roots([3.0, 0.0, 0.0, 0.0, -2.4, -1.0])
                if abs(r.imag) < 1e-12 and r.real > 0.0]
        (x,) = _turns(((1.0, upper), (-1.0, lower)), 0.0, 2.0)
        assert abs(x - s * s) < 1e-12

    @pytest.mark.parametrize("terms, lo, hi", [(CUBIC, -0.6, 1.0), (MIXED, 0.0, 2.0)])
    @pytest.mark.parametrize("target", [-1e-9, 0.0, 1e-13])
    def test_worst_at_a_bisected_turn(self, terms, lo, hi, target):
        lower, upper = terms
        x0, v0 = _sampled_worst(lower, upper, lo, hi)
        assert lo < x0 < hi
        lower = lower.shifted(-v0 - target)
        x = _worst_order_point(lower, upper, lo, hi)
        assert abs(x - x0) < 1e-6
        assert lower.value(x) - upper.value(x) >= _sampled_worst(lower, upper, lo, hi)[1] - 1e-12
        ref = roots_worst_order_point(lower, upper, lo, hi)
        assert abs(lower.value(x) - lower.value(ref) - upper.value(x) + upper.value(ref)) < 1e-12
        dom = Domain(Interval(-3.0, 5.0))
        if target < 0.0:
            with pytest.raises(ValueError, match="lower boundary exceeds upper") as exc:
                _flanked(lower, upper, lo, hi, dom)
            assert abs(_order_witness(exc.value) - x0) < 1e-6
        else:
            _flanked(lower, upper, lo, hi, dom)

    def test_exponent_times_coefficient_beyond_the_float_range(self):
        # f' = -1.4357... + 24 * 1.2e307 x^23, whose second coefficient
        # overflows a float unless the coefficients are scaled first
        fn = BoundaryFn(base="power", p=24, coeff=1.2006219461261261e307,
                        slope=-1.4357653661931051)
        (x,) = fn.critical_points(-1.5, 0.33)
        assert abs(x - (-fn.slope / fn.coeff / 24.0) ** (1.0 / 23.0)) <= 1e-15 * x

    def test_order_turn_beyond_the_float_range(self):
        # lower sqrt(x) crosses upper 1e306 x^2000 + 0.8365 near 0.7001; the
        # gap's derivative has the coefficient 4000 * 1e306 in s = sqrt(x)
        lower = BoundaryFn(base="sqrt", coeff=1.0)
        upper = BoundaryFn(base="power", p=2000, coeff=1e306, offset=0.8365)
        x0, v0 = _sampled_worst(lower, upper, 0.25, 0.701)
        assert abs(x0 - 0.7001003) < 1e-6 and v0 > 1e-5
        with pytest.raises(ValueError, match="lower boundary exceeds upper") as exc:
            _flanked(lower, upper, 0.25, 0.701, Domain(Interval(0.0, 2.0)))
        assert abs(_order_witness(exc.value) - x0) < 1e-6

    @pytest.mark.parametrize("p", [400, 1000])
    def test_high_power_piece_builds_fast(self, p):
        # lower 0.1 x^p + 0.25 under upper sqrt(x); np.roots of the dense
        # polynomial of degree 2p + 1 took 1.1 s to build this at p = 400
        lower = BoundaryFn(base="power", p=p, coeff=0.1, offset=0.25)
        upper = BoundaryFn(base="sqrt", coeff=1.0)
        dom = Domain(Interval(0.25, 1.0))
        start = time.perf_counter()
        MultivaluedOperator(dom, (Piece(dom.bounds, lower, upper),))
        assert time.perf_counter() - start < 0.5
        # shifted up until it crosses upper: refused where the sample is worst
        for low, upp in ((lower, upper), (upper, lower.shifted(0.65))):
            x0, v0 = _sampled_worst(low, upp, 0.25, 1.0)
            with pytest.raises(ValueError, match="lower boundary exceeds upper") as exc:
                MultivaluedOperator(dom, (Piece(dom.bounds, low.shifted(1e-9 - v0), upp),))
            assert abs(_order_witness(exc.value) - x0) < 1e-6


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(catalog_operators(), st.sampled_from(_grid_operators())))
def test_piece_ranges_are_taken_at_the_ends(t):
    # construction splits at the extrema, so the self-map check reads the
    # terms at the piece ends only; range_on searches the piece again
    for pc in t.pieces:
        for fn in (pc.lower, pc.upper):
            ends = [fn.value(pc.sub.lo), fn.value(pc.sub.hi)]
            assert fn.range_on(pc.sub.lo, pc.sub.hi) == (min(ends), max(ends))


def test_constant_operator_and_shift(sqrt_t):
    c = setfix.constant_operator(sqrt_t.domain, 2.125)
    assert c.eval(0.3).parts == (Interval(2.125, 2.125),)
    shifted = setfix.shift_operator(sqrt_t, 0.01)
    assert shifted.eval(4.0).parts == (Interval(1.01, 2.01),)
    # shifting far enough breaks the self-map requirement
    with pytest.raises(ValueError, match="self-map"):
        setfix.shift_operator(sqrt_t, 3.0)

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import setfix
from setfix import iteration
from setfix import (
    BoundaryFn,
    Domain,
    InsufficientDataError,
    Interval,
    IntervalUnion,
    MultivaluedOperator,
    OutOfDomainError,
    Piece,
    Takahashi,
    constant_operator,
    dist_point_to_set,
    excess,
    hausdorff,
    orbit_rate,
    orbit_to_csv,
    perturb,
    picard_orbit,
    scan_fixed_points,
    shift_operator,
)
from oracles import (
    brute_set_image,
    catalog_operators,
    exact_end_signs,
    grid_scan_fixed_points,
    jump_to_one_operator,
    linear_pair_operator,
    lipschitz_bound,
    value_bisection,
)


def reflection_operator():
    # T(x) = {1 - x} on [0, 1]: every orbit except from 1/2 oscillates forever
    term = BoundaryFn(slope=-1.0, offset=1.0)
    return MultivaluedOperator(Domain(Interval(0.0, 1.0)),
                               (Piece(Interval(0.0, 1.0), term, term),),
                               name="reflection")


class TestPicardOrbit:
    def test_square_closed_form(self, square_t):
        for x0 in (0.1, 0.3, 0.5, 0.8):
            trace = picard_orbit(square_t, x0, max_n=10, tol=1e-300, target=0.0)
            expected = x0
            for step in trace.steps[1:]:
                expected = expected * expected  # endpoints square each iteration
                part = step.set.parts[0]
                assert abs(part.lo + expected) <= 1e-12
                assert abs(part.hi - expected) <= 1e-12
                assert abs(step.h_to_target - expected) <= 1e-12

    def test_constant_orbit_at_strict_fixed_point(self, sqrt_t):
        trace = picard_orbit(sqrt_t, 1.0, max_n=50, tol=1e-10)
        assert trace.converged
        assert len(trace.steps) == 2  # converged at the first iterate
        assert trace.steps[1].h_to_prev == 0.0
        assert trace.limit_estimate == 1.0

    def test_sqrt_orbit_converges_to_one(self, sqrt_t):
        trace = picard_orbit(sqrt_t, 4.0, max_n=40, tol=1e-10, target=1.0)
        assert trace.converged
        assert len(trace.steps) <= 41
        assert trace.final.h_to_target < 1e-6
        hs = [s.h_to_target for s in trace.steps]
        assert all(b <= a for a, b in zip(hs, hs[1:]))  # monotone approach

    def test_out_of_domain_start(self, sqrt_t):
        with pytest.raises(OutOfDomainError):
            picard_orbit(sqrt_t, 9.0)

    def test_parameter_validation(self, sqrt_t):
        with pytest.raises(setfix.ParameterRangeError):
            picard_orbit(sqrt_t, 1.0, max_n=0)
        with pytest.raises(setfix.ParameterRangeError):
            picard_orbit(sqrt_t, 1.0, tol=0.0)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_target_rejected(self, sqrt_t, target):
        # the target distances would be NaN or inf, which JSON cannot carry
        with pytest.raises(setfix.ParameterRangeError, match="finite target"):
            picard_orbit(sqrt_t, 4.0, target=target)

    def test_stalled_orbit_reported_unconverged(self):
        trace = picard_orbit(reflection_operator(), 0.3, max_n=10_000, tol=1e-12)
        assert not trace.converged
        assert trace.limit_estimate is None
        # stall detector cuts the run far below max_n
        assert len(trace.steps) < 150

    def test_step_indices_consecutive(self, sqrt_t):
        trace = picard_orbit(sqrt_t, 2.0, max_n=30, tol=1e-10)
        assert [s.n for s in trace.steps] == list(range(len(trace.steps)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(catalog_operators(), st.data(), st.one_of(st.none(), st.floats(-3.0, 3.0)))
    def test_target_distance_is_hausdorff_to_the_point(self, t, data, target):
        # target None stands for x0 itself, so step 0 is at distance zero
        x0 = data.draw(st.floats(t.domain.bounds.lo, t.domain.bounds.hi))
        target = x0 if target is None else target
        trace = picard_orbit(t, x0, max_n=20, tol=1e-300, target=target)
        for step in trace.steps:
            expected = hausdorff(step.set, IntervalUnion.singleton(target))
            assert step.h_to_target == expected
            assert math.copysign(1.0, step.h_to_target) == math.copysign(1.0, expected)
            assert type(step.h_to_target) is float

    @pytest.mark.parametrize("x0, steps", [(1.0, 2), (1.5, 3)])
    def test_orbit_through_a_jump_junction(self, x0, steps):
        # the orbits from 1 and 1.5 reach T(1) = {1} and stay there, never
        # taking the left piece's value at the junction
        trace = picard_orbit(jump_to_one_operator(), x0)
        assert (trace.converged, trace.limit_estimate, len(trace.steps)) == (True, 1.0, steps)
        assert trace.final.set.to_json() == {"parts": [[1.0, 1.0]]}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(catalog_operators(), st.data())
    def test_steps_match_brute_force_from_junction_starts(self, t, data):
        # x0 is often a piece start, and the catalog's inner edges are mostly
        # jumps: every value eval takes on S_{n-1} lies in S_n, and every
        # point of S_n within L*h of one, L a Lipschitz bound of the terms
        starts = [pc.sub.lo for pc in t.pieces]
        b = t.domain.bounds
        x0 = data.draw(st.one_of(st.sampled_from(starts), st.floats(b.lo, b.hi)))
        trace = picard_orbit(t, x0, max_n=6, tol=1e-300)
        h = 2e-3
        lip = lipschitz_bound(t)
        for prev, step in zip(trace.steps, trace.steps[1:]):
            sampled = brute_set_image(t, prev.set, h)
            assert excess(sampled, step.set) <= 1e-12
            assert excess(step.set, sampled) <= lip * h + 1e-12

    def test_perturbed_orbit_target_distance_monotone(self, sqrt_tg, square_tg):
        # contractive-toward-x* perturbations approach the target monotonically
        # after the first step
        for op, x0, xstar in ((sqrt_tg, 4.0, 1.0), (sqrt_tg, 0.3, 1.0),
                              (square_tg, 0.5, 0.0), (square_tg, -0.8, 0.0)):
            trace = picard_orbit(op, x0, max_n=200, tol=1e-12, target=xstar)
            hs = [s.h_to_target for s in trace.steps[1:]]
            assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))


class TestOrbitRate:
    def test_square_rate_exact(self, square_t):
        trace = picard_orbit(square_t, 0.5, max_n=12, tol=1e-300, target=0.0)
        assert orbit_rate(trace) == 0.25

    def test_constant_orbit_insufficient(self, sqrt_t):
        trace = picard_orbit(sqrt_t, 1.0, max_n=50, tol=1e-10, target=1.0)
        with pytest.raises(InsufficientDataError):
            orbit_rate(trace)

    def test_sqrt_rate_below_one(self, sqrt_t):
        trace = picard_orbit(sqrt_t, 4.0, max_n=25, tol=1e-14, target=1.0)
        assert orbit_rate(trace) < 1.0


class TestScanFixedPoints:
    def test_square(self, square_t):
        scan = scan_fixed_points(square_t, 10_001, 1e-9)
        assert len(scan.fixed) == 1 and abs(scan.fixed[0]) < 1e-9
        assert scan.strict == scan.fixed

    def test_sqrt(self, sqrt_t):
        scan = scan_fixed_points(sqrt_t, 10_001, 1e-9)
        assert len(scan.fixed) == 1 and abs(scan.fixed[0] - 1.0) < 1e-9
        assert len(scan.strict) == 1 and abs(scan.strict[0] - 1.0) < 1e-9

    def test_perturbed_scan_matches(self, sqrt_t, sqrt_tg, square_t, square_tg):
        # fixed point sets are invariant under admissible perturbation
        for base, pert in ((sqrt_t, sqrt_tg), (square_t, square_tg)):
            s1 = scan_fixed_points(base, 10_001, 1e-9)
            s2 = scan_fixed_points(pert, 10_001, 1e-9)
            assert len(s1.fixed) == len(s2.fixed)
            for a, b in zip(s1.fixed, s2.fixed):
                assert abs(a - b) <= 1e-9
            for a, b in zip(s1.strict, s2.strict):
                assert abs(a - b) <= 1e-9

    def test_scan_with_other_lambdas(self, sqrt_t, square_t):
        for base, lam in ((sqrt_t, 0.5), (square_t, 0.75)):
            pert = perturb(base, Takahashi(lam))
            s1 = scan_fixed_points(base, 5001, 1e-9)
            s2 = scan_fixed_points(pert, 5001, 1e-9)
            assert len(s1.strict) == len(s2.strict) == 1
            assert abs(s1.strict[0] - s2.strict[0]) <= 1e-9

    def test_no_false_root_at_jump(self):
        # T jumps over the diagonal without touching it: no fixed points
        hi_term = BoundaryFn(offset=0.9)
        lo_term = BoundaryFn(offset=0.1)
        op = MultivaluedOperator(
            Domain(Interval(0.0, 1.0)),
            (Piece(Interval(0.0, 0.5), hi_term, hi_term),
             Piece(Interval(0.5, 1.0), lo_term, lo_term)))
        scan = scan_fixed_points(op, 2001, 1e-9)
        assert scan.fixed == ()
        assert scan.strict == ()

    def test_strict_subset_of_fixed(self, sqrt_tg):
        scan = scan_fixed_points(sqrt_tg, 2001, 1e-9)
        for s in scan.strict:
            assert any(abs(s - f) <= scan.tol for f in scan.fixed)


UNIT = Domain(Interval(0.0, 1.0))


def unit_operator(lower: BoundaryFn, upper: BoundaryFn, name: str) -> MultivaluedOperator:
    return MultivaluedOperator(UNIT, (Piece(UNIT.bounds, lower, upper),), name=name)


def jump_operator():
    hi_term, lo_term = BoundaryFn(offset=0.9), BoundaryFn(offset=0.1)
    return MultivaluedOperator(UNIT, (Piece(Interval(0.0, 0.5), hi_term, hi_term),
                                      Piece(Interval(0.5, 1.0), lo_term, lo_term)),
                               name="jump")


def differential_family() -> list[MultivaluedOperator]:
    """Built-ins and the linear example with their Takahashi perturbations,
    shifts and constant-midpoint operators, plus four operators off the
    catalog's usual path: [0, 1]-valued, identity, a jump and [x^2, sqrt(x)]."""
    ops = []
    for base in (setfix.sqrt_example(), setfix.square_example(), linear_pair_operator(0.5)):
        ops.append(base)
        ops += [perturb(base, Takahashi(lam)) for lam in (0.05, 0.2, 0.39, 0.5, 0.61, 0.75, 0.9)]
        ops += [shift_operator(base, d) for d in (0.01, -0.003, 1e-7)]
        ops.append(constant_operator(base.domain, base.domain.bounds.midpoint))
    ops += [
        unit_operator(BoundaryFn(offset=0.0), BoundaryFn(offset=1.0), "unit_valued"),
        unit_operator(BoundaryFn(slope=1.0), BoundaryFn(slope=1.0), "identity"),
        jump_operator(),
        unit_operator(BoundaryFn(base="power", p=2, coeff=1.0),
                      BoundaryFn(base="sqrt", coeff=1.0), "square_sqrt"),
    ]
    return ops


def span(entry) -> tuple[float, float]:
    return entry if isinstance(entry, tuple) else (entry, entry)


def dist_to_entries(x: float, entries) -> float:
    return min((max(lo - x, x - hi, 0.0) for lo, hi in map(span, entries)), default=math.inf)


def probes(entry) -> tuple[float, float, float]:
    lo, hi = span(entry)
    return lo, 0.5 * (lo + hi), hi


def eval_defect(t: MultivaluedOperator, x: float, strict: bool = False) -> float:
    """D(x, T(x)), or H(T(x), {x}) if strict."""
    value = t.eval(x)
    return hausdorff(value, IntervalUnion.singleton(x)) if strict else dist_point_to_set(x, value)


def closure_defect(t: MultivaluedOperator, x: float, strict: bool = False) -> float:
    """eval_defect on the closure of each piece whose closed sub holds x, the
    smaller at a junction: a part ending there is reported closed."""
    out = math.inf
    for pc in t.pieces:
        if pc.sub.lo <= x <= pc.sub.hi:
            lo, hi = pc.lower.value(x), pc.upper.value(x)
            out = min(out, max(abs(lo - x), abs(hi - x)) if strict
                      else max(lo - x, x - hi, 0.0))
    return out


def refuted(t: MultivaluedOperator, x: float, strict: bool, step: float) -> bool:
    """Whether exact arithmetic puts x outside Fix(T) (SFix(T) if strict), with
    the end of T that refutes it on the same side of the diagonal at x - step
    and x + step too (clamped into X): all of T(x) on one side for Fix, either
    end off the diagonal for SFix.

    The grid scan accepts a point within tol of T(x) as eval rounds it, so a
    boundary that comes within tol of the diagonal without meeting it gives an
    oracle point that is no fixed point.  A real crossing near x changes a
    sign between the neighbours, so its oracle points are still checked.
    """
    dom = t.domain.bounds
    signs = [exact_end_signs(t, dom.clamp(y)) for y in (x - step, x, x + step)]
    sides = [{s[end] for s in signs} for end in (0, 1)]
    if strict:
        return any(side in ({1}, {-1}) for side in sides)
    return sides[0] == sides[1] and sides[0] in ({1}, {-1})


def check_against_oracle(t: MultivaluedOperator, grid_n: int, defect,
                         tolerant: bool = False, tol: float = 1e-9) -> None:
    """The exact sets against the grid scan at grid_n.

    Each oracle point lies within one grid step of the exact set, or of a
    piece junction that defect accepts: the scan accepts any point within
    tol of T(x), so it also finds a fixed point that the left piece reaches
    only at the junction, where eval takes the right piece.  With tolerant,
    an oracle point is also accepted where T stays within tol of the
    diagonal over a whole grid step around it: there the scan cannot tell a
    fixed point from a near one, while the exact set holds only the points
    where the boundary terms meet the diagonal.  An oracle point is dropped
    only where exact arithmetic refutes it (see refuted).  Each exact part
    lies in Fix (SFix) within tol at both ends and the midpoint.
    """
    exact = scan_fixed_points(t)
    oracle = grid_scan_fixed_points(t, grid_n)
    step = t.domain.width / (grid_n - 1)
    dom = t.domain.bounds
    junctions = [pc.sub.hi for pc in t.pieces[:-1]]
    for strict, points, entries in ((False, oracle.fixed, exact.fixed),
                                    (True, oracle.strict, exact.strict)):
        def near(x: float) -> bool:
            return defect(t, x, strict) <= tol
        accepted = [e for e in junctions if near(e)]
        for x in points:
            if tolerant and all(near(dom.clamp(y)) for y in (x - step, x, x + step)):
                continue
            if refuted(t, x, strict, step):
                continue
            assert min(dist_to_entries(x, entries), dist_to_entries(x, accepted)) <= step, (
                t.name, strict, x, entries)
        for entry in entries:
            assert all(near(x) for x in probes(entry)), (t.name, strict, entry)
    for entry in exact.strict:
        lo, hi = span(entry)
        assert dist_to_entries(lo, exact.fixed) == dist_to_entries(hi, exact.fixed) == 0.0
    parts = [span(e) for e in exact.fixed]
    assert parts == sorted(parts)
    assert all(b[0] > a[1] for a, b in zip(parts, parts[1:]))


class TestExactFixedPointSets:
    @pytest.mark.parametrize("t", differential_family(), ids=lambda t: t.name)
    def test_family_against_grid_scan(self, t):
        check_against_oracle(t, 1001, eval_defect)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(catalog_operators())
    # eval rounds lower(0.25) to 0.25, so the grid scan reports 0.25; read
    # exactly, lower(0.25) - 0.25 = +2.8e-17 and no fixed point is near it
    @example(MultivaluedOperator(
        Domain(Interval(0.25, 2.0)),
        (Piece(Interval(0.25, 1.0),
               BoundaryFn(base="sqrt", coeff=0.6, slope=0.6, offset=-0.19999999999999996),
               BoundaryFn(offset=1.0)),
         Piece(Interval(1.0, 2.0), BoundaryFn(offset=1.0), BoundaryFn(offset=1.0))),
        name="random"))
    def test_random_operators_against_grid_scan(self, t):
        check_against_oracle(t, 201, closure_defect, tolerant=True)

    def test_unit_valued_fixes_the_whole_domain(self):
        scan = scan_fixed_points(
            unit_operator(BoundaryFn(offset=0.0), BoundaryFn(offset=1.0), "unit_valued"))
        assert scan.fixed == ((0.0, 1.0),)
        assert scan.strict == ()

    def test_identity_is_strict_everywhere(self):
        term = BoundaryFn(slope=1.0)
        scan = scan_fixed_points(unit_operator(term, term, "identity"))
        assert scan.fixed == scan.strict == ((0.0, 1.0),)

    def test_xstar_is_the_single_isolated_strict_point(self, sqrt_t):
        assert scan_fixed_points(sqrt_t).xstar == 1.0
        unit = unit_operator(BoundaryFn(offset=0.0), BoundaryFn(offset=1.0), "unit_valued")
        assert scan_fixed_points(unit).xstar is None
        term = BoundaryFn(slope=1.0)
        assert scan_fixed_points(unit_operator(term, term, "identity")).xstar is None

    def test_shifted_sqrt_fixes_an_interval(self, sqrt_t):
        scan = scan_fixed_points(shift_operator(sqrt_t, 0.01))
        assert len(scan.fixed) == 1 and isinstance(scan.fixed[0], tuple)
        lo, hi = scan.fixed[0]
        assert lo == 1.01
        assert abs(math.sqrt(hi) + 0.01 - hi) <= 1e-12
        assert scan.strict == ()

    def test_perturbed_sqrt_point_is_exact(self, sqrt_tg):
        # x - lower(x) on the composed term is exactly 0 at 1; evaluating
        # x - lower.value(x) instead would smear {1} over a few ulps
        scan = scan_fixed_points(sqrt_tg)
        assert scan.fixed == scan.strict == (1.0,)

    def test_underflow_part_collapses_to_its_midpoint(self, square_tg):
        # x^2 underflows near 0, so {0} is found as a part of a few subnormals
        assert scan_fixed_points(square_tg).fixed == (0.0,)

    def test_single_valued_crossing_between_floats(self):
        # T(x) = {0.6 + 0.1x - 0.4x^2} meets the diagonal between two adjacent
        # floats: x - lower(x) >= 0 starts one ulp after upper(x) - x >= 0 ends
        term = BoundaryFn(base="power", p=2, coeff=-0.4, slope=0.1, offset=0.6)
        t = MultivaluedOperator(UNIT, (Piece(Interval(0.0, 0.125), term, term),
                                       Piece(Interval(0.125, 1.0), term, term)))
        scan = scan_fixed_points(t)
        root = (math.sqrt(1.77) - 0.9) / 0.8
        assert len(scan.fixed) == 1 and abs(scan.fixed[0] - root) <= 2e-16
        assert scan.strict == scan.fixed

    def test_crossing_at_a_junction_stays_in_its_piece(self):
        # the left piece meets the diagonal within an ulp of 1.125, where eval
        # takes the right piece T = {1}; the point reported is the float below
        term = BoundaryFn(slope=1.0 / 7.0, offset=0.9642857142857143)
        one = BoundaryFn(offset=1.0)
        t = MultivaluedOperator(Domain(Interval(0.25, 2.0)),
                                (Piece(Interval(0.25, 1.125), term, term),
                                 Piece(Interval(1.125, 2.0), one, one)))
        scan = scan_fixed_points(t)
        assert scan.fixed == scan.strict == (math.nextafter(1.125, 0.0),)
        assert dist_point_to_set(scan.fixed[0], t.eval(scan.fixed[0])) <= 1e-15

    def test_left_piece_meeting_the_diagonal_only_at_the_junction(self):
        # T(x) = {0.5x + 0.5} on [0.25, 1) meets the diagonal only at 1, where
        # eval takes the right piece: 1 is fixed only if that piece fixes it
        left = BoundaryFn(slope=0.5, offset=0.5)
        for value, fixed in ((0.5, ()), (1.0, (1.0,))):
            right = BoundaryFn(offset=value)
            t = MultivaluedOperator(Domain(Interval(0.25, 2.0)),
                                    (Piece(Interval(0.25, 1.0), left, left),
                                     Piece(Interval(1.0, 2.0), right, right)))
            scan = scan_fixed_points(t)
            assert scan.fixed == scan.strict == fixed

    def test_domain_end_fixed_by_the_clamp(self):
        # T(x) = {0.5x + 0.12499999999999994} meets the diagonal just below
        # X = [0.25, 2]; eval clamps T(0.25) = {0.24999999999999994} to {0.25}
        term = BoundaryFn(slope=0.5, offset=0.12499999999999994)
        t = MultivaluedOperator(Domain(Interval(0.25, 2.0)),
                                (Piece(Interval(0.25, 2.0), term, term),))
        assert t.eval(0.25).parts == (Interval(0.25, 0.25),)
        scan = scan_fixed_points(t)
        assert scan.fixed == scan.strict == (0.25,)

    def test_grid_n_is_recorded_only(self, sqrt_tg):
        assert scan_fixed_points(sqrt_tg, 11).fixed == scan_fixed_points(sqrt_tg).fixed
        assert scan_fixed_points(sqrt_tg, 11).grid_n == 11


# Terms whose sign changes at 0, at the smallest subnormal, at +-1e-300 and
# at generic points, and brackets with a zero end, across 0, or away from it
_SIGN_CHANGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.3, -0.7, 1.0 / 3.0]
_BRACKETS = [(-1.0, 1.0), (0.0, 1.0), (-0.0, 2.0), (-1.5, 0.0), (-2.0, -0.0), (-1.0, 3.0),
             (-5e-324, 1.0), (-0.75, 0.5), (1e-310, 1.0), (-1.0, -1e-310), (0.25, 0.5)]


def _terms_changing_sign_at(r: float) -> list[BoundaryFn]:
    return [BoundaryFn(slope=1.0, offset=-r), BoundaryFn(slope=-2.0, offset=2.0 * r),
            BoundaryFn(base="power", p=3, coeff=1.0, slope=1e-300, offset=-r),
            BoundaryFn(base="power", p=2, coeff=1.0, slope=-1.0, offset=r)]


# x^3 and -x^3 underflow to a zero of either sign; x^2 - x and x + x^2 are
# square_example's; sqrt(x) - 1e-160 changes sign at 1e-320
_ZERO_ROOT_TERMS = [BoundaryFn(base="power", p=3, coeff=1.0),
                    BoundaryFn(base="power", p=3, coeff=-1.0),
                    BoundaryFn(base="power", p=2, coeff=1.0, slope=-1.0),
                    BoundaryFn(base="power", p=2, coeff=1.0, slope=1.0),
                    BoundaryFn(base="sqrt", coeff=1.0, offset=-1e-160),
                    BoundaryFn(base="sqrt", coeff=-1.0, slope=1e-200)]


@pytest.mark.parametrize("r", _SIGN_CHANGES, ids=repr)
def test_nonneg_part_matches_value_bisection(r, monkeypatch):
    # bit for bit the scalar bisection; the halving run is taken only once a
    # bracket end is +-0.0, never for a bracket that does not reach 0
    runs, taken = [], 0
    halvings = iteration._halvings
    monkeypatch.setattr(iteration, "_halvings",
                        lambda *args: runs.append(args) or halvings(*args))
    for fn in _terms_changing_sign_at(r) + (_ZERO_ROOT_TERMS if r == 0.0 else []):
        for u, v in _BRACKETS:
            if fn.base == "sqrt" and u < 0.0:
                continue
            runs.clear()
            got = iteration._nonneg_part(fn, u, v)
            assert repr(got) == repr(value_bisection(fn, u, v)), (fn, u, v)
            assert len(runs) <= 1, (fn, u, v)
            if u > 0.0 or v < 0.0:
                assert not runs, (fn, u, v)
            taken += len(runs)
    assert taken  # (-1, 1) has the midpoint 0


def test_root_at_zero_takes_few_scalar_values(monkeypatch):
    # square_example's x^2 - x and x + x^2 change sign at 0, where the
    # bisection halves down to 5e-324: 2 186 scalar values before the halving
    # run took one array call
    calls = []
    value = BoundaryFn.value
    monkeypatch.setattr(BoundaryFn, "value", lambda fn, x: calls.append(x) or value(fn, x))
    scan = scan_fixed_points(setfix.square_example())
    assert scan.fixed == scan.strict == (0.0,)
    assert len(calls) <= 64


class TestCsvExport:
    def test_header_and_rows(self, square_t):
        trace = picard_orbit(square_t, 0.5, max_n=5, tol=1e-300, target=0.0)
        text = orbit_to_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "n,part0_lo,part0_hi,h_to_prev,h_to_target"
        assert len(lines) == len(trace.steps) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.5 and float(first[2]) == 0.5

    def test_round_trip_values(self, sqrt_t):
        trace = picard_orbit(sqrt_t, 4.0, max_n=6, tol=1e-300, target=1.0)
        lines = orbit_to_csv(trace).strip().splitlines()[1:]
        for line, step in zip(lines, trace.steps):
            cells = line.split(",")
            assert float(cells[-2]) == step.h_to_prev
            assert float(cells[-1]) == step.h_to_target

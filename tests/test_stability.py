from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import setfix
from setfix import (
    ComparisonFunction,
    ContractionParams,
    DecaySpec,
    HypothesisFailedError,
    InsufficientDataError,
    NoApproximateSolutionsError,
    NoStrictFixedPointError,
    ParameterRangeError,
    SchemaError,
    StrictFixedPointMismatchError,
    cauchy_toeplitz_sum,
    constant_operator,
    data_dependence_verify,
    ostrowski_verify,
    psi_mp_data_dependence,
    quasi_contraction_verify,
    shift_operator,
    ulam_hyers_verify,
    unique_strict_fixed_point,
    well_posedness_verify,
)
from setfix import stability
from setfix.operators import dist_to_value
from setfix.stability import ulam_hyers_constant
from oracles import catalog_operators, scalar_well_posedness

SQRT_PARAMS = ContractionParams(0.875, 0.0, 0.0)
SQRT_L = 0.25
#: the combined-variant certificate of sqrt_example|takahashi(0.75) at grid 501
COMBINED_PARAMS = ContractionParams(0.71875, 0.0, 0.1125, "combined")


def sqrt_xi(t, grid_n):
    """The xi check on t at SQRT_PARAMS, SQRT_L and x* = 1, which data dependence takes."""
    return setfix.retraction_displacement_check(t, SQRT_PARAMS, SQRT_L, 1.0, grid_n)


class TestCauchyToeplitz:
    def test_zero_terms(self):
        assert cauchy_toeplitz_sum(0.5, [0.0] * 20, 19) == 0.0

    def test_geometric_closed_form(self):
        b = [0.9 ** j for j in range(51)]
        for n in range(51):
            closed = (0.9 ** (n + 1) - 0.5 ** (n + 1)) / 0.4
            assert abs(cauchy_toeplitz_sum(0.5, b, n) - closed) <= 1e-12

    def test_harmonic_terms_decay(self):
        b = [1.0 / (j + 1) for j in range(301)]
        c300 = cauchy_toeplitz_sum(0.5, b, 300)
        c150 = cauchy_toeplitz_sum(0.5, b, 150)
        assert c300 < 0.02
        assert c300 < c150

    def test_discrete_tail_bound(self):
        # c_n <= k^(n-m) c_m + max_{j>m} b_j / (1-k) for every m < n
        k = 0.5
        b = [1.0 / (j + 1) for j in range(301)]
        for m in (10, 50, 150):
            n = 300
            cm = cauchy_toeplitz_sum(k, b, m)
            cn = cauchy_toeplitz_sum(k, b, n)
            tail = max(b[m + 1:n + 1]) / (1 - k)
            assert cn <= k ** (n - m) * cm + tail + 1e-12

    def test_parameter_errors(self):
        with pytest.raises(ParameterRangeError):
            cauchy_toeplitz_sum(1.0, [1.0], 0)
        with pytest.raises(ParameterRangeError):
            cauchy_toeplitz_sum(0.0, [1.0], 0)
        with pytest.raises(ParameterRangeError):
            cauchy_toeplitz_sum(0.5, [-1.0], 0)
        with pytest.raises(InsufficientDataError):
            cauchy_toeplitz_sum(0.5, [1.0], 3)


class TestUlamHyers:
    def test_sqrt_bound_holds(self, sqrt_t, sqrt_tg):
        rep = ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, SQRT_PARAMS, SQRT_L,
                                [0.1, 0.05, 0.01], 100)
        assert rep.holds
        assert rep.property == "UlamHyers"
        assert rep.samples >= 150
        # constant formula is the exact arithmetic expression
        assert rep.constant == ulam_hyers_constant(SQRT_PARAMS, SQRT_L)
        assert rep.constant == SQRT_L * (1.0 + 0.0) / (1.0 - 0.875)
        per_eps = rep.details["per_eps"]
        assert [e["eps"] for e in per_eps] == [0.1, 0.05, 0.01]
        assert all(e["samples"] >= 50 for e in per_eps)

    def test_too_small_eps_raises(self):
        # strict fixed point 2/3 falls between sampling-grid points, so the
        # smallest achievable grid residual is ~1e-6 and eps below it is
        # unsampleable
        term = setfix.BoundaryFn(slope=0.5, offset=1.0 / 3.0)
        t = setfix.MultivaluedOperator(
            setfix.Domain(setfix.Interval(0.0, 1.0)),
            (setfix.Piece(setfix.Interval(0.0, 1.0), term, term),))
        tg = setfix.perturb(t, setfix.Takahashi(0.5))
        with pytest.raises(NoApproximateSolutionsError):
            ulam_hyers_verify(t, tg, unique_strict_fixed_point(t),
                              ContractionParams(0.5, 0.0, 0.0), 0.5,
                              [1e-18], 10)

    def test_strict_point_checked_at_scan_tolerance(self, sqrt_t, sqrt_tg):
        # T_G + 1e-7 misses x* = 1 by 1e-7: far above the 1e-9 tolerance of
        # the scan that locates x*, so the shared-point premise fails
        with pytest.raises(StrictFixedPointMismatchError):
            ulam_hyers_verify(sqrt_t, shift_operator(sqrt_tg, 1e-7), 1.0,
                              SQRT_PARAMS, SQRT_L, [0.1])

    def test_sampling_order_is_built_once_read_only(self):
        order = stability._uh_order()
        assert stability._uh_order() is order and not order.flags.writeable
        want = np.random.default_rng(0).permutation(stability.UH_SAMPLING_GRID)
        assert np.array_equal(order, want)

    def test_parameter_errors(self, sqrt_t, sqrt_tg):
        with pytest.raises(ParameterRangeError):
            ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, SQRT_PARAMS, SQRT_L, [])
        with pytest.raises(ParameterRangeError):
            ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, SQRT_PARAMS, SQRT_L, [-0.1])
        with pytest.raises(ParameterRangeError):
            ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, SQRT_PARAMS, 0.0, [0.1])
        with pytest.raises(ParameterRangeError):
            ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, SQRT_PARAMS, SQRT_L, [0.1], 0)


class TestWellPosedness:
    def test_sqrt_constructed_sequence(self, sqrt_t):
        rep = well_posedness_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L,
                                    DecaySpec(0.1, 0.8), 60)
        assert rep.holds
        assert rep.details["final_error"] < 1e-4
        assert rep.worst_ratio <= 1.0 + 1e-9

    def test_reuses_the_construction_residuals(self, sqrt_t, monkeypatch):
        # T is evaluated only to construct the u_n: the ratios read the
        # residuals found there, with no second eval_grid over all u_n
        calls = []
        eval_grid = setfix.MultivaluedOperator.eval_grid
        monkeypatch.setattr(setfix.MultivaluedOperator, "eval_grid",
                            lambda op, xs: calls.append(len(xs)) or eval_grid(op, xs))
        spec = DecaySpec(0.1, 0.8)
        stability._points_with_residuals(sqrt_t, 1.0,
                                         np.array([spec.value(n) for n in range(61)]))
        construction = list(calls)
        calls.clear()
        well_posedness_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, spec, 60)
        assert calls == construction

    def test_square_with_explicit_params(self, square_t):
        # bound check is meaningful for any parameter triple the caller supplies
        rep = well_posedness_verify(square_t, 0.0, ContractionParams(0.9, 0.0, 0.0),
                                    0.5, DecaySpec(0.05, 0.9), 60)
        assert rep.holds
        assert rep.details["final_error"] < 1e-2

    def test_non_decaying_not_applicable(self, sqrt_t):
        # a violated premise raises; run_scenario reports it as not applicable
        with pytest.raises(HypothesisFailedError, match=re.escape(
                "residual targets do not decay to zero; the well-posedness premise "
                "D(u_n, T(u_n)) -> 0 is violated by construction "
                '(sequence {"initial": 0.1, "ratio": 1.0})')):
            well_posedness_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, DecaySpec(0.1, 1.0), 10)

    def test_unreachable_residual_bracket(self, sqrt_t):
        with pytest.raises(setfix.ConstructionFailedError):
            well_posedness_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L,
                                  DecaySpec(100.0, 0.8), 5)


def _builtins_and_perturbations():
    sqrt, square = setfix.sqrt_example(), setfix.square_example()
    return [sqrt, square, setfix.perturb(sqrt, setfix.Takahashi(0.75)),
            setfix.perturb(square, setfix.Takahashi(0.5))]


def _same_as_scalar(t, xstar, targets, c=2.0):
    """The lockstep search gives the scalar reference's u_n bit for bit, or
    raises its ConstructionFailedError message; returns the reference, or the
    message."""
    try:
        ref = scalar_well_posedness(t, xstar, c, targets)
    except setfix.ConstructionFailedError as exc:
        with pytest.raises(setfix.ConstructionFailedError) as got:
            stability._points_with_residuals(t, xstar, np.array(targets))
        assert str(got.value) == str(exc)
        return str(exc)
    u, res = stability._points_with_residuals(t, xstar, np.array(targets))
    assert [repr(v) for v in u.tolist()] == [repr(v) for v in ref["u"]]
    # the residuals it returns are those eval_grid gives at the u_n
    assert res.tobytes() == dist_to_value(u, *t.eval_grid(u)).tobytes()
    return ref


def _same_report_as_scalar(t, xstar, params, L, spec, n_max):
    ref = _same_as_scalar(t, xstar, [spec.value(n) for n in range(n_max + 1)],
                          ulam_hyers_constant(params, L))
    if isinstance(ref, str):
        with pytest.raises(setfix.ConstructionFailedError, match=re.escape(ref)):
            well_posedness_verify(t, xstar, params, L, spec, n_max)
        return None
    rep = well_posedness_verify(t, xstar, params, L, spec, n_max)
    got = (rep.worst_ratio, rep.details["final_error"], rep.details["max_error"])
    assert list(map(repr, got)) == [
        repr(ref[k]) for k in ("worst_ratio", "final_error", "max_error")]
    return rep


class TestWellPosednessAgainstScalarSearch:
    # initial = 0 keeps every u_n = x*; ratio = 0 leaves one positive band;
    # the large and the fast-decaying specs end at a band that neither side
    # reaches (the first band, or one past the float resolution at x*)
    SPECS = [DecaySpec(0.1, 0.8), DecaySpec(0.05, 0.9), DecaySpec(0.0, 0.5),
             DecaySpec(0.3, 0.0), DecaySpec(1.0, 0.5), DecaySpec(0.1, 0.1),
             DecaySpec(100.0, 0.8)]

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    @pytest.mark.parametrize("t", _builtins_and_perturbations(), ids=lambda t: t.name)
    def test_builtins(self, t, spec):
        _same_report_as_scalar(t, unique_strict_fixed_point(t),
                               ContractionParams(0.5, 0.1, 0.1), 0.5, spec, 40)

    def test_last_midpoint_decides(self, square_t):
        # floats are dense at x* = 0: the band of r_197 = 0.1 * 2^-197 is met
        # only by the midpoint after the 200 halvings, and r_198's by none
        params = ContractionParams(0.5, 0.1, 0.1)
        assert _same_report_as_scalar(square_t, 0.0, params, 0.5,
                                      DecaySpec(0.1, 0.5), 197) is not None
        assert _same_report_as_scalar(square_t, 0.0, params, 0.5,
                                      DecaySpec(0.1, 0.5), 198) is None

    def test_side_tried_when_its_end_meets_the_target(self):
        # T(x) = {x/4} on [0, 1]: D(1, T(1)) = 0.75 is the target of [0.5, 1]
        term = setfix.BoundaryFn(slope=0.25)
        t = setfix.MultivaluedOperator(
            setfix.Domain(setfix.Interval(0.0, 1.0)),
            (setfix.Piece(setfix.Interval(0.0, 1.0), term, term),))
        assert _same_report_as_scalar(t, 0.0, SQRT_PARAMS, 1.0,
                                      DecaySpec(1.0, 0.5), 10) is not None

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(catalog_operators(), st.floats(0.0, 0.5), st.floats(0.0, 0.9))
    def test_catalog_operators(self, t, initial, ratio):
        xstar = setfix.scan_fixed_points(t).xstar
        assume(xstar is not None)
        _same_report_as_scalar(t, xstar, SQRT_PARAMS, 1.0, DecaySpec(initial, ratio), 15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(catalog_operators(), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 0.9))
    def test_catalog_operators_from_any_start(self, t, at, initial, ratio):
        # the search needs no fixed point: start it anywhere in the domain
        b = t.domain.bounds
        xstar = b.lo + at * (b.hi - b.lo)
        _same_as_scalar(t, xstar, [DecaySpec(initial, ratio).value(n) for n in range(16)])


class TestOstrowski:
    def test_sqrt_perturbed_orbit(self, sqrt_t):
        rep = ostrowski_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, 4.0,
                               DecaySpec(0.1, 0.5), 60)
        assert rep.holds
        assert rep.details["final_error"] < 1e-6
        assert rep.details["k_derived"] == 0.875
        # the alternative normalization is reported alongside
        assert rep.details["k_printed"] == (0.875 + 0.0) / (1.0 - 0.875)

    def test_convergence_term_sets_the_worst_ratio(self, sqrt_t):
        # after 3 steps from 4.0 the orbit is still far from x*, so
        # |v_final - x*| / final_tol outweighs every recurrence ratio
        rep = ostrowski_verify(sqrt_t, 1.0, SQRT_PARAMS, 0.250000000000074, 4.0,
                               DecaySpec(0.1, 0.5), n_max=3)
        assert rep.worst_ratio == rep.details["final_error"] / rep.details["final_tol"]
        assert rep.worst_ratio == 192995.53182925112

    def test_zero_delta_is_plain_selection_orbit(self, sqrt_t):
        rep = ostrowski_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, 4.0,
                               DecaySpec(0.0, 0.5), 60)
        assert rep.holds
        assert rep.details["final_error"] < 1e-9

    def test_zero_k_takes_the_recurrence_as_is(self, sqrt_t):
        # at params (0, 0, 0), k = 0 and L(1+g)/(1-g) = L: the bound after
        # step n is L * r_n, and the start's term k^(n+1)|v_0 - x*| is 0
        spec, n_max = DecaySpec(0.1, 0.5), 20
        rep = ostrowski_verify(sqrt_t, 1.0, ContractionParams(0.0, 0.0, 0.0), SQRT_L, 4.0,
                               spec, n_max)
        assert rep.details["k_derived"] == 0.0 and rep.constant == 0.0
        bounds = sqrt_t.domain.bounds
        v, worst = bounds.clamp(4.0), 0.0
        for n in range(n_max):
            image = sqrt_t.eval(v)
            base = setfix.nearest_point(image, v)
            delta = spec.value(n)
            v_next = bounds.clamp(base + (delta if n % 2 == 0 else -delta))
            if setfix.dist_point_to_set(v_next, image) > delta:
                v_next = base
            r = setfix.dist_point_to_set(v_next, image)
            worst = max(worst, float(stability._ratio(r, delta)),
                        float(stability._ratio(abs(v_next - 1.0), SQRT_L * r)))
            v = v_next
        assert rep.worst_ratio == max(worst, abs(v - 1.0) / 1e-6)

    def test_construction_residual_sets_the_packaged_worst_ratio(self, sqrt_t):
        # sqrt_takahashi_34's Ostrowski run: r_n / delta_n peaks at step 2,
        # while |v_{n+1} - x*| over its bound peaks at 0.38095238095238093, at step 0
        rep = ostrowski_verify(sqrt_t, 1.0, ContractionParams(0.875, 0, 0),
                               0.250000000000074, 4.0, DecaySpec(0.1, 0.5))
        assert rep.details["worst_step"] == 2
        assert rep.worst_ratio == 0.9999999999999964

    def test_constant_delta_not_applicable(self, sqrt_t):
        with pytest.raises(HypothesisFailedError, match=re.escape(
                "perturbation magnitudes do not decay to zero; the Ostrowski premise "
                "D(v_{n+1}, T(v_n)) -> 0 is violated by construction "
                '(delta {"initial": 0.1, "ratio": 1.0})')):
            ostrowski_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, 4.0, DecaySpec(0.1, 1.0), 30)

    def test_square_selection_orbit(self, square_t):
        rep = ostrowski_verify(square_t, 0.0, ContractionParams(0.9, 0.0, 0.0), 0.5,
                               0.5, DecaySpec(0.05, 0.5), 60)
        assert rep.holds
        assert rep.details["final_error"] < 1e-6

    @pytest.mark.xfail(strict=True, reason="the coded bound weighs each perturbation r_j "
                       "by L(1+g)/(1-g) = 0.25, but one step can move v a full r_j from "
                       "x*; see README, Known measured discrepancies")
    @pytest.mark.parametrize("x0", [0.9, 0.95, 1.0])
    def test_bound_holds_near_the_fixed_point(self, sqrt_t, x0):
        rep = ostrowski_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, x0, DecaySpec(0.1, 0.5))
        assert rep.holds, rep.worst_ratio


class TestQuasiContraction:
    def test_strong_on_linear_example(self, linear_t, linear_tg, linear_tg_cert):
        l = setfix.sup_ratio_l(linear_t, linear_tg, 0.0, 2001).value
        rep = quasi_contraction_verify(linear_t, linear_tg, 0.0, l,
                                       linear_tg_cert.params, 2001, weak=False)
        assert rep.holds
        assert rep.property == "QuasiContraction"
        assert rep.constant < 1.0

    def test_strong_rejects_constant_above_one(self, sqrt_t, sqrt_tg):
        l = setfix.sup_ratio_l(sqrt_t, sqrt_tg, 1.0, 1001).value  # 16/9
        with pytest.raises(ParameterRangeError):
            quasi_contraction_verify(sqrt_t, sqrt_tg, 1.0, l, SQRT_PARAMS, 1001)

    def test_weak_trivial_on_sqrt(self, sqrt_t, sqrt_tg):
        l = setfix.sup_gap_ratio_l(sqrt_t, sqrt_tg, 1.0, 1001).value
        rep = quasi_contraction_verify(sqrt_t, sqrt_tg, 1.0, l, SQRT_PARAMS, 1001,
                                       weak=True)
        assert rep.holds
        assert rep.property == "WeakQuasiContraction"
        assert rep.worst_ratio == 0.0


@pytest.mark.parametrize("gamma", [1.0, 1.5])
def test_k_needs_gamma_below_one(gamma):
    # the combined region a + 2b + 2g < 1 rejects these params at construction,
    # so no harness sees a k whose denominator is zero or negative
    with pytest.raises(ParameterRangeError, match="combined region"):
        ContractionParams(0.1, 0.1, gamma, "combined")


#: Every public call that takes a grid size, at grid_n = 1.  certify_contraction
#: keeps its own DegenerateDomainError; scan_fixed_points only records grid_n.
_ONE_POINT_GRID = {
    "Domain.grid": lambda t, tg: t.domain.grid(1),
    "certify_contraction": lambda t, tg: setfix.certify_contraction(tg, "ciric", 1),
    "sup_ratio_l": lambda t, tg: setfix.sup_ratio_l(t, tg, 1.0, 1),
    "sup_gap_ratio_l": lambda t, tg: setfix.sup_gap_ratio_l(t, tg, 1.0, 1),
    "displacement_constant_L": lambda t, tg: setfix.displacement_constant_L(t, tg, 1),
    "retraction_displacement_check": lambda t, tg: setfix.retraction_displacement_check(
        t, SQRT_PARAMS, SQRT_L, 1.0, 1),
    "data_dependence_verify": lambda t, tg: data_dependence_verify(
        t, tg, 1.0, sqrt_xi(t, 501), 1),
    "psi_mp_data_dependence": lambda t, tg: psi_mp_data_dependence(
        t, tg, tg, 1.0, ComparisonFunction("linear", 10.0), 1.0, 1),
    "quasi_contraction_verify": lambda t, tg: quasi_contraction_verify(
        t, tg, 1.0, 0.5, SQRT_PARAMS, 1),
}


@pytest.mark.parametrize("name", sorted(_ONE_POINT_GRID))
def test_one_point_grid_is_a_parameter_error(name, sqrt_t, sqrt_tg):
    error = (setfix.DegenerateDomainError if name == "certify_contraction"
             else ParameterRangeError)
    with pytest.raises(error, match="2"):
        _ONE_POINT_GRID[name](sqrt_t, sqrt_tg)


class TestDataDependence:
    def test_identical_operators(self, sqrt_t, sqrt_tg):
        rep = data_dependence_verify(sqrt_t, sqrt_t, 1.0, sqrt_xi(sqrt_t, 1001), 1001)
        assert rep.holds
        assert rep.details["eta"] == 0.0
        assert rep.worst_ratio == 0.0

    def test_constant_comparison_operator(self, sqrt_t):
        f = constant_operator(sqrt_t.domain, 2.125)
        rep = data_dependence_verify(sqrt_t, f, 1.0, sqrt_xi(sqrt_t, 1001), 1001)
        assert rep.holds
        assert abs(rep.details["eta"] - 1.125) <= 1e-12
        assert rep.details["comparison_strict_points"] == [2.125]

    def test_small_perturbation_comparison(self, sqrt_t):
        f = setfix.perturb(sqrt_t, setfix.Takahashi(0.05))
        rep = data_dependence_verify(sqrt_t, f, 1.0, sqrt_xi(sqrt_t, 1001), 1001)
        assert rep.holds  # same strict fixed point, small eta

    def test_retraction_displacement_failure_not_applicable(self):
        # T(x) = [x/2, x] fixes every x of [0, 1], and only x* = 0 strictly:
        # D(x, T(x)) = 0 while |x - x*| > 0, so no xi >= 1e-6 holds
        t = setfix.MultivaluedOperator(
            setfix.Domain(setfix.Interval(0.0, 1.0)),
            (setfix.Piece(setfix.Interval(0.0, 1.0), setfix.BoundaryFn(slope=0.5),
                          setfix.BoundaryFn(slope=1.0)),))
        xi = setfix.retraction_displacement_check(t, ContractionParams(0.5, 0.0, 0.0), 0.5,
                                                  0.0, 201)
        with pytest.raises(HypothesisFailedError) as exc:
            data_dependence_verify(t, t, 0.0, xi, 201)
        assert str(exc.value) == ("retraction-displacement condition failed on the grid "
                                  "(xi_max < 1e-6)")

    def test_shifted_operator_loses_strictness(self, sqrt_t):
        # a value translation keeps the set widths, so no point has T(y) = {y}
        f = shift_operator(sqrt_t, 0.01)
        with pytest.raises(NoStrictFixedPointError):
            data_dependence_verify(sqrt_t, f, 1.0, sqrt_xi(sqrt_t, 1001), 1001)

    @pytest.mark.parametrize("K", [float("nan"), 0.0, -1.0, float("-inf")])
    def test_holding_xi_without_a_positive_constant_gets_no_verdict(self, sqrt_t, K):
        # only retraction_displacement_check builds a holding XiResult; a
        # hand-built one whose K~ is not > 0, NaN included, is refused
        with pytest.raises(ParameterRangeError, match="K~ > 0"):
            data_dependence_verify(sqrt_t, sqrt_t, 1.0, setfix.XiResult(0.5, True, K), 1001)


#: The harnesses whose constants are derived for the ciric condition only,
#: each called on sqrt_example with the given params.  Data dependence takes
#: its constant from retraction_displacement_check, which refuses such params
#: (TestRetractionDisplacement.test_other_variants_refused).
_CIRIC_ONLY = {
    "UlamHyers": lambda t, tg, p: ulam_hyers_verify(t, tg, 1.0, p, SQRT_L, [0.1, 0.05, 0.01]),
    "WellPosed": lambda t, tg, p: well_posedness_verify(t, 1.0, p, SQRT_L, DecaySpec(0.1, 0.8)),
    "Ostrowski": lambda t, tg, p: ostrowski_verify(t, 1.0, p, SQRT_L, 4.0, DecaySpec(0.1, 0.5)),
}


@pytest.mark.parametrize("prop", sorted(_CIRIC_ONLY))
def test_params_of_another_variant_get_no_verdict(prop, sqrt_t, sqrt_tg):
    # called directly with a combined certificate, each harness raises the
    # reason run_scenario writes for a combined scenario, and gives no ciric verdict
    with pytest.raises(ParameterRangeError) as exc:
        _CIRIC_ONLY[prop](sqrt_t, sqrt_tg, COMBINED_PARAMS)
    assert str(exc.value) == ("the stability constants are derived for the ciric "
                              "condition, not for variant 'combined'")
    ciric = ContractionParams(COMBINED_PARAMS.alpha, COMBINED_PARAMS.beta,
                              COMBINED_PARAMS.gamma)
    assert _CIRIC_ONLY[prop](sqrt_t, sqrt_tg, ciric).applicable


NAN = float("nan")

#: Each call passes NaN for one numeric argument on sqrt_example, x* = 1.
_NAN_ARGUMENT = {
    "DecaySpec.initial": lambda t, tg: DecaySpec(NAN, 0.5),
    "DecaySpec.ratio": lambda t, tg: DecaySpec(0.1, NAN),
    "ComparisonFunction.C": lambda t, tg: ComparisonFunction("linear", NAN),
    "ComparisonFunction.p": lambda t, tg: ComparisonFunction("power", 1.0, NAN),
    "ComparisonFunction(t)": lambda t, tg: ComparisonFunction("linear", 1.0)(NAN),
    "cauchy_toeplitz_sum term": lambda t, tg: cauchy_toeplitz_sum(0.5, [NAN], 0),
    "cauchy_toeplitz_sum n": lambda t, tg: cauchy_toeplitz_sum(0.5, [0.1], NAN),
    "psi_mp c": lambda t, tg: psi_mp_data_dependence(
        t, tg, tg, 1.0, ComparisonFunction("linear", 10.0), NAN, 101),
    "ulam_hyers eps": lambda t, tg: ulam_hyers_verify(t, tg, 1.0, SQRT_PARAMS, SQRT_L, [NAN]),
    "ulam_hyers L": lambda t, tg: ulam_hyers_verify(t, tg, 1.0, SQRT_PARAMS, NAN, [0.1]),
    "ulam_hyers samples_per_eps": lambda t, tg: ulam_hyers_verify(
        t, tg, 1.0, SQRT_PARAMS, SQRT_L, [0.1], NAN),
    "well_posed L": lambda t, tg: well_posedness_verify(
        t, 1.0, SQRT_PARAMS, NAN, DecaySpec(0.1, 0.8)),
    "well_posed n_max": lambda t, tg: well_posedness_verify(
        t, 1.0, SQRT_PARAMS, SQRT_L, DecaySpec(0.1, 0.8), NAN),
    "ostrowski L": lambda t, tg: ostrowski_verify(
        t, 1.0, SQRT_PARAMS, NAN, 4.0, DecaySpec(0.1, 0.5), 3),
    "ostrowski n_max": lambda t, tg: ostrowski_verify(
        t, 1.0, SQRT_PARAMS, SQRT_L, 4.0, DecaySpec(0.1, 0.5), NAN),
    "ostrowski final_tol": lambda t, tg: ostrowski_verify(
        t, 1.0, SQRT_PARAMS, SQRT_L, 4.0, DecaySpec(0.1, 0.5), 3, final_tol=NAN),
    "quasi_contraction l": lambda t, tg: quasi_contraction_verify(
        t, tg, 1.0, NAN, SQRT_PARAMS, 101),
}


@pytest.mark.parametrize("arg", sorted(_NAN_ARGUMENT))
def test_nan_argument_is_a_parameter_error(arg, sqrt_t, sqrt_tg):
    # each check is written so that NaN fails it, instead of passing it silently
    with pytest.raises(ParameterRangeError):
        _NAN_ARGUMENT[arg](sqrt_t, sqrt_tg)


class TestPsiMP:
    def test_sqrt_linear_auto(self, sqrt_t, sqrt_tg):
        xi = setfix.retraction_displacement_check(
            sqrt_tg, SQRT_PARAMS, 1.0, 1.0, 1001)
        C = (1.0 + 0.0) / ((1.0 - 0.875) * xi.xi_max)
        psi = ComparisonFunction("linear", C)
        rep = psi_mp_data_dependence(sqrt_t, sqrt_t, sqrt_tg, 1.0, psi, SQRT_L, 1001)
        assert rep.holds

    def test_square_power_law(self, square_t, square_tg):
        psi = ComparisonFunction("power", 4.000001, 0.5)
        rep = psi_mp_data_dependence(square_t,
                                     constant_operator(square_t.domain, 0.1),
                                     square_tg, 0.0, psi, 0.5, 1001)
        assert rep.holds

    def test_premise_failure_raises(self, square_t, square_tg):
        psi = ComparisonFunction("power", 1.0, 0.5)  # far too small near the rim
        with pytest.raises(HypothesisFailedError):
            psi_mp_data_dependence(square_t, square_t, square_tg, 0.0, psi, 0.5, 1001)

    def test_displacement_premise_checked(self, sqrt_t, sqrt_tg):
        psi = ComparisonFunction("linear", 100.0)
        with pytest.raises(HypothesisFailedError, match="displacement"):
            psi_mp_data_dependence(sqrt_t, sqrt_t, sqrt_tg, 1.0, psi, 0.01, 1001)

    def test_displacement_premise_at_its_bound(self, sqrt_t, sqrt_tg):
        # c a millionth below L = sup D(x,T_G(x))/D(x,T(x)) fails the premise,
        # c = L passes it; F is the constant midpoint, as in the packaged run
        f = constant_operator(sqrt_t.domain, sqrt_t.domain.bounds.midpoint)
        psi = ComparisonFunction("linear", 8.0)
        L = setfix.displacement_constant_L(sqrt_t, sqrt_tg, 501).value
        assert L == 0.2500000000000074
        with pytest.raises(HypothesisFailedError, match="displacement premise fails"):
            psi_mp_data_dependence(sqrt_t, f, sqrt_tg, 1.0, psi, L * (1.0 - 1e-6), 501)
        rep = psi_mp_data_dependence(sqrt_t, f, sqrt_tg, 1.0, psi, L, 501)
        assert rep.holds
        assert rep.worst_ratio == 0.9981354813866858


class TestReportShape:
    def test_holds_matches_worst_ratio(self, sqrt_t, sqrt_tg):
        rep = ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, SQRT_PARAMS, SQRT_L, [0.1], 50)
        assert rep.applicable
        assert rep.holds == (rep.worst_ratio <= 1.0 + 1e-9)
        blob = rep.to_json()
        assert set(blob) == {"property", "holds", "constant", "samples",
                             "worst_ratio", "applicable", "details"}

    def test_comparison_function_validation(self):
        with pytest.raises(ParameterRangeError):
            ComparisonFunction("linear", 0.0)
        with pytest.raises(ParameterRangeError):
            ComparisonFunction("power", 1.0, 0.0)
        with pytest.raises(ParameterRangeError):
            ComparisonFunction("banana", 1.0)
        f = ComparisonFunction("power", 2.0, 0.5)
        assert f(0.0) == 0.0
        assert f(0.25) == 1.0

    @pytest.mark.parametrize("obj", [
        {"kind": "linear", "C": True},
        {"kind": "linear", "C": False},
        {"kind": "power", "C": 2.0, "p": True},
        {"kind": "linear", "C": "2.0"},
        {"kind": "linear", "C": None},
        {"kind": "linear"},
    ])
    def test_comparison_function_json_needs_numbers(self, obj):
        with pytest.raises(SchemaError):
            ComparisonFunction.from_json(obj)

    def test_comparison_function_json_round_trip(self):
        for f in (ComparisonFunction("linear", 2), ComparisonFunction("power", 4.0, 0.5)):
            assert ComparisonFunction.from_json(f.to_json()) == f

    def test_unique_strict_fixed_point_helper(self, sqrt_t):
        assert abs(unique_strict_fixed_point(sqrt_t) - 1.0) <= 1e-9
        with pytest.raises(NoStrictFixedPointError):
            unique_strict_fixed_point(shift_operator(sqrt_t, 0.01))

    def test_unique_strict_fixed_point_needs_an_isolated_point(self, sqrt_t):
        identity = setfix.MultivaluedOperator(
            sqrt_t.domain, (setfix.Piece(sqrt_t.domain.bounds, setfix.BoundaryFn(slope=1.0),
                                         setfix.BoundaryFn(slope=1.0)),))
        with pytest.raises(NoStrictFixedPointError):
            unique_strict_fixed_point(identity)

    def test_strict_part_of_comparison_checked_at_its_ends(self, sqrt_t):
        # SFix of the identity on [1/4, 4] is one part; |y - x*| peaks at y = 4
        identity = setfix.MultivaluedOperator(
            sqrt_t.domain, (setfix.Piece(sqrt_t.domain.bounds, setfix.BoundaryFn(slope=1.0),
                                         setfix.BoundaryFn(slope=1.0)),))
        rep = data_dependence_verify(sqrt_t, identity, 1.0, sqrt_xi(sqrt_t, 201), 201)
        assert rep.details["comparison_strict_points"] == [[0.25, 4.0]]
        assert rep.details["worst_strict_point"] == 4.0
        assert rep.samples == 2

    def test_decay_spec(self):
        s = DecaySpec(0.1, 0.8)
        assert s.decays
        assert s.value(2) == 0.1 * 0.8 ** 2
        assert not DecaySpec(0.1, 1.0).decays
        assert DecaySpec(0.0, 1.0).decays
        with pytest.raises(ParameterRangeError):
            DecaySpec(-0.1, 0.5)

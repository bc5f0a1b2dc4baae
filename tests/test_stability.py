from __future__ import annotations

import pytest

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
from setfix.stability import ulam_hyers_constant

SQRT_PARAMS = ContractionParams(0.875, 0.0, 0.0)
SQRT_L = 0.25


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

    def test_parameter_errors(self, sqrt_t, sqrt_tg):
        with pytest.raises(ParameterRangeError):
            ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, SQRT_PARAMS, SQRT_L, [])
        with pytest.raises(ParameterRangeError):
            ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, SQRT_PARAMS, SQRT_L, [-0.1])
        with pytest.raises(ParameterRangeError):
            ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, SQRT_PARAMS, 0.0, [0.1])


class TestWellPosedness:
    def test_sqrt_constructed_sequence(self, sqrt_t):
        rep = well_posedness_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L,
                                    DecaySpec(0.1, 0.8), 60)
        assert rep.holds
        assert rep.details["final_error"] < 1e-4
        assert rep.worst_ratio <= 1.0 + 1e-9

    def test_square_with_explicit_params(self, square_t):
        # bound check is meaningful for any parameter triple the caller supplies
        rep = well_posedness_verify(square_t, 0.0, ContractionParams(0.9, 0.0, 0.0),
                                    0.5, DecaySpec(0.05, 0.9), 60)
        assert rep.holds
        assert rep.details["final_error"] < 1e-2

    def test_non_decaying_not_applicable(self, sqrt_t):
        rep = well_posedness_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L,
                                    DecaySpec(0.1, 1.0), 10)
        assert not rep.applicable
        assert "reason" in rep.details

    def test_unreachable_residual_bracket(self, sqrt_t):
        with pytest.raises(setfix.ConstructionFailedError):
            well_posedness_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L,
                                  DecaySpec(100.0, 0.8), 5)


class TestOstrowski:
    def test_sqrt_perturbed_orbit(self, sqrt_t):
        rep = ostrowski_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, 4.0,
                               DecaySpec(0.1, 0.5), 60)
        assert rep.holds
        assert rep.details["final_error"] < 1e-6
        assert rep.details["k_derived"] == 0.875
        # the alternative normalization is reported alongside
        assert rep.details["k_printed"] == (0.875 + 0.0) / (1.0 - 0.875)

    def test_zero_delta_is_plain_selection_orbit(self, sqrt_t):
        rep = ostrowski_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, 4.0,
                               DecaySpec(0.0, 0.5), 60)
        assert rep.holds
        assert rep.details["final_error"] < 1e-9

    def test_constant_delta_not_applicable(self, sqrt_t):
        rep = ostrowski_verify(sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, 4.0,
                               DecaySpec(0.1, 1.0), 30)
        assert not rep.applicable

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


class TestDataDependence:
    def test_identical_operators(self, sqrt_t, sqrt_tg):
        rep = data_dependence_verify(sqrt_t, sqrt_t, 1.0, SQRT_PARAMS, SQRT_L, 1001)
        assert rep.holds
        assert rep.details["eta"] == 0.0
        assert rep.worst_ratio == 0.0

    def test_constant_comparison_operator(self, sqrt_t):
        f = constant_operator(sqrt_t.domain, 2.125)
        rep = data_dependence_verify(sqrt_t, f, 1.0, SQRT_PARAMS, SQRT_L, 1001)
        assert rep.holds
        assert abs(rep.details["eta"] - 1.125) <= 1e-12
        assert rep.details["comparison_strict_points"] == [2.125]

    def test_small_perturbation_comparison(self, sqrt_t):
        f = setfix.perturb(sqrt_t, setfix.Takahashi(0.05))
        rep = data_dependence_verify(sqrt_t, f, 1.0, SQRT_PARAMS, SQRT_L, 1001)
        assert rep.holds  # same strict fixed point, small eta

    def test_shifted_operator_loses_strictness(self, sqrt_t):
        # a value translation keeps the set widths, so no point has T(y) = {y}
        f = shift_operator(sqrt_t, 0.01)
        with pytest.raises(NoStrictFixedPointError):
            data_dependence_verify(sqrt_t, f, 1.0, SQRT_PARAMS, SQRT_L, 1001)


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
        rep = data_dependence_verify(sqrt_t, identity, 1.0, SQRT_PARAMS, SQRT_L, 201)
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

"""Acceptance checklist for the whole artifact.

Each test is one numbered criterion run at its stated tolerance; a PASS/FAIL
line is printed per criterion (run with ``pytest -s`` to see them inline).
The final test records measured values for two conjectured constant ranges
that are deliberately not asserted (see the certification module's notes): the
measurement is reported and flagged, never failed.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

import setfix
from setfix import (
    ContractionParams,
    corollary_k,
    certify_contraction,
    displacement_constant_L,
    hausdorff,
    normalize,
    perturb,
    picard_orbit,
    run_scenario,
    scan_fixed_points,
    sup_ratio_l,
    Takahashi,
)
from setfix.scenario import emit_report
from setfix.stability import (
    DecaySpec,
    cauchy_toeplitz_sum,
    ostrowski_verify,
    ulam_hyers_verify,
    well_posedness_verify,
)
from oracles import brute_excess, brute_gap, brute_hausdorff, random_union


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL  {label}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS  {label}")
        return wrapper
    return deco


@criterion(1, "metric functionals agree with the brute-force grid oracle")
def test_criterion_1_metric_oracles():
    rng = np.random.default_rng(20240801)
    h = 1e-3
    prev = None
    for trial in range(1000):
        a = random_union(rng)
        b = random_union(rng)
        assert abs(setfix.gap(a, b) - brute_gap(a, b, h)) <= 2 * h
        assert abs(setfix.excess(a, b) - brute_excess(a, b, h)) <= 2 * h
        assert abs(setfix.hausdorff(a, b) - brute_hausdorff(a, b, h)) <= 2 * h
        # metric axioms at 1e-12
        assert setfix.hausdorff(a, b) == setfix.hausdorff(b, a)
        assert setfix.hausdorff(a, a) == 0.0
        if prev is not None:
            c = prev
            assert (setfix.hausdorff(a, c)
                    <= setfix.hausdorff(a, b) + setfix.hausdorff(b, c) + 1e-12)
        prev = b


@criterion(2, "square example: closed-form orbit and Fix = SFix = {0}")
def test_criterion_2_square_closed_form(square_t):
    for x0 in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        trace = picard_orbit(square_t, x0, max_n=10, tol=1e-300, target=0.0)
        endpoint = x0
        for step in trace.steps[1:]:
            endpoint = endpoint * endpoint  # the set iterate squares its radius
            part = step.set.parts[0]
            assert abs(part.hi - endpoint) <= 1e-12
            assert abs(part.lo + endpoint) <= 1e-12
    scan = scan_fixed_points(square_t, 10_001, 1e-9)
    assert len(scan.fixed) == 1 and abs(scan.fixed[0]) <= 1e-9
    assert len(scan.strict) == 1 and abs(scan.strict[0]) <= 1e-9


@criterion(3, "sqrt example: infeasibility witness and feasible perturbation")
def test_criterion_3_sqrt_certificates(sqrt_t, sqrt_tg_cert):
    cert_t = certify_contraction(sqrt_t, "ciric", 501)
    assert not cert_t.feasible
    assert abs(cert_t.witness.x - 0.25) <= 1e-3
    assert abs(cert_t.witness.y - 1.0) <= 1e-3
    assert cert_t.witness.bound >= 4.0 / 3.0 - 1e-9
    # perturbed operator: feasible, margin >= 0; parameters pinned from the
    # first successful reference run at grid 501
    assert sqrt_tg_cert.feasible
    assert sqrt_tg_cert.sample_grid == 501
    assert sqrt_tg_cert.margin >= 0.0
    assert sqrt_tg_cert.params == ContractionParams(0.875, 0.0, 0.0, "ciric")
    assert abs(sqrt_tg_cert.margin - 1.7512514408069002e-06) <= 1e-12


@criterion(4, "displacement constants equal 1 - lambda to 1e-12")
def test_criterion_4_displacement(sqrt_t, sqrt_tg, square_t, square_tg):
    assert abs(displacement_constant_L(sqrt_t, sqrt_tg, 2001).value
               - 0.25) <= 1e-12
    assert abs(displacement_constant_L(square_t, square_tg, 2001).value
               - 0.5) <= 1e-12
    # generic Takahashi parameter inside (1/2, 1)
    lam = 0.7
    tw = perturb(sqrt_t, Takahashi(lam))
    assert abs(displacement_constant_L(sqrt_t, tw, 2001).value
               - (1.0 - lam)) <= 1e-12


@criterion(5, "fixed point sets invariant under perturbation (grid 10001)")
def test_criterion_5_fixed_point_equality(sqrt_t, square_t):
    for base in (sqrt_t, square_t):
        step = base.domain.width / 10_000
        for lam in (0.5, 0.75):
            pert = perturb(base, Takahashi(lam))
            s1 = scan_fixed_points(base, 10_001, 1e-9)
            s2 = scan_fixed_points(pert, 10_001, 1e-9)
            assert len(s1.fixed) == len(s2.fixed)
            assert len(s1.strict) == len(s2.strict)
            for a, b in zip(s1.fixed, s2.fixed):
                assert abs(a - b) <= step
            for a, b in zip(s1.strict, s2.strict):
                assert abs(a - b) <= step


@criterion(6, "geometric decay h_n <= (l k)^n |x0 - x*| whenever l < 1 and "
              "the perturbed certificate is feasible")
def test_criterion_6_geometric_decay(square_t, square_tg, sqrt_t, sqrt_tg,
                                     sqrt_tg_cert, linear_t, linear_tg,
                                     linear_tg_cert):
    # pinned comparison constant for the square example
    l_square = sup_ratio_l(square_t, square_tg, 0.0, 10_001).value
    assert abs(l_square - 16.0 / 17.0) <= 1e-9

    # premise evaluation on the built-ins: square has l < 1 but no feasible
    # perturbed certificate; sqrt has a feasible certificate but l > 1 -- the
    # decay check binds on neither (vacuously satisfied)
    square_cert = certify_contraction(square_tg, "ciric", 301)
    assert not square_cert.feasible
    l_sqrt = sup_ratio_l(sqrt_t, sqrt_tg, 1.0, 2001).value
    assert l_sqrt > 1.0 and sqrt_tg_cert.feasible

    # the premise holds for the linear scaling pair: assert the decay bound
    l = sup_ratio_l(linear_t, linear_tg, 0.0, 2001).value
    k = corollary_k(linear_tg_cert.params)
    assert l < 1.0 and linear_tg_cert.feasible and l * k < 1.0
    for x0 in (1.0, -0.7, 0.31):
        trace = picard_orbit(linear_t, x0, max_n=30, tol=1e-300, target=0.0)
        for step in trace.steps[1:31]:
            assert step.h_to_target <= (l * k) ** step.n * abs(x0) + 1e-9


@criterion(7, "Ulam-Hyers: sampled eps-solutions obey |y - x*| <= c eps")
def test_criterion_7_ulam_hyers(sqrt_t, sqrt_tg, sqrt_tg_cert):
    params = sqrt_tg_cert.params
    L = displacement_constant_L(sqrt_t, sqrt_tg, 2001).value
    rep = ulam_hyers_verify(sqrt_t, sqrt_tg, 1.0, params, L, [0.1, 0.05, 0.01], 100)
    assert rep.holds
    c = rep.constant
    assert c == L * (1.0 + params.beta) / (1.0 - params.total)
    for entry in rep.details["per_eps"]:
        assert entry["samples"] >= 50
        # worst_ratio <= 1 + 1e-9 with c*eps <= 0.21 implies the stated
        # absolute form |y - x*| <= c*eps + 1e-9
        assert entry["worst_ratio"] * c * entry["eps"] <= c * entry["eps"] + 1e-9


@criterion(8, "well-posedness and Ostrowski sequences converge with proof bounds")
def test_criterion_8_well_posed_and_ostrowski(sqrt_t, sqrt_tg, sqrt_tg_cert):
    params = sqrt_tg_cert.params
    L = displacement_constant_L(sqrt_t, sqrt_tg, 2001).value

    wp = well_posedness_verify(sqrt_t, 1.0, params, L, DecaySpec(0.1, 0.8), 60)
    assert wp.holds  # every step satisfies the displacement bound
    assert wp.details["final_error"] < 1e-4

    op = ostrowski_verify(sqrt_t, 1.0, params, L, 4.0, DecaySpec(0.1, 0.5), 60)
    assert op.holds  # per-step residuals and the derived weighted-sum bound
    assert op.details["final_error"] < 1e-6
    assert op.details["k_derived"] == (params.alpha + params.beta) / (1 - params.gamma)


@criterion(9, "Cauchy-Toeplitz convolution matches its closed form")
def test_criterion_9_cauchy_toeplitz():
    b = [0.9 ** j for j in range(301)]
    for n in range(51):
        closed = (0.9 ** (n + 1) - 0.5 ** (n + 1)) / 0.4
        assert abs(cauchy_toeplitz_sum(0.5, b, n) - closed) <= 1e-12
    assert cauchy_toeplitz_sum(0.5, b, 300) < 1e-12


@criterion(10, "built-in scenarios serialize byte-identically across runs")
def test_criterion_10_determinism():
    for name in ("square_takahashi_half", "sqrt_takahashi_34"):
        first = emit_report(run_scenario(name))["report.json"]
        second = emit_report(run_scenario(name))["report.json"]
        assert first == second
        assert json.loads(first)["scenario"]["name"] == name


def test_measured_comparison_constants_reported(sqrt_t):
    """Conjectured ranges for the comparison constant are measured, not asserted.

    The computed supremum H(T(x),{x*}) / H(T_W(x),{x*}) is reported together
    with the claimed interval; agreement or disagreement is flagged without
    failing the suite.
    """
    claims = [(0.75, (2.0 / 3.0, 1.0)), (0.6, (1.0 / 1.2, 1.0)),
              (0.9, (1.0 / 1.8, 1.0))]
    for lam, (lo, hi) in claims:
        tw = perturb(sqrt_t, Takahashi(lam))
        measured = sup_ratio_l(sqrt_t, tw, 1.0, 2001).value
        inside = lo < measured < hi
        print(f"MEASURED   l(lambda={lam}) = {measured:.9f}; claimed range "
              f"({lo:.4f}, {hi:.4f}); {'AGREES' if inside else 'DISAGREES'}")
        assert measured > 0.0  # sanity only; the claim itself is not asserted

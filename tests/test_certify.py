from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import setfix
from setfix import certify
from setfix import (
    ContractionCertificate,
    ContractionParams,
    IntervalUnion,
    ParameterRangeError,
    StrictFixedPointMismatchError,
    certify_contraction,
    corollary_k,
    dist_point_to_set,
    displacement_constant_L,
    hausdorff,
    retraction_displacement_check,
    sup_gap_ratio_l,
    sup_ratio_l,
)
from oracles import (
    _candidates,
    _pair_system,
    bisect_retraction_xi,
    exhaustive_certify,
    linear_pair_operator,
    random_subunion,
)


class TestCertifyContraction:
    def test_sqrt_infeasible_with_witness(self, sqrt_t):
        cert = certify_contraction(sqrt_t, "ciric", 501)
        assert not cert.feasible
        assert cert.params is None
        # the witness pair alone forces alpha + beta >= 4/3 over the simplex
        assert abs(cert.witness.x - 0.25) <= 1e-3
        assert abs(cert.witness.y - 1.0) <= 1e-3
        assert cert.witness.bound >= 4.0 / 3.0 - 1e-9

    def test_sqrt_perturbed_feasible_pinned(self, sqrt_tg_cert):
        # regression pin from the reference run at grid 501
        cert = sqrt_tg_cert
        assert cert.feasible
        assert cert.margin >= 0.0
        assert cert.params == ContractionParams(0.875, 0.0, 0.0, "ciric")
        assert abs(cert.margin - 1.7512514408069002e-06) <= 1e-12
        assert cert.witness is None

    def test_constant_operator_trivially_feasible(self, sqrt_t):
        c = setfix.constant_operator(sqrt_t.domain, 1.0)
        cert = certify_contraction(c, "ciric", 101)
        assert cert.feasible
        assert cert.params.total == 0.0
        assert cert.margin == 0.0

    def test_square_infeasible_jointly(self, square_t, square_tg):
        # no single pair forbids the simplex here (bound < 1): the mirrored
        # pair family does, so the search exhausts and reports the hardest pair
        for op in (square_t, square_tg):
            cert = certify_contraction(op, "ciric", 301)
            assert not cert.feasible
            assert cert.witness.bound < 1.0

    def test_linear_example_feasible(self, linear_tg_cert):
        cert = linear_tg_cert
        assert cert.feasible
        assert cert.margin >= 0.0
        k = corollary_k(cert.params)
        assert k.in_unit
        assert 0.75 - 1e-9 <= k.value <= 0.76

    def test_other_variants_smoke(self, linear_tg):
        for variant in ("ciric_reich_rus", "combined"):
            cert = certify_contraction(linear_tg, variant, 201)
            assert cert.feasible
            assert cert.params.variant == variant
            assert cert.params.alpha + 2 * cert.params.beta < 1.0

    def test_feasible_certificate_revalidates(self, sqrt_tg, sqrt_tg_cert):
        # fresh random pairs must satisfy the certified constraint
        p = sqrt_tg_cert.params
        rng = np.random.default_rng(42)
        b = sqrt_tg.domain.bounds
        xs = rng.uniform(b.lo, b.hi, size=10_000)
        ys = rng.uniform(b.lo, b.hi, size=10_000)
        for x, y in zip(xs, ys):
            tx, ty = sqrt_tg.eval(float(x)), sqrt_tg.eval(float(y))
            lhs = hausdorff(tx, ty)
            rhs = (p.alpha * abs(x - y)
                   + p.beta * dist_point_to_set(float(x), ty)
                   + p.gamma * dist_point_to_set(float(y), tx))
            assert lhs <= rhs + 1e-9

    def test_errors(self, sqrt_t):
        with pytest.raises(setfix.DegenerateDomainError):
            certify_contraction(sqrt_t, "ciric", 1)
        with pytest.raises(ParameterRangeError):
            certify_contraction(sqrt_t, "bogus", 101)
        with pytest.raises(ParameterRangeError):
            certify_contraction(sqrt_t, "ciric", 101, margin_req=-1.0)

    def test_margin_requirement_tightens_search(self, linear_tg):
        assert certify_contraction(linear_tg, "ciric", 101, margin_req=0.0).feasible
        strict = certify_contraction(linear_tg, "ciric", 101, margin_req=10.0)
        assert not strict.feasible  # nothing attains a 10x-scale slack

    def test_certificate_json_round_trip(self, sqrt_tg_cert, sqrt_t):
        for cert in (sqrt_tg_cert, certify_contraction(sqrt_t, "ciric", 101)):
            blob = json.loads(json.dumps(cert.to_json()))
            assert set(blob) == {"feasible", "alpha", "beta", "gamma", "margin",
                                 "witness", "grid_n", "skipped"}
            clone = ContractionCertificate.from_json(blob)
            assert clone.feasible == cert.feasible
            assert clone.params == cert.params
            assert clone.margin == cert.margin
            assert clone.witness == cert.witness

    _CERT_BLOBS = {
        "feasible": {"feasible": True, "alpha": 0.5, "beta": 0.25, "gamma": 0.0,
                     "margin": 0.0, "witness": None, "grid_n": 101, "skipped": 3},
        "infeasible": {"feasible": False, "alpha": None, "beta": None, "gamma": None,
                       "margin": -0.5, "witness": {"x": 0.0, "y": 1.0, "bound": 2.0},
                       "grid_n": 101, "skipped": 0},
    }

    @pytest.mark.parametrize("base, key, value", [
        ("infeasible", "feasible", "no"),
        ("infeasible", "feasible", 0),
        ("feasible", "feasible", 1),
        ("infeasible", "margin", True),
        ("infeasible", "margin", "0.5"),
        ("infeasible", "margin", None),
        ("infeasible", "grid_n", 2.7),
        ("infeasible", "grid_n", 101.0),
        ("infeasible", "grid_n", True),
        ("infeasible", "skipped", 1.5),
        ("infeasible", "skipped", False),
        ("infeasible", "witness", [0.0, 1.0, 2.0]),
        ("infeasible", "witness", {"x": True, "y": 1.0, "bound": 2.0}),
        ("infeasible", "witness", {"x": 0.0, "y": "1", "bound": 2.0}),
        ("infeasible", "witness", {"x": 0.0, "y": 1.0, "bound": None}),
        ("feasible", "alpha", True),
        ("feasible", "beta", "0.25"),
        ("feasible", "gamma", None),
        ("feasible", "alpha", 0.9),
    ])
    def test_certificate_json_rejects_wrong_types(self, base, key, value):
        with pytest.raises(setfix.SchemaError):
            ContractionCertificate.from_json({**self._CERT_BLOBS[base], key: value})

    def test_certificate_json_rejects_the_loose_blob(self):
        blob = {"feasible": "no", "alpha": None, "margin": True, "witness": None,
                "grid_n": 2.7}
        with pytest.raises(setfix.SchemaError, match="feasible"):
            ContractionCertificate.from_json(blob)

    def test_feasible_certificate_json_needs_params(self):
        blob = {**self._CERT_BLOBS["feasible"], "alpha": None}
        with pytest.raises(setfix.SchemaError, match="feasible certificate"):
            ContractionCertificate.from_json(blob)
        del blob["alpha"]
        with pytest.raises(setfix.SchemaError, match="feasible certificate"):
            ContractionCertificate.from_json(blob)

    @pytest.mark.parametrize("base, key", [
        ("infeasible", "feasible"), ("infeasible", "margin"), ("infeasible", "grid_n"),
        ("feasible", "beta"), ("feasible", "gamma"),
        ("infeasible", "x"), ("infeasible", "y"), ("infeasible", "bound"),
    ])
    def test_certificate_json_missing_key(self, base, key):
        blob = json.loads(json.dumps(self._CERT_BLOBS[base]))
        if key in ("x", "y", "bound"):
            del blob["witness"][key]
        else:
            del blob[key]
        with pytest.raises(setfix.SchemaError, match=f"missing '{key}'"):
            ContractionCertificate.from_json(blob)

    @pytest.mark.parametrize("variant, params", [
        ("ciric_reich_rus", (0.590625, 0.16875, 0.35625)),
        ("combined", (0.0, 0.0, 0.65625)),
    ])
    def test_certificate_json_round_trip_keeps_the_variant(self, variant, params):
        tg = setfix.perturb(setfix.sqrt_example(), setfix.Takahashi(0.3))
        cert = certify_contraction(tg, variant, 101)
        assert cert.params == ContractionParams(*params, variant)
        blob = json.loads(json.dumps(cert.to_json()))
        assert blob["variant"] == variant
        assert ContractionCertificate.from_json(blob) == cert

    def test_certificate_json_optional_keys(self):
        blob = {k: v for k, v in self._CERT_BLOBS["infeasible"].items()
                if k not in ("alpha", "beta", "gamma", "witness", "skipped")}
        cert = ContractionCertificate.from_json(blob)
        assert (cert.params, cert.witness, cert.skipped) == (None, None, 0)
        cert = ContractionCertificate.from_json(self._CERT_BLOBS["feasible"])
        assert cert.params == ContractionParams(0.5, 0.25, 0.0)
        assert (cert.margin, cert.sample_grid, cert.skipped) == (0.0, 101, 3)


class TestContractionParams:
    def test_ciric_simplex(self):
        ContractionParams(0.5, 0.2, 0.2)
        with pytest.raises(ParameterRangeError):
            ContractionParams(0.5, 0.3, 0.3)
        with pytest.raises(ParameterRangeError):
            ContractionParams(-0.1, 0.0, 0.0)

    def test_crr_simplex(self):
        # alpha + 2*beta < 1; gamma free up to the search cap
        ContractionParams(0.5, 0.2, 0.9, "ciric_reich_rus")
        with pytest.raises(ParameterRangeError):
            ContractionParams(0.7, 0.2, 0.0, "ciric_reich_rus")


class TestCorollaryK:
    def test_values(self):
        assert abs(corollary_k(ContractionParams(0.5, 0.1, 0.2)).value - 0.75) <= 1e-12
        assert corollary_k(ContractionParams(0.0, 0.0, 0.0)).value == 0.0
        k = corollary_k(ContractionParams(0.3, 0.3, 0.3))
        assert abs(k.value - 6.0 / 7.0) <= 1e-12
        assert k.in_unit

    def test_gamma_range(self):
        # the crr simplex leaves gamma unconstrained, so this is constructible
        p = ContractionParams(0.1, 0.1, 1.0, "ciric_reich_rus")
        with pytest.raises(ParameterRangeError):
            corollary_k(p)

    def test_pointwise_bound_on_grid(self, sqrt_tg, sqrt_tg_cert):
        # H(T_G(x), {x*}) <= k |x - x*| realized on the grid
        k = corollary_k(sqrt_tg_cert.params).value
        point = IntervalUnion.singleton(1.0)
        for x in sqrt_tg.domain.grid(2001):
            x = float(x)
            assert hausdorff(sqrt_tg.eval(x), point) <= k * abs(x - 1.0) + 1e-9


class TestSupRatioL:
    def test_identity_perturbation_gives_one(self, sqrt_t):
        tg = setfix.perturb(sqrt_t, setfix.GeneralG(a=0.0, b=1.0))
        sup = sup_ratio_l(sqrt_t, tg, 1.0, 1001)
        assert sup.value == 1.0

    def test_square_value(self, square_t, square_tg):
        sup = sup_ratio_l(square_t, square_tg, 0.0, 10_001)
        assert abs(sup.value - 16.0 / 17.0) <= 1e-9
        assert abs(abs(sup.arg) - 8.0 / 9.0) <= 1e-9  # attained at the boundary

    def test_sqrt_value_exceeds_one(self, sqrt_t, sqrt_tg):
        sup = sup_ratio_l(sqrt_t, sqrt_tg, 1.0, 2001)
        assert abs(sup.value - 16.0 / 9.0) <= 1e-12
        assert sup.value > 1.0

    def test_mismatch_rejected(self, sqrt_t, sqrt_tg):
        with pytest.raises(StrictFixedPointMismatchError):
            sup_ratio_l(sqrt_t, sqrt_tg, 2.0, 101)

    def test_weak_variant_trivial_here(self, sqrt_t, sqrt_tg):
        # x* belongs to every value T(x), so the gap-based numerator vanishes
        sup = sup_gap_ratio_l(sqrt_t, sqrt_tg, 1.0, 1001)
        assert sup.value == 0.0
        assert sup.skipped == 1  # only x = x* itself


class TestDisplacementL:
    def test_takahashi_identity(self, sqrt_t, sqrt_tg, square_t, square_tg):
        assert abs(displacement_constant_L(sqrt_t, sqrt_tg, 2001).value - 0.25) <= 1e-12
        assert abs(displacement_constant_L(square_t, square_tg, 2001).value - 0.5) <= 1e-12

    def test_generic_lambda(self, sqrt_t):
        tw = setfix.perturb(sqrt_t, setfix.Takahashi(0.61))
        assert abs(displacement_constant_L(sqrt_t, tw, 2001).value - 0.39) <= 1e-12

    def test_identity_perturbation(self, sqrt_t):
        tg = setfix.perturb(sqrt_t, setfix.GeneralG(a=0.0, b=1.0))
        assert displacement_constant_L(sqrt_t, tg, 1001).value == 1.0


class TestRetractionDisplacement:
    def test_sqrt(self, sqrt_t, sqrt_tg_cert):
        res = retraction_displacement_check(sqrt_t, sqrt_tg_cert.params, 0.25,
                                            1.0, 2001)
        assert res.holds
        assert res.xi_max > 0.9

    def test_square_with_explicit_params(self, square_t):
        params = ContractionParams(0.9, 0.0, 0.0)
        res = retraction_displacement_check(square_t, params, 0.5, 0.0, 2001)
        assert res.holds
        assert res.xi_max > 1e-6

    def test_errors(self, sqrt_t, sqrt_tg_cert):
        with pytest.raises(ParameterRangeError):
            retraction_displacement_check(sqrt_t, sqrt_tg_cert.params, 0.0, 1.0, 101)


class TestGeometricDecay:
    def test_decay_bound_on_linear_example(self, linear_t, linear_tg,
                                           linear_tg_cert):
        # premise: l < 1 and a feasible perturbed certificate
        l = sup_ratio_l(linear_t, linear_tg, 0.0, 2001).value
        k = corollary_k(linear_tg_cert.params).value
        assert l < 1.0 and l * k < 1.0
        trace = setfix.picard_orbit(linear_t, 1.0, max_n=30, tol=1e-300, target=0.0)
        lk = l * k
        for step in trace.steps[1:]:
            assert step.h_to_target <= lk ** step.n * 1.0 + 1e-9

    def test_set_lifting_bounds(self, linear_t, linear_tg, square_t, square_tg):
        # whenever the pointwise ratios hold on a grid, the set-level bounds
        # follow for arbitrary compact arguments
        rng = np.random.default_rng(5)
        for t, tg, xstar in ((linear_t, linear_tg, 0.0), (square_t, square_tg, 0.0)):
            l = sup_ratio_l(t, tg, xstar, 2001).value
            point = IntervalUnion.singleton(xstar)
            k = max(
                hausdorff(tg.eval(float(x)), point) / abs(float(x) - xstar)
                for x in t.domain.grid(2001) if abs(float(x) - xstar) > 1e-9)
            for _ in range(100):
                y = random_subunion(rng, t.domain.bounds)
                h_ty = hausdorff(t.set_image(y), point)
                h_tgy = hausdorff(tg.set_image(y), point)
                assert h_ty <= l * h_tgy + 1e-9
                assert h_tgy <= k * hausdorff(y, point) + 1e-9


_DIFF_OPERATORS = ["square", "sqrt"] + [
    f"{base}|{lam}" for base in ("square", "sqrt") for lam in (0.05, 0.39, 0.5, 0.75)
] + ["constant", "linear"]


def _named_operator(name: str):
    if name == "constant":
        return setfix.constant_operator(setfix.sqrt_example().domain, 1.0)
    if name == "linear":
        return linear_pair_operator(0.5)
    base, _, lam = name.partition("|")
    op = setfix.get_builtin(f"{base}_example")
    return setfix.perturb(op, setfix.Takahashi(float(lam))) if lam else op


def _count_sweeps(monkeypatch) -> list[int]:
    count = [0]
    sweep = certify._sweep

    def counted(*args):
        count[0] += 1
        return sweep(*args)

    monkeypatch.setattr(certify, "_sweep", counted)
    return count


@pytest.mark.parametrize("name", _DIFF_OPERATORS)
def test_screened_search_matches_exhaustive(name, monkeypatch):
    op = _named_operator(name)
    count = _count_sweeps(monkeypatch)
    for variant in certify.VARIANTS:
        for grid_n in (3, 101):
            for margin_req in (0.0, 1e-3, 10.0):
                count[0] = 0
                cert = certify_contraction(op, variant, grid_n, margin_req)
                assert count[0] <= 25
                ref = exhaustive_certify(op, variant, grid_n, margin_req)
                assert cert.to_json() == ref.to_json()
                assert cert.params == ref.params


def test_infeasible_margins_pinned(square_t, square_tg):
    # the best margin over the level-0 lattice, as in the packaged report
    assert certify_contraction(square_t, "ciric", 501).margin == -0.17130192592592602
    assert certify_contraction(square_tg, "ciric", 501).margin == -0.09631051851851857


@pytest.mark.parametrize("op_fixture", ["sqrt_tg", "square_tg"])
def test_full_sweeps_bounded(op_fixture, request, monkeypatch):
    op = request.getfixturevalue(op_fixture)
    count = _count_sweeps(monkeypatch)
    certify_contraction(op, "ciric", 501)
    assert 1 <= count[0] <= 25


@pytest.mark.parametrize("name, passes", [("sqrt|0.75", 32), ("square|0.5", 16)])
def test_block_passes_pinned(name, passes, monkeypatch):
    # the witness pass and every sweep read the pair system one row block per
    # orientation through terms; a sweep that runs on past the block that
    # decides its candidate, or forms a mirrored orientation equal to the
    # first, reads more (88 and 24 passes when every sweep ran to the end)
    count = [0]
    terms = certify._PairSystem.terms

    def counted(self, e0, e1, orientation):
        count[0] += 1
        return terms(self, e0, e1, orientation)

    monkeypatch.setattr(certify._PairSystem, "terms", counted)
    certify_contraction(_named_operator(name), "ciric", 501)
    assert count[0] == passes


def _same_bits(coef: np.ndarray, cands: list[tuple[float, float, float]]) -> bool:
    """coef holds cands as columns, in order and bit for bit (so -0.0 != 0.0)."""
    ref = np.array(cands, dtype=float).reshape(-1, 3).T
    return coef.shape == ref.shape and coef.tobytes() == ref.tobytes()


@pytest.mark.parametrize("variant", certify.VARIANTS)
def test_lattice_matches_oracle_candidates(variant):
    step = certify._SEARCH_STEP
    level0 = _candidates(step, variant)
    axis = [round(i * step, 10) for i in range(21)]
    assert _same_bits(certify._lattice([axis] * 3, variant), level0)
    assert _same_bits(certify._level0(variant), level0)
    assert not certify._level0(variant).flags.writeable
    for k in range(1, certify._REFINEMENTS + 1):
        radius = step * 0.5 ** k
        for center in level0:
            local = certify._lattice(certify._refinement_axes(center, radius), variant)
            assert _same_bits(local, _candidates(radius, variant, center=center, radius=radius))


@pytest.mark.parametrize("name", _DIFF_OPERATORS)
def test_closed_form_xi_matches_bisection(name):
    op = _named_operator(name)
    xstar = 0.0 if name.startswith("square") or name == "linear" else 1.0
    below_cap = 0
    for params in (ContractionParams(0.875, 0.0, 0.0), ContractionParams(0.3, 0.3, 0.3),
                   ContractionParams(0.1, 0.4, 0.45)):
        for L in (1e-3, 0.05, 1.0, 3.0):
            for grid_n in (101, 2001):
                res = retraction_displacement_check(op, params, L, xstar, grid_n)
                assert (res.xi_max, res.holds) == bisect_retraction_xi(
                    op, params, L, xstar, grid_n)
                below_cap += res.xi_max < 1.0 - 1e-12
    assert below_cap > 0


def _peak_bytes(fn) -> int:
    """Peak memory traced while fn runs, above what was live when it started."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("name", ["sqrt|0.75", "square|0.5"])
def test_certify_memory_bounded(name):
    # a block of four rows of about n x n / 2 entries and row-block buffers of about
    # 2**15 floats: at most 3.5 n x n float arrays live at once, for every variant
    op = _named_operator(name)
    n = 501
    for variant in certify.VARIANTS:
        peak = _peak_bytes(lambda: certify_contraction(op, variant, n))
        assert peak < 3.5 * n * n * 8, (variant, peak / (n * n * 8))
    n = 2001
    peak = _peak_bytes(lambda: certify_contraction(op, "ciric", n))
    assert peak < 2.5 * n * n * 8, peak / (n * n * 8)


_FAULT_PROBE = textwrap.dedent("""
    import resource
    import setfix

    t = setfix.square_example()
    ops = (t, setfix.perturb(t, setfix.Takahashi(0.5)))
    for op in ops:
        setfix.certify_contraction(op, "ciric", 501)
    for op in ops:
        for _ in range(10):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            setfix.certify_contraction(op, "ciric", 501)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc heap page faults on Linux")
def test_certify_reuses_pair_system_pages():
    # the pair system is one block, which the allocator keeps between calls;
    # as four separate arrays their frees trimmed the heap top, so every call
    # faulted about 1 200 pages in again.  A fresh interpreter is needed:
    # larger grids earlier in the session raise the allocator's thresholds
    # and would hide those faults.
    src = str(Path(setfix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    faults = [int(line) for line in out.split()]
    assert len(faults) == 20
    assert max(faults) < 100, faults


@pytest.mark.parametrize("name", _DIFF_OPERATORS)
def test_row_blocks_match_exhaustive(name, monkeypatch):
    # 1, 2 and 7 rows per block; 3 and 101 are not multiples of 2 or 7
    op = _named_operator(name)
    refs = {(variant, grid_n, margin_req): exhaustive_certify(op, variant, grid_n, margin_req)
            for variant in certify.VARIANTS for grid_n in (3, 101) for margin_req in (0.0, 10.0)}
    for rows in (1, 2, 7):
        monkeypatch.setattr(certify, "_block_rows", lambda n: rows)
        for (variant, grid_n, margin_req), ref in refs.items():
            cert = certify_contraction(op, variant, grid_n, margin_req)
            assert cert.to_json() == ref.to_json(), (rows, variant, grid_n, margin_req)
            assert cert.params == ref.params


def _ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the oracle's ordered pairs, in its order (row-major, no diagonal)."""
    return np.nonzero(~np.eye(n, dtype=bool))


def _oracle_index(n: int, pair: tuple[int, int]) -> int:
    i, j = pair
    return i * (n - 1) + (j if j < i else j - 1)


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_block_ties_resolve_to_first_flat_index(rows, monkeypatch):
    # with b = g = 0 a ciric margin a*u - lhs and required = lhs / max(u, v, w)
    # are symmetric in (i, j), so each extreme is also attained at (j, i), the
    # mirrored orientation of the same entry; the first ordered pair attaining
    # it is the entry's pair i < j, in orientation 0
    monkeypatch.setattr(certify, "_block_rows", lambda n: rows)
    op = _named_operator("square|0.5")
    n = 23
    xs = op.domain.grid(n)
    pairs = certify._PairSystem(op, "ciric", xs)
    work = np.empty(pairs.block_size), np.empty(pairs.block_size)
    lhs, u, v, w = _pair_system(op, "ciric", xs)
    idx_i, idx_j = _ordered_pairs(n)

    s = 0.5 * u - lhs
    k = int(np.argmin(s))
    i, j = int(idx_i[k]), int(idx_j[k])
    assert i < j and s[_oracle_index(n, (j, i))] == s[k]
    margin, row = certify._sweep((0.5, 0.0, 0.0), pairs, work, -np.inf)
    assert margin == float(s[k]) and row[1] == 0 and pairs.pair(row) == (i, j)

    required = np.where(lhs > 1e-14, lhs / np.maximum(np.maximum(u, np.maximum(v, w)), 1e-300), 0.0)
    k = int(np.argmax(required))
    i, j = int(idx_i[k]), int(idx_j[k])
    assert i < j and required[_oracle_index(n, (j, i))] == required[k]
    hardest, tops, _ = certify._witness_pass(pairs, work)
    assert pairs.pair((hardest[int(np.argmax(tops))], 0)) == (i, j)
    assert max(tops) == required[k]


# b == 0 or g == 0 skips that product in the sweep; b == g == 0 also skips
# the mirrored orientation
_PROBES = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.875, 0.0, 0.0), (0.5, 0.2, 0.1),
           (0.1, 0.45, 0.3), (0.3, 0.05, 0.6), (0.2, 0.2, 0.55), (0.3, 0.0, 0.6),
           (0.2, 0.5, 0.0)]


@pytest.mark.parametrize("name", _DIFF_OPERATORS)
def test_pair_system_matches_ordered_oracle(name, monkeypatch):
    # the witness, skipped, the largest LHS and every probe's margin equal
    # those of the oracle's n(n-1) ordered pairs bit for bit, and the swept
    # row names an ordered pair that attains the margin there; a sweep that
    # stops early returns a value below its stop, attained at its row
    op = _named_operator(name)
    for rows in (1, 2, 7):
        monkeypatch.setattr(certify, "_block_rows", lambda n: rows)
        for variant in certify.VARIANTS:
            for n in (2, 3, 101):
                xs = op.domain.grid(n)
                pairs = certify._PairSystem(op, variant, xs)
                work = np.empty(pairs.block_size), np.empty(pairs.block_size)
                lhs, u, v, w = _pair_system(op, variant, xs)
                idx_i, idx_j = _ordered_pairs(n)
                active = lhs > 1e-14
                required = np.zeros_like(lhs)
                np.divide(lhs, np.maximum(np.maximum(u, np.maximum(v, w)), 1e-300),
                          out=required, where=active)
                k = int(np.argmax(required))

                hardest, tops, n_active = certify._witness_pass(pairs, work)
                top = int(np.argmax(tops))
                wi, wj = pairs.pair((hardest[top], 0))
                case = (rows, variant, n)
                assert (repr(float(xs[wi])), repr(float(xs[wj])), repr(tops[top])) == (
                    repr(float(xs[idx_i[k]])), repr(float(xs[idx_j[k]])),
                    repr(float(required[k]))), case
                assert n * n - n - n_active == int(np.sum(~active)), case
                assert repr(float(pairs.lhs.max())) == repr(float(lhs.max())), case
                for a, b, g in _PROBES:
                    ref = a * u + b * v + g * w - lhs
                    for stop in (-np.inf, float(ref.min())):
                        margin, row = certify._sweep((a, b, g), pairs, work, stop)
                        assert repr(margin) == repr(float(ref.min())), (case, a, b, g)
                        at = _oracle_index(n, pairs.pair(row))
                        assert repr(float(ref[at])) == repr(margin), (case, a, b, g)
                    margin, row = certify._sweep((a, b, g), pairs, work, np.inf)
                    at = _oracle_index(n, pairs.pair(row))
                    assert margin < np.inf and margin >= ref.min(), (case, a, b, g)
                    assert repr(float(ref[at])) == repr(margin), (case, a, b, g)


def test_screen_raises_when_a_sweep_reports_a_wrong_pair(monkeypatch):
    # the next entry does not bring the swept candidate's bound down to its
    # margin; max_margin would then pick that candidate again forever
    sweep = certify._sweep

    def wrong_pair(c, pairs, work, stop):
        m, (e, o) = sweep(c, pairs, work, stop)
        return m, ((e + 1) % len(pairs.lhs), o)

    monkeypatch.setattr(certify, "_sweep", wrong_pair)
    with pytest.raises(RuntimeError, match=r"candidate \(0\.95, 0\.0, 0\.0\) .* pair \(378, 326\)"):
        certify_contraction(_named_operator("square|0.5"), "ciric", 501)

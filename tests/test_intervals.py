from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setfix
from setfix import (
    EmptySetError,
    Interval,
    IntervalUnion,
    ParameterRangeError,
    SchemaError,
    dist_point_to_set,
    excess,
    gap,
    hausdorff,
    normalize,
    set_from_json,
)
from setfix.intervals import MERGE_EPS
from oracles import (
    affine_combine,
    brute_excess,
    brute_gap,
    brute_hausdorff,
    pairwise_dist_point_to_set,
    pairwise_excess,
    pairwise_gap,
    pairwise_hausdorff,
    random_union,
)

U = lambda *parts: normalize([Interval(a, b) for a, b in parts])


def union_strategy(max_parts=4):
    finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    width = st.floats(min_value=0.0, max_value=0.8, allow_nan=False)
    part = st.tuples(finite, width).map(lambda t: Interval(t[0], t[0] + t[1]))
    return st.lists(part, min_size=1, max_size=max_parts).map(normalize)


class TestNormalize:
    def test_overlapping_merge(self):
        assert U((1, 2), (1.5, 3)).to_json() == {"parts": [[1.0, 3.0]]}

    def test_point_set_is_normal_form(self):
        assert U((0, 0)).to_json() == {"parts": [[0.0, 0.0]]}

    def test_sorting_without_merge(self):
        assert U((3, 4), (0, 1)).to_json() == {"parts": [[0.0, 1.0], [3.0, 4.0]]}

    def test_empty_input(self):
        with pytest.raises(EmptySetError):
            normalize([])

    def test_adjacent_parts_merge(self):
        assert U((0, 1), (1, 2)).to_json() == {"parts": [[0.0, 2.0]]}

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)


class TestDistPointToSet:
    def test_membership(self):
        assert dist_point_to_set(1.5, U((1, 2))) == 0.0

    def test_nearest_endpoint(self):
        assert dist_point_to_set(0.0, U((1, 2))) == 1.0

    def test_between_parts(self):
        assert dist_point_to_set(2.0, U((0, 1), (3, 4))) == 1.0


class TestGap:
    def test_disjoint(self):
        assert gap(U((0, 1)), U((2, 5))) == 1.0

    def test_identity(self):
        a = U((0, 1), (2, 3))
        assert gap(a, a) == 0.0

    def test_multi_part(self):
        assert gap(U((0, 1), (6, 7)), U((3, 4))) == 2.0


class TestExcess:
    def test_one_sided(self):
        assert excess(U((0, 3)), U((1, 2))) == 1.0

    def test_gap_midpoint_attained(self):
        # farthest point of [0,4] from [0,1] u [3,4] is the gap midpoint 2
        assert excess(U((0, 4)), U((0, 1), (3, 4))) == 1.0

    def test_subset_is_zero(self):
        assert excess(U((1, 2)), U((0, 3))) == 0.0

    def test_not_symmetric(self):
        a, b = U((0, 3)), U((1, 2))
        assert excess(a, b) == 1.0
        assert excess(b, a) == 0.0


class TestHausdorff:
    def test_disjoint(self):
        assert hausdorff(U((0, 1)), U((2, 5))) == 4.0

    def test_single_interval_closed_form(self):
        assert hausdorff(U((1, 2)), U((1, 3))) == 1.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-3, 3, allow_nan=False), st.floats(0, 2, allow_nan=False),
           st.floats(-3, 3, allow_nan=False), st.floats(0, 2, allow_nan=False))
    def test_single_interval_endpoint_formula(self, a, wa, c, wc):
        # for single intervals H([a,b],[c,d]) = max(|a-c|, |b-d|)
        left, right = U((a, a + wa)), U((c, c + wc))
        assert hausdorff(left, right) == max(abs(a - c), abs((a + wa) - (c + wc)))

    def test_identity(self):
        a = U((0, 1), (2, 3))
        assert hausdorff(a, a) == 0.0


class TestAffineCombine:
    def test_lam_zero_is_identity(self):
        s = U((1, 2))
        assert affine_combine(1.0, s, 0.0).parts == s.parts

    def test_lam_one_collapses(self):
        out = affine_combine(1.0, U((1, 2), (3, 4)), 1.0)
        assert out.to_json() == {"parts": [[1.0, 1.0]]}

    def test_quarter_point(self):
        out = affine_combine(0.25, U((1, 2)), 0.75)
        assert out.parts == (Interval(7 / 16, 11 / 16),)

    def test_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            affine_combine(0.0, U((0, 1)), 1.5)
        with pytest.raises(ParameterRangeError):
            affine_combine(0.0, U((0, 1)), -0.1)


class TestJson:
    def test_round_trip(self):
        a = U((0, 1), (2.5, 3.25))
        b = set_from_json(json.loads(json.dumps(a.to_json())))
        assert b.parts == a.parts

    def test_renormalizes(self):
        out = set_from_json({"parts": [[1, 2], [1.5, 3]]})
        assert out.to_json() == {"parts": [[1.0, 3.0]]}

    @pytest.mark.parametrize("bad", [
        {"parts": []},
        {"parts": [[2, 1]]},
        {"parts": [[0, float("nan")]]},
        {"parts": [[0]]},
        {"parts": [[False, True]]},
        {"wrong": 1},
        [1, 2],
    ])
    def test_rejects(self, bad):
        with pytest.raises(SchemaError):
            set_from_json(bad)


class TestMetricProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(union_strategy(), union_strategy())
    def test_symmetry_exact(self, a, b):
        assert hausdorff(a, b) == hausdorff(b, a)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(union_strategy(), union_strategy(), union_strategy())
    def test_triangle_inequality(self, a, b, c):
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(union_strategy())
    def test_identity_of_indiscernibles(self, a):
        assert hausdorff(a, a) == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(union_strategy(), union_strategy())
    def test_gap_excess_hausdorff_chain(self, a, b):
        assert gap(a, b) <= excess(a, b) <= hausdorff(a, b)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(union_strategy(2), union_strategy(2))
    def test_oracle_agreement(self, a, b):
        h = 1e-3
        assert abs(gap(a, b) - brute_gap(a, b, h)) <= 2 * h
        assert abs(excess(a, b) - brute_excess(a, b, h)) <= 2 * h
        assert abs(hausdorff(a, b) - brute_hausdorff(a, b, h)) <= 2 * h

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_excess_zero_iff_grid_subset(self, data):
        # lattice-valued endpoints keep every feature far above the 1e-9
        # membership tolerance, where the equivalence is meaningful
        coord = st.integers(min_value=-300, max_value=300).map(lambda k: k / 100.0)
        part = st.tuples(coord, st.integers(min_value=0, max_value=80)).map(
            lambda t: Interval(t[0], t[0] + t[1] / 100.0))
        a = data.draw(st.lists(part, min_size=1, max_size=2).map(normalize))
        b = data.draw(st.lists(part, min_size=1, max_size=3).map(normalize))
        from oracles import set_grid
        grid_inside = all(dist_point_to_set(float(x), b) <= 1e-9
                          for x in set_grid(a, 1e-4))
        assert (excess(a, b) == 0.0) == grid_inside

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(union_strategy(), st.floats(min_value=-3, max_value=3, allow_nan=False),
           st.floats(min_value=0, max_value=1, allow_nan=False))
    def test_affine_combine_matches_sampling(self, s, x, lam):
        out = affine_combine(x, s, lam)
        for p in s.parts:
            for v in (p.lo, p.hi, p.midpoint):
                assert dist_point_to_set(lam * x + (1 - lam) * v, out) <= 1e-12


def test_seeded_oracle_sweep():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        a, b = random_union(rng), random_union(rng)
        h = 1e-3
        assert abs(gap(a, b) - brute_gap(a, b, h)) <= 2 * h
        assert abs(excess(a, b) - brute_excess(a, b, h)) <= 2 * h


def test_nearest_point():
    a = U((0, 1), (3, 4))
    assert setfix.nearest_point(a, 2.0) == 1.0  # leftmost on ties
    assert setfix.nearest_point(a, 2.6) == 3.0
    assert setfix.nearest_point(a, 0.5) == 0.5


def test_domain_validation():
    with pytest.raises(ValueError):
        setfix.Domain(Interval(1.0, 1.0))
    d = setfix.Domain(Interval(0.0, 1.0))
    assert len(d.grid(11)) == 11
    assert d.contains(0.5)
    assert not d.contains(2.0)


# -- sorted sweeps against the all-pairs scans they replaced -----------------------


@st.composite
def union_pairs(draw, max_parts=80):
    """Two interleaved unions of 1..max_parts parts around one offset.

    Parts may be points; gaps may be just over MERGE_EPS, which at offsets
    near 1e15 is below one ulp, so normalize merges some of them and the
    distances that remain tie under rounding.
    """
    offset = draw(st.sampled_from([0.0, 1e15, -1e15]))
    width = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e-9))
    spacing = st.one_of(st.floats(1.000001 * MERGE_EPS, 2 * MERGE_EPS),
                        st.floats(0.0, 1.0), st.floats(1.0, 5.0))

    def union():
        x = offset + draw(st.floats(-3.0, 3.0))
        n = draw(st.integers(1, max_parts))
        parts = []
        for w, g in draw(st.lists(st.tuples(width, spacing), min_size=n, max_size=n)):
            parts.append(Interval(x, x + w))
            x = x + w + g
        return normalize(parts)

    return union(), union()


def query_points(a):
    """Part ends (and their float neighbours), gap midpoints and points
    outside the hull of A."""
    pts = [a.parts[0].lo - 1.0, a.parts[-1].hi + 1.0, a.parts[0].lo - 1e300, 1e300]
    for p in a.parts:
        pts += [p.lo, p.hi, p.midpoint, math.nextafter(p.lo, -math.inf),
                math.nextafter(p.hi, math.inf)]
    pts += [0.5 * (p.hi + q.lo) for p, q in zip(a.parts, a.parts[1:])]
    return pts


def assert_same_as_pairwise(a, b):
    for x in query_points(a) + query_points(b):
        assert repr(dist_point_to_set(x, a)) == repr(pairwise_dist_point_to_set(x, a))
    for s, t in ((a, b), (b, a)):
        assert repr(gap(s, t)) == repr(pairwise_gap(s, t))
        assert repr(excess(s, t)) == repr(pairwise_excess(s, t))
        assert repr(hausdorff(s, t)) == repr(pairwise_hausdorff(s, t))


class TestSweepAgainstPairwise:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(union_pairs())
    def test_functionals_bit_for_bit(self, pair):
        assert_same_as_pairwise(*pair)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(union_pairs(), st.sampled_from([0, 1, -1]))
    def test_against_a_subset_and_its_shift(self, pair, side):
        # the gap midpoints of every other part of A lie inside A, and A moved
        # by one part's width overlaps A part for part
        a = pair[0]
        sub = IntervalUnion(a.parts[::2], a.ambient)
        shift = a.parts[0].width if side else 0.0
        moved = normalize([Interval(p.lo + side * shift, p.hi + side * shift)
                           for p in a.parts])
        assert_same_as_pairwise(a, sub)
        assert_same_as_pairwise(moved, a)

    def test_seeded_many_part_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            k, m = (int(v) for v in rng.integers(1, 81, size=2))
            for offset in (0.0, 1e15):
                a = random_union(rng, k, offset - 40.0, offset + 40.0, 1.0)
                b = random_union(rng, m, offset - 40.0, offset + 40.0, 1.0)
                assert_same_as_pairwise(a, b)

    def test_ties_near_1e15(self):
        # one ulp is 0.125 here: x sits exactly halfway between two parts
        a = U((1e15, 1e15), (1e15 + 1.0, 1e15 + 2.0))
        x = 1e15 + 0.5
        assert dist_point_to_set(x, a) == pairwise_dist_point_to_set(x, a) == 0.5
        b = U((1e15 + 0.5, 1e15 + 0.5))
        assert excess(a, b) == pairwise_excess(a, b) == 1.5
        assert gap(a, b) == pairwise_gap(a, b) == 0.5

    def test_endpoint_tuples_are_not_fields(self):
        a = U((0, 1), (2, 3))
        assert a._los == (0.0, 2.0) and a._his == (1.0, 3.0)
        assert a == U((0, 1), (2, 3)) and hash(a) == hash(U((0, 1), (2, 3)))
        assert "_los" not in repr(a) and a.to_json() == {"parts": [[0.0, 1.0], [2.0, 3.0]]}

from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle

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
from setfix.intervals import MERGE_EPS, VECTOR_MIN_PARTS
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
    scan_nearest_point,
    sequential_normalize,
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
def union_pairs(draw, max_parts=max(80, 2 * VECTOR_MIN_PARTS)):
    """Two interleaved unions of 1..max_parts parts around one offset, so
    excess takes either path.

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
        assert repr(setfix.nearest_point(a, x)) == repr(scan_nearest_point(a, x))
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


# -- normalize against its merging loop, on lists (the loop) and arrays (numpy) ----


@st.composite
def raw_lists(draw, max_items=60):
    """Unsorted [lo, hi] lists of 1..max_items items around one offset: a
    chain of parts whose gaps are often just over MERGE_EPS (or overlaps),
    points, repeats of earlier items and, at offset 0, ends of 0.0 and -0.0."""
    offset = draw(st.sampled_from([0.0, 1e15, -1e15]))
    width = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e-9))
    spacing = st.one_of(st.floats(1.000001 * MERGE_EPS, 2 * MERGE_EPS), st.just(MERGE_EPS),
                        st.floats(-1.0, 1.0), st.floats(1.0, 5.0))
    n = draw(st.integers(1, max_items))
    x = offset + draw(st.floats(-3.0, 3.0))
    items = []
    for w, g, kind in draw(st.lists(st.tuples(width, spacing, st.integers(0, 5)),
                                    min_size=n, max_size=n)):
        if kind == 0 and items:
            items.append(items[draw(st.integers(0, len(items) - 1))])
        elif kind == 1 and offset == 0.0:
            items.append(draw(st.sampled_from([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                                               (0.0, 0.0), (-w, -0.0), (-0.0, w), (0.0, w),
                                               (-w, 0.0)])))
        else:
            items.append((x, x + w))
            x = x + w + g
    return draw(st.permutations(items))


class TestNormalizeAgainstLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(raw_lists(), st.sampled_from(["pairs", "intervals", "array"]))
    def test_bit_for_bit(self, raw, form):
        expected = repr(sequential_normalize(raw))
        if form == "intervals":
            raw = [Interval(lo, hi) for lo, hi in raw]
        elif form == "array":
            raw = np.array(raw)
        assert repr(normalize(raw)) == expected

    def test_seeded_signed_zero_sweep(self):
        # ends from a few values around 0.0 and -0.0, so that runs of equal
        # ends, and parts that start or end at a zero, mix both signs
        rng = np.random.default_rng(15)
        values = np.array([-1.0, -1e-13, -0.0, 0.0, 1e-13, 2e-12, 1.0])
        for n in (1, 19, 20, 40):
            for _ in range(300):
                ends = rng.choice(values, int(rng.integers(2, 5)), replace=False)
                raw = [tuple(sorted(rng.choice(ends, 2).tolist())) for _ in range(n)]
                expected = repr(sequential_normalize(raw))
                assert repr(normalize(raw)) == repr(normalize(np.array(raw))) == expected

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 0.0),
                                     (0.0, math.inf), (1.0, 0.0)])
    @pytest.mark.parametrize("n", [1, 40])
    def test_rejects_non_finite_and_reversed_on_both_paths(self, bad, n):
        raw = [(float(k), k + 0.5) for k in range(n - 1)] + [bad]
        with pytest.raises(ValueError) as loop_error:
            sequential_normalize(raw)
        for form in (raw, np.array(raw)):
            with pytest.raises(ValueError) as error:
                normalize(form)
            assert str(error.value) == str(loop_error.value)

    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize("form", [list, np.array])
    def test_ambient_is_checked_on_both_paths(self, n, form):
        raw = form([(0.1 * k, 0.1 * k + 0.05) for k in range(n)])
        assert normalize(raw, Interval(0.0, 0.1 * n)).ambient == Interval(0.0, 0.1 * n)
        with pytest.raises(ValueError, match="escape"):
            normalize(raw, Interval(0.0, 0.01))

    def test_array_shape_is_checked(self):
        with pytest.raises(ValueError, match="shape"):
            normalize(np.zeros((3, 3)))
        with pytest.raises(EmptySetError):
            normalize(np.zeros((0, 2)))


# -- the endpoint constructor against the public one ---------------------------------


def corrupted_ends(los: list, his: list, kind: str, i: int) -> None:
    """Spoil the canonical ends in place: part i gets a NaN, an infinite or a
    reversed end, or part i + 1 starts within MERGE_EPS of part i's end."""
    n = len(los)
    if kind == "nan":
        (los if i % 2 else his)[i % n] = math.nan
    elif kind == "inf":
        los[0], his[-1] = (-math.inf, his[-1]) if i % 2 else (los[0], math.inf)
    elif kind == "inner_inf":  # an inner end, where the order check alone fails
        his[i % n], los[i % n] = math.inf, (math.inf if i % 3 else los[i % n])
    elif kind == "reversed":
        los[i % n] = his[i % n] + 0.5
    else:  # "unseparated"; callers give n >= 2
        k = i % (n - 1)
        los[k + 1] = his[k] + MERGE_EPS


class TestEndpointConstructor:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(raw_lists(), st.sampled_from([None, "hull", "wide"]))
    def test_same_union_as_the_public_constructor(self, raw, ambient):
        u = sequential_normalize(raw)
        if ambient is not None:
            pad = 1.0 if ambient == "wide" else 0.0
            ambient = Interval(u.parts[0].lo - pad, u.parts[-1].hi + pad)
        los = tuple(p.lo for p in u.parts)
        his = tuple(p.hi for p in u.parts)
        public = IntervalUnion(u.parts, ambient)
        private = IntervalUnion._from_ends(los, his, ambient)
        assert private == public and hash(private) == hash(public)
        assert hash(public) == hash((public.parts, ambient))
        assert repr(private) == repr(public)  # the signs of zeros included
        assert private.to_json() == public.to_json()
        first = private.parts
        assert private.parts is first and public.parts is public.parts
        assert repr(copy.deepcopy(private)) == repr(pickle.loads(pickle.dumps(private))) \
            == repr(public)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(raw_lists(), st.sampled_from(["nan", "inf", "inner_inf", "reversed",
                                         "unseparated", "ambient"]),
           st.integers(0, 1000))
    def test_rejects_what_the_public_constructor_rejects(self, raw, kind, i):
        u = sequential_normalize(raw)
        los, his = [p.lo for p in u.parts], [p.hi for p in u.parts]
        ambient = None
        if kind == "ambient":
            ambient = Interval(his[-1] + 1.0, his[-1] + 2.0)
        else:
            if kind == "unseparated" and len(los) < 2:
                los, his = los + [his[-1] + 1.0], his + [his[-1] + 2.0]
            corrupted_ends(los, his, kind, i)
        with pytest.raises(ValueError) as public:
            IntervalUnion(tuple(map(Interval, los, his)), ambient)
        with pytest.raises(ValueError) as private:
            IntervalUnion._from_ends(tuple(los), tuple(his), ambient)
        assert type(private.value) is type(public.value)
        assert str(private.value) == str(public.value)

    def test_empty_and_immutable(self):
        with pytest.raises(EmptySetError):
            IntervalUnion._from_ends((), ())
        with pytest.raises(EmptySetError):
            IntervalUnion(())
        a = U((0, 1))
        for name in ("_los", "parts", "ambient"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, name)

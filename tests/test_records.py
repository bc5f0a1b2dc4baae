"""setfix's value classes are records (``errors.record``), built without
dataclass code generation.  Each keeps the semantics it had as a dataclass:
construction by position or name, defaults and fresh default factories,
``__post_init__`` checks, equality within one class, the hash of the field
tuple, frozen fields, the repr, and copy, deepcopy and pickle.

REPRS was captured from the dataclass version of every class.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from setfix.certify import ContractionCertificate, ContractionParams, Witness
from setfix.errors import NotSelfMapError, ParameterRangeError, fields_dict, record
from setfix.intervals import Domain, Interval, IntervalUnion
from setfix.iteration import FixedPointScan, OrbitStep, OrbitTrace
from setfix.operators import (
    AxiomReport,
    BoundaryFn,
    GeneralG,
    MultivaluedOperator,
    Piece,
    Takahashi,
    constant_operator,
    sqrt_example,
)
from setfix.scenario import RunReport, Scenario
from setfix.stability import ComparisonFunction, DecaySpec, StabilityReport

_PARAMS = (0.25, 0.125, 0.0625)
_STEP = (1, (1.0, 1.0), 0.5, None)

#: A function building one instance of each class, with every field given.
SAMPLES = {
    "Interval": lambda: Interval(0.25, 4.0),
    "Domain": lambda: Domain(Interval(0.25, 4.0)),
    "BoundaryFn": lambda: BoundaryFn("sqrt", coeff=1.0),
    "Piece": lambda: Piece(Interval(1.0, 4.0), BoundaryFn(offset=1.0),
                           BoundaryFn("sqrt", coeff=1.0)),
    "MultivaluedOperator": lambda: constant_operator(Domain(Interval(0.0, 1.0)), 0.5),
    "Takahashi": lambda: Takahashi(0.75),
    "GeneralG": lambda: GeneralG(0.5, 0.5),
    "AxiomReport": lambda: AxiomReport(False, 0.0, (0.25, 4.0)),
    "ContractionParams": lambda: ContractionParams(*_PARAMS),
    "ContractionCertificate": lambda: ContractionCertificate(
        True, ContractionParams(*_PARAMS), 0.5, Witness(0.25, 4.0, 0.75), 101, 3),
    "OrbitStep": lambda: _step(),
    "OrbitTrace": lambda: OrbitTrace((_step(),), True, 1.0, 1e-10, 1.0),
    "FixedPointScan": lambda: FixedPointScan((1.0, (2.0, 3.0)), (1.0,), 1e-9, 10001),
    "Scenario": lambda: Scenario("demo", "sqrt_example", {"kind": "takahashi", "lam": 0.75},
                                 ("certify",), 101, 1001, 1e-10, (4.0,), "ciric", {}, {},
                                 {"name": "demo"}),
    "RunReport": lambda: RunReport({"name": "demo"}, {}, {}, {"L": 0.5}, [], []),
    "StabilityReport": lambda: StabilityReport("UlamHyers", True, 2.0, 10, 0.5),
    "DecaySpec": lambda: DecaySpec(0.1, 0.8),
    "ComparisonFunction": lambda: ComparisonFunction("power", 2.0, 0.5),
}

REPRS = {
    "Interval": "Interval(lo=0.25, hi=4.0)",
    "Domain": "Domain(bounds=Interval(lo=0.25, hi=4.0))",
    "BoundaryFn": "BoundaryFn(base='sqrt', p=2, coeff=1.0, slope=0.0, offset=0.0)",
    "Piece": "Piece(sub=Interval(lo=1.0, hi=4.0), lower=BoundaryFn(base='none', p=2, "
             "coeff=0.0, slope=0.0, offset=1.0), upper=BoundaryFn(base='sqrt', p=2, coeff=1.0, "
             "slope=0.0, offset=0.0))",
    "MultivaluedOperator": "MultivaluedOperator(domain=Domain(bounds=Interval(lo=0.0, "
                           "hi=1.0)), pieces=(Piece(sub=Interval(lo=0.0, hi=1.0), "
                           "lower=BoundaryFn(base='none', p=2, coeff=0.0, slope=0.0, "
                           "offset=0.5), upper=BoundaryFn(base='none', p=2, coeff=0.0, "
                           "slope=0.0, offset=0.5)),), name='const(0.5)')",
    "Takahashi": "Takahashi(lam=0.75)",
    "GeneralG": "GeneralG(a=0.5, b=0.5, c=0.0)",
    "AxiomReport": "AxiomReport(passes=False, max_identity_dev=0.0, witness=(0.25, 4.0))",
    "ContractionParams": "ContractionParams(alpha=0.25, beta=0.125, gamma=0.0625, "
                         "variant='ciric')",
    "ContractionCertificate": "ContractionCertificate(feasible=True, params=ContractionParams("
                              "alpha=0.25, beta=0.125, gamma=0.0625, variant='ciric'), "
                              "margin=0.5, witness=Witness(x=0.25, y=4.0, bound=0.75), "
                              "sample_grid=101, skipped=3)",
    "OrbitStep": "OrbitStep(n=1, set=IntervalUnion(parts=(Interval(lo=1.0, hi=1.0),), "
                 "ambient=Interval(lo=0.25, hi=4.0)), h_to_prev=0.5, h_to_target=None)",
    "OrbitTrace": "OrbitTrace(steps=(OrbitStep(n=1, set=IntervalUnion(parts=(Interval(lo=1.0, "
                  "hi=1.0),), ambient=Interval(lo=0.25, hi=4.0)), h_to_prev=0.5, "
                  "h_to_target=None),), converged=True, limit_estimate=1.0, tol=1e-10, "
                  "target=1.0)",
    "FixedPointScan": "FixedPointScan(fixed=(1.0, (2.0, 3.0)), strict=(1.0,), tol=1e-09, "
                      "grid_n=10001)",
    "Scenario": "Scenario(name='demo', operator='sqrt_example', perturbation={'kind': "
                "'takahashi', 'lam': 0.75}, analyses=('certify',), grid_n=101, "
                "scan_grid_n=1001, tol=1e-10, x0_list=(4.0,), variant='ciric', "
                "stability_options={}, output={})",
    "RunReport": "RunReport(scenario={'name': 'demo'}, fixed_points={}, certificates={}, "
                 "constants={'L': 0.5}, orbits=[], stability=[], timing={})",
    "StabilityReport": "StabilityReport(property='UlamHyers', holds=True, constant=2.0, "
                       "samples=10, worst_ratio=0.5, applicable=True, details={})",
    "DecaySpec": "DecaySpec(initial=0.1, ratio=0.8)",
    "ComparisonFunction": "ComparisonFunction(kind='power', C=2.0, p=0.5)",
}

CLASSES = list(SAMPLES)
FROZEN = [name for name in CLASSES if name != "RunReport"]


def _step() -> OrbitStep:
    n, (lo, hi), h_prev, h_target = _STEP
    return OrbitStep(n, IntervalUnion([Interval(lo, hi)], Interval(0.25, 4.0)), h_prev, h_target)


def _names(x) -> tuple:
    return tuple(type(x).__annotations__)


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in _names(x))


def test_every_value_class_is_sampled():
    assert len(CLASSES) == 18 and set(REPRS) == set(CLASSES)


@pytest.mark.parametrize("name", CLASSES)
def test_repr_matches_the_dataclass_version(name):
    assert repr(SAMPLES[name]()) == REPRS[name]


@pytest.mark.parametrize("name", CLASSES)
def test_equality_holds_within_one_class_only(name):
    x, y = SAMPLES[name](), SAMPLES[name]()
    assert x == y and not x != y
    assert x != _fields(x) and _fields(x) != x
    twin_cls = record(type(name, (), {"__annotations__": dict.fromkeys(_names(x), "object")}))
    twin = twin_cls(*_fields(x))
    assert _fields(twin) == _fields(x)
    assert x != twin and twin != x


@pytest.mark.parametrize("name", CLASSES)
def test_fields_are_kept_in_order(name):
    x = SAMPLES[name]()
    assert type(x)._fields == x._fields == _names(x)
    assert fields_dict(x) == dict(zip(_names(x), _fields(x)))
    assert list(fields_dict(x)) == list(_names(x))


@pytest.mark.parametrize("name", ["StabilityReport", "DecaySpec", "ContractionParams"])
def test_report_rows_are_the_field_dicts(name):
    x = SAMPLES[name]()
    assert x.to_json() == fields_dict(x)


def test_run_report_row_leaves_out_timing():
    report = SAMPLES["RunReport"]()
    report.timing["scan"] = 1.0
    row = report.to_dict()
    assert list(row) == [k for k in RunReport._fields if k != "timing"]
    twin = RunReport.from_dict(row)
    assert twin.to_dict() == row and twin.timing == {}


@pytest.mark.parametrize("name", CLASSES)
def test_construction_by_name_equals_construction_by_position(name):
    x = SAMPLES[name]()
    cls = type(x)
    assert cls(**dict(zip(_names(x), _fields(x)))) == x
    head = _fields(x)[:1]
    assert cls(*head, **dict(zip(_names(x)[1:], _fields(x)[1:]))) == x


@pytest.mark.parametrize("name", FROZEN)
def test_hash_is_the_hash_of_the_field_tuple(name):
    x = SAMPLES[name]()
    if any(isinstance(v, dict) for v in _fields(x)):  # so is the field tuple
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
        return
    assert hash(x) == hash(_fields(x))
    assert len({x, SAMPLES[name]()}) == 1


def test_interval_hash_is_its_endpoint_pair():
    # IntervalUnion.__hash__ relies on this
    assert hash(Interval(0.25, 4.0)) == hash((0.25, 4.0))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields(name):
    x = SAMPLES[name]()
    for field in _names(x):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot assign to field '{field}'"):
            setattr(x, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot delete field '{field}'"):
            delattr(x, field)
    assert x == SAMPLES[name]()


def test_run_report_is_frozen_and_unhashable():
    report = SAMPLES["RunReport"]()
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'timing'"):
        report.timing = {"scan": 1.0}
    assert report.timing == {}
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


@pytest.mark.parametrize("name", CLASSES)
def test_bad_calls_raise_type_error(name):
    x = SAMPLES[name]()
    cls, names, values = type(x), _names(x), _fields(x)
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values, None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=None)
    if name != "BoundaryFn":  # every field of a catalog term has a default
        with pytest.raises(TypeError, match="missing"):
            cls()


@pytest.mark.parametrize("call, message", [
    (lambda: Interval(1.0), "Interval.__init__() missing 1 required positional argument: 'hi'"),
    (lambda: Interval(), "Interval.__init__() missing 2 required positional arguments: "
                         "'lo' and 'hi'"),
    (lambda: OrbitStep(1), "OrbitStep.__init__() missing 3 required positional arguments: "
                           "'set', 'h_to_prev', and 'h_to_target'"),
    (lambda: Interval(1, 2, 3), "Interval.__init__() takes 3 positional arguments but 4 were "
                                "given"),
    (lambda: Interval(1, lo=1), "Interval.__init__() got multiple values for argument 'lo'"),
    (lambda: Interval(1, 2, x=1), "Interval.__init__() got an unexpected keyword argument 'x'"),
    (lambda: GeneralG(1, 2, 3, 4), "GeneralG.__init__() takes from 3 to 4 positional "
                                   "arguments but 5 were given"),
    (lambda: GeneralG(c=1), "GeneralG.__init__() missing 2 required positional arguments: "
                            "'a' and 'b'"),
])
def test_bad_call_messages_are_pythons(call, message):
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message


def test_defaults_fill_in_omitted_fields():
    assert BoundaryFn() == BoundaryFn("none", 2, 0.0, 0.0, 0.0)
    assert GeneralG(0.5, 0.5) == GeneralG(0.5, 0.5, 0.0)
    assert ContractionParams(*_PARAMS).variant == "ciric"
    assert StabilityReport("P", True, 1.0, 1, 0.5).applicable is True
    assert ComparisonFunction("linear", 2.0).p == 1.0


def test_default_factories_give_each_instance_its_own_object():
    made = [
        [StabilityReport("P", True, 1.0, 1, 0.5).details for _ in range(2)],
        [RunReport({}, {}, {}, {}, [], []).timing for _ in range(2)],
        [Scenario(*_fields(SAMPLES["Scenario"]())[:-1]).raw for _ in range(2)],
    ]
    for first, second in made:
        assert first == second == {}
        assert first is not second
    assert "raw" not in vars(Scenario) and "timing" not in vars(RunReport)


def _grid_operator() -> MultivaluedOperator:
    op = sqrt_example()
    op.grid_values(11)  # fills the operator's grid table
    return op


_DOM = Domain(Interval(0.0, 1.0))
_HALF = BoundaryFn(offset=0.5)
_ID = BoundaryFn(slope=1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Interval(0.0, math.inf), ValueError, "interval endpoints must be finite: [0.0, inf]"),
    (lambda: Interval(1.0, 0.0), ValueError, "interval lower end exceeds upper end: [1.0, 0.0]"),
    (lambda: Domain(Interval(1.0, 1.0)), ValueError, "a domain needs strictly positive width"),
    (lambda: BoundaryFn("cube"), ValueError, "unknown base 'cube'"),
    (lambda: BoundaryFn("power", p=1.5), ValueError,
     "power base needs an integer exponent >= 1, got 1.5"),
    (lambda: BoundaryFn(coeff=math.nan), ValueError,
     "term coefficients must be finite, got BoundaryFn(base='none', p=2, coeff=nan, slope=0.0, "
     "offset=0.0)"),
    (lambda: MultivaluedOperator(_DOM, ()), ValueError, "an operator needs at least one piece"),
    (lambda: MultivaluedOperator(_DOM, (Piece(Interval(0.0, 0.5), _HALF, _HALF),)), ValueError,
     "pieces must cover the domain exactly"),
    (lambda: MultivaluedOperator(_DOM, (Piece(Interval(0.0, 0.25), _HALF, _HALF),
                                        Piece(Interval(0.5, 1.0), _HALF, _HALF))), ValueError,
     "pieces must be contiguous with disjoint interiors"),
    (lambda: MultivaluedOperator(_DOM, (Piece(_DOM.bounds, _HALF,
                                              BoundaryFn("invsqrt", coeff=0.1)),)), ValueError,
     "term {'kind': 'invsqrt', 'coeff': 0.1} undefined on piece [0.0, 1.0]"),
    (lambda: MultivaluedOperator(_DOM, (Piece(_DOM.bounds, _ID, _HALF),)), ValueError,
     "lower boundary exceeds upper at x=1.0 on piece [0.0, 1.0]"),
    (lambda: MultivaluedOperator(_DOM, (Piece(_DOM.bounds, _HALF, BoundaryFn(offset=2.0)),)),
     NotSelfMapError, "operator is not a self-map: values of piece [0.0, 1.0] escape [0.0, 1.0]"),
    (lambda: Takahashi(1.0), ParameterRangeError,
     "Takahashi parameter must lie strictly inside (0, 1), got 1.0"),
    (lambda: ContractionParams(0.1, 0.1, 0.1, "x"), ParameterRangeError, "unknown variant 'x'"),
    (lambda: ContractionParams(-0.1, 0.1, 0.1), ParameterRangeError,
     "contraction parameters must be nonnegative"),
    (lambda: ContractionParams(0.5, 0.5, 0.5), ParameterRangeError,
     "params (0.5, 0.5, 0.5) leave the ciric region (1.0, 1.0, 1.0).(a, b, g) < 1"),
    (lambda: DecaySpec(-1.0, 0.5), ParameterRangeError,
     "decay spec needs nonnegative initial and ratio"),
    (lambda: ComparisonFunction("cubic", 1.0), ParameterRangeError,
     "unknown comparison kind 'cubic'"),
    (lambda: ComparisonFunction("linear", 0.0), ParameterRangeError,
     "comparison function needs C > 0 and p > 0"),
])
def test_post_init_checks_keep_their_messages(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_intervals_are_not_ordered():
    with pytest.raises(TypeError):
        Interval(0.0, 1.0) < Interval(0.0, 2.0)


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                        lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_operator_with_a_filled_grid_table_round_trips(round_trip):
    op = _grid_operator()
    twin = round_trip(op)
    assert twin == op and hash(twin) == hash(op) and repr(twin) == repr(op)
    for mine, theirs in zip(op.grid_values(11), twin.grid_values(11)):
        np.testing.assert_array_equal(mine, theirs)
    np.testing.assert_array_equal(twin.eval_grid(op.grid_values(5)[0]),
                                  op.eval_grid(op.grid_values(5)[0]))
    assert twin.eval(2.0) == op.eval(2.0)


@pytest.mark.parametrize("name", CLASSES)
def test_every_record_pickles_and_deep_copies_to_an_equal_value(name):
    x = SAMPLES[name]()
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(twin) is type(x) and twin == x and repr(twin) == repr(x)


def test_record_rejects_a_required_field_after_a_default():
    class Late:
        a: int = 0
        b: int

    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
        record(Late)

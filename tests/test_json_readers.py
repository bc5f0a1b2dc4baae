"""Every JSON reader applies the same rules through errors.json_field and
errors.json_keys: a missing required key, a value of the wrong JSON type, a
bool where a number is due, NaN, Infinity and -Infinity, and an unknown key
each raise SchemaError naming the field.  A set read into an ambient interval
names the part that escapes it."""

from __future__ import annotations

import copy
import math
import re

import pytest

import setfix
from setfix import (
    BoundaryFn,
    ContractionCertificate,
    Interval,
    MultivaluedOperator,
    SchemaError,
    perturbation_from_json,
    scenario_from_dict,
    set_from_json,
)
from setfix.stability import ComparisonFunction

#: reader name -> (reader, a valid object, path to a required key, path to a
#: number, path to the object that gets an unknown key).  A path is a tuple of
#: keys and list indices; the field named in a message is its last key.
READERS = {
    "set": (set_from_json, {"parts": [[0.0, 1.0], [2.0, 3.0]]},
            ("parts",), ("parts", 1, 0), ()),
    "term": (BoundaryFn.from_json, {"kind": "power", "coeff": 1.0, "p": 2, "slope": 0.5},
             ("kind",), ("slope",), ()),
    "operator": (MultivaluedOperator.from_json, setfix.sqrt_example().to_json(),
                 ("pieces", 0, "sub"), ("pieces", 1, "upper", "coeff"), ("pieces", 0)),
    "perturbation": (perturbation_from_json, {"kind": "general", "a": 0.25, "b": 0.75},
                     ("kind",), ("a",), ()),
    "certificate": (ContractionCertificate.from_json,
                    {"feasible": False, "alpha": None, "beta": None, "gamma": None,
                     "margin": -0.5, "witness": {"x": 0.0, "y": 1.0, "bound": 2.0},
                     "grid_n": 101, "skipped": 0},
                    ("grid_n",), ("witness", "bound"), ("witness",)),
    "comparison function": (ComparisonFunction.from_json,
                            {"kind": "power", "C": 2.0, "p": 0.5}, ("C",), ("p",), ()),
    "scenario": (scenario_from_dict,
                 {"operator": "sqrt_example",
                  "perturbation": {"kind": "takahashi", "lam": 0.75},
                  "analyses": ["certify"], "grid_n": 101,
                  "stability_options": {"well_posed": {"r0": 0.1}}},
                 ("perturbation",), ("stability_options", "well_posed", "r0"), ()),
}

#: The value each case writes at the number's path.
BAD_NUMBERS = {"wrong JSON type": "1", "bool as number": True, "NaN": math.nan,
               "Infinity": math.inf, "-Infinity": -math.inf}


def _at(obj, path):
    """The container that holds path's last key, and that key."""
    for key in path[:-1]:
        obj = obj[key]
    return obj, path[-1]


@pytest.mark.parametrize("case", ["missing key", *BAD_NUMBERS, "unknown key"])
@pytest.mark.parametrize("reader", READERS)
def test_reader_rejects_and_names_the_field(reader, case):
    read, valid, required, number, extended = READERS[reader]
    read(copy.deepcopy(valid))  # the unspoiled object loads
    obj = copy.deepcopy(valid)
    if case == "missing key":
        parent, field = _at(obj, required)
        del parent[field]
    elif case == "unknown key":
        parent, field = _at(obj, (*extended, "bogus"))
        parent[field] = 1.0
    else:
        parent, key = _at(obj, number)
        parent[key] = BAD_NUMBERS[case]
        field = [k for k in number if isinstance(k, str)][-1]
    with pytest.raises(SchemaError, match=f"'{field}'"):
        read(obj)


@pytest.mark.parametrize("part", [[0, 5], [-1, 0.5], [2, 3]])
def test_set_part_outside_the_ambient_names_the_part(part):
    obj = {"parts": [[0.25, 0.5], part]}
    with pytest.raises(SchemaError, match=re.escape(f"set part {part!r} escapes")):
        set_from_json(obj, Interval(0, 1))
    set_from_json(obj)  # without an ambient the same parts load
    set_from_json({"parts": [[0, 1 + 5e-10]]}, Interval(0, 1))  # within AMBIENT_TOL

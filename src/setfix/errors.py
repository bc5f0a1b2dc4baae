"""Exception hierarchy shared by all setfix modules, and the JSON readers' helpers."""

import json
import math


class SetfixError(Exception):
    """Base class for all library errors."""


class EmptySetError(SetfixError):
    """A set construction received no intervals."""


class ParameterRangeError(SetfixError):
    """A numeric parameter lies outside its admissible range."""


class OutOfDomainError(SetfixError):
    """A point or set escapes the operator's ambient domain."""


class AxiomViolationError(SetfixError):
    """A perturbation function fails the admissibility axioms."""


class BoundaryOrderError(SetfixError):
    """An operator's lower boundary exceeds its upper one beyond float noise."""


class NotSelfMapError(SetfixError, ValueError):
    """An operator's values escape its domain beyond SELF_MAP_SLACK."""


class InsufficientDataError(SetfixError):
    """Not enough usable samples/steps to compute the requested quantity."""


class DegenerateDomainError(SetfixError):
    """A sweep grid collapsed (fewer than two points)."""


class StrictFixedPointMismatchError(SetfixError):
    """A point claimed as strict fixed point fails verification."""


class NoStrictFixedPointError(SetfixError):
    """An operator has no (unique) strict fixed point where one is required."""


class HypothesisFailedError(SetfixError):
    """An empirical premise of a stability harness does not hold."""


class NoApproximateSolutionsError(SetfixError):
    """Rejection sampling found no approximate solutions for some tolerance."""


class ConstructionFailedError(SetfixError):
    """A constructive harness could not realize the requested bracket."""


class SchemaError(SetfixError):
    """A configuration or serialized artifact fails validation."""


def is_json_number(v: object) -> bool:
    """True for a JSON number: a finite int or float that is not a bool (true,
    false, NaN and Infinity are not JSON numbers, though Python reads them)."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the range of a float
        return False


def is_json_int(v: object) -> bool:
    return is_json_number(v) and isinstance(v, int)


def is_json_pair(v: object) -> bool:
    """True for an interval [lo, hi] of two JSON numbers with lo <= hi."""
    return (isinstance(v, (list, tuple)) and len(v) == 2
            and all(map(is_json_number, v)) and float(v[0]) <= float(v[1]))


_REQUIRED = object()


def json_field(obj: object, key: str, test, what: str, reader: str,
               default: object = _REQUIRED):
    """obj[key] if it passes test (described by what), or default if key is absent
    and a default is given; else SchemaError, naming reader, key and bad value."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{reader} must be a JSON object with {key!r}, got {obj!r}")
    if key not in obj:
        if default is _REQUIRED:
            raise SchemaError(f"{reader} is missing {key!r}")
        return default
    if not test(obj[key]):
        raise SchemaError(f"{reader} {key!r} must be {what}, got {obj[key]!r}")
    return obj[key]


def read_json(source, label: str) -> object:
    """Parse the JSON text of a file or package resource.

    A file that is not UTF-8 or not JSON raises SchemaError naming label.
    """
    try:
        return json.loads(source.read_text())
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError from read_text
        raise SchemaError(f"{label} is not valid JSON: {exc}") from exc


def json_keys(obj: object, keys, reader: str) -> None:
    """Raise SchemaError unless obj is a JSON object with no key outside keys."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{reader} must be a JSON object, got {obj!r}")
    for k in obj:
        if k not in keys:
            raise SchemaError(f"{reader} has unknown key {k!r}; it takes {list(keys)}")

"""Exception hierarchy shared by all setfix modules, the JSON readers' helpers,
``json_text`` and ``csv_text``, the one writers of setfix's JSON and CSV
outputs, and ``record``, the class decorator of setfix's value classes.

``record`` gives a class with annotated fields what ``@dataclass(frozen=True)``
gives it (``__init__``, ``==``, ``hash``, ``repr`` and frozen fields), from
closures over the tuple of field names, which it keeps as ``_fields``, as
``NamedTuple`` does; ``fields_dict`` turns a record into its field dict.
``dataclass`` compiles these methods from generated source for each class,
which took about a quarter of the time to import setfix's scenario path; a
record class is built in microseconds.
"""

import itertools
import json
import math
import operator


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


def json_text(payload: object) -> str:
    """The JSON text of every setfix output: sorted keys, two-space indents and
    a final newline, so equal payloads give equal bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    return value if isinstance(value, str) else "" if value is None else repr(value)


def csv_text(columns, rows) -> str:
    """The CSV text of every setfix output: a header line of columns, then one
    line per row of cells, a string cell as is, None empty, anything else its
    repr.  No cell setfix writes holds a comma, a quote or a line break."""
    lines = [columns, *(map(_cell, row) for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


def json_keys(obj: object, keys, reader: str) -> None:
    """Raise SchemaError unless obj is a JSON object with no key outside keys."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{reader} must be a JSON object, got {obj!r}")
    for k in obj:
        if k not in keys:
            raise SchemaError(f"{reader} has unknown key {k!r}; it takes {list(keys)}")


# -- records ----------------------------------------------------------------------


def raise_frozen(message: str):
    """Raise dataclasses.FrozenInstanceError, the error of writing a frozen
    value; dataclasses is imported only when one is raised."""
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(message)


_set_field = object.__setattr__


class factory:
    """A record field's default: make() is called afresh for each instance.
    A field with in_repr=False is left out of the record's repr."""

    __slots__ = ("make", "in_repr")

    def __init__(self, make, in_repr: bool = True) -> None:
        self.make, self.in_repr = make, in_repr


def _missing(names: list) -> str:
    """Python's wording for missing arguments: 'a', 'a' and 'b', 'a', 'b', and 'c'."""
    quoted = [repr(n) for n in names]
    if len(quoted) > 2:
        quoted = [", ".join(quoted[:-1]) + ",", quoted[-1]]
    return " and ".join(quoted)


def record(cls):
    """Class decorator: make the annotated fields of cls, in order, a value's
    fields, as ``@dataclass(frozen=True)`` would.

    A field's class attribute is its default; a ``factory`` gives each
    instance a fresh one.  ``__init__`` takes the fields by position or name
    and then calls ``__post_init__`` if the class has one.  A record equals
    only a record of its own class with equal fields, and its hash is that of
    the tuple of its fields (so a record with a dict field is unhashable).
    Assignment and deletion raise FrozenInstanceError (use object.__setattr__
    in ``__post_init__``).  The class keeps its field names, in order, as
    ``_fields``.
    """
    names = tuple(vars(cls).get("__annotations__", {}))
    defaults, factories, hidden = {}, {}, set()
    for name in names:
        value = vars(cls).get(name, _REQUIRED)
        if isinstance(value, factory):
            factories[name] = value.make
            if not value.in_repr:
                hidden.add(name)
            delattr(cls, name)
        elif value is not _REQUIRED:
            defaults[name] = value
        elif defaults or factories:
            raise TypeError(f"non-default argument {name!r} follows default argument")
    shown = [name for name in names if name not in hidden]
    n, required = len(names), len(names) - len(defaults) - len(factories)
    qualname = f"{cls.__qualname__}.__init__"

    def bind(args: tuple, kwargs: dict) -> list:
        """The field values of a call that does not give exactly every field
        by position, with Python's errors for a bad call."""
        if len(args) > n:
            takes = n + 1 if required == n else f"from {required + 1} to {n + 1}"
            raise TypeError(f"{qualname}() takes {takes} positional arguments "
                            f"but {len(args) + 1} were given")
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key in values:
                raise TypeError(f"{qualname}() got multiple values for argument {key!r}")
            if key not in names:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {key!r}")
            values[key] = value
        missing = [k for k in names[:required] if k not in values]
        if missing:
            raise TypeError(f"{qualname}() missing {len(missing)} required positional "
                            f"argument{'s' * (len(missing) > 1)}: {_missing(missing)}")
        return [values[k] if k in values else defaults[k] if k in defaults
                else factories[k]() for k in names]

    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        # object.__setattr__ returns None, so any() sets every field; it keeps
        # the fields in the instance's inline values, as attribute writes do
        # (a write through __dict__ would materialize a dict, slowing reads)
        any(map(_set_field, itertools.repeat(self, n), names, args))
        if post_init:
            self.__post_init__()

    get = operator.attrgetter(*names)  # a tuple for two names or more
    fields = get if n > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self):
        body = ", ".join([f"{k}={getattr(self, k)!r}" for k in shown])
        return f"{self.__class__.__qualname__}({body})"

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise_frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise_frozen(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __repr__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._fields = names
    return cls


def fields_dict(rec) -> dict:
    """{field name: value} of a record, in field order."""
    return {name: getattr(rec, name) for name in rec._fields}

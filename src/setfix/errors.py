"""Exception hierarchy shared by all setfix modules, and the JSON number test
that every reader of serialized input applies before raising SchemaError."""


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
    """True for a JSON number: an int or float that is not a bool (a bool is an
    int to Python, but true and false are not numbers in JSON)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)

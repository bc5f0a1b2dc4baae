"""setfix: numerical set-valued fixed-point analysis on real intervals.

Compact subsets of a real interval are represented exactly as unions of
closed intervals; multivalued operators, their admissible perturbations,
Picard set orbits, Ciric-type contraction certificates, and the stability
properties of the strict fixed point problem are all computable without
sampling error on this representation.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (
    AxiomViolationError,
    BoundaryOrderError,
    ConstructionFailedError,
    DegenerateDomainError,
    EmptySetError,
    HypothesisFailedError,
    InsufficientDataError,
    NoApproximateSolutionsError,
    NoStrictFixedPointError,
    NotSelfMapError,
    OutOfDomainError,
    ParameterRangeError,
    SchemaError,
    SetfixError,
    StrictFixedPointMismatchError,
)
from .intervals import (
    MERGE_EPS,
    Domain,
    Interval,
    IntervalUnion,
    dist_point_to_set,
    excess,
    gap,
    hausdorff,
    nearest_point,
    normalize,
    set_from_json,
)
from .operators import (
    BUILTIN_OPERATORS,
    AxiomReport,
    BoundaryFn,
    GeneralG,
    MultivaluedOperator,
    PerturbationSpec,
    Piece,
    Takahashi,
    check_perturbation_axioms,
    constant_operator,
    get_builtin,
    perturb,
    perturbation_from_json,
    shift_operator,
    sqrt_example,
    square_example,
)

#: The public names of the analysis modules, by module.  Each resolves on
#: access (PEP 562): it is looked up in its module every time and never bound
#: here, so ``import setfix`` loads only the set layer above, and a wrapper
#: put on a module's binding is seen exactly while it is installed.
_ANALYSIS = {
    "certify": (
        "ContractionCertificate",
        "ContractionParams",
        "GridSup",
        "Witness",
        "XiResult",
        "certify_contraction",
        "corollary_k",
        "displacement_constant_L",
        "retraction_displacement_check",
        "sup_gap_ratio_l",
        "sup_ratio_l",
    ),
    "iteration": (
        "FixedPointScan",
        "OrbitStep",
        "OrbitTrace",
        "orbit_rate",
        "orbit_to_csv",
        "picard_orbit",
        "scan_fixed_points",
    ),
    "scenario": (
        "RunReport",
        "Scenario",
        "builtin_scenario_names",
        "emit_report",
        "load_scenario",
        "run_scenario",
        "scenario_from_dict",
        "write_report",
    ),
    "stability": (
        "ComparisonFunction",
        "DecaySpec",
        "StabilityReport",
        "cauchy_toeplitz_sum",
        "data_dependence_verify",
        "ostrowski_verify",
        "psi_mp_data_dependence",
        "quasi_contraction_verify",
        "ulam_hyers_verify",
        "unique_strict_fixed_point",
        "well_posedness_verify",
    ),
}
_LAZY = {name: module for module, names in _ANALYSIS.items() for name in names}

# the set layer's names imported above, then the analysis modules'
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_LAZY)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    if name in _ANALYSIS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_ANALYSIS})

"""setfix: numerical set-valued fixed-point analysis on real intervals.

Compact subsets of a real interval are represented exactly as unions of
closed intervals; multivalued operators, their admissible perturbations,
Picard set orbits, Ciric-type contraction certificates, and the stability
properties of the strict fixed point problem are all computable without
sampling error on this representation.
"""

from .certify import (
    ContractionCertificate,
    ContractionParams,
    GridSup,
    KBound,
    Witness,
    XiResult,
    certify_contraction,
    corollary_k,
    displacement_constant_L,
    retraction_displacement_check,
    sup_gap_ratio_l,
    sup_ratio_l,
)
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
from .iteration import (
    FixedPointScan,
    OrbitStep,
    OrbitTrace,
    orbit_rate,
    orbit_to_csv,
    picard_orbit,
    scan_fixed_points,
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
from .scenario import (
    RunReport,
    Scenario,
    builtin_scenario_names,
    emit_report,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    write_report,
)
from .stability import (
    ComparisonFunction,
    DecaySpec,
    StabilityReport,
    cauchy_toeplitz_sum,
    data_dependence_verify,
    ostrowski_verify,
    psi_mp_data_dependence,
    quasi_contraction_verify,
    ulam_hyers_verify,
    unique_strict_fixed_point,
    well_posedness_verify,
)

__version__ = "0.1.0"

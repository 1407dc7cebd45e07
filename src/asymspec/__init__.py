"""Numerical toolkit for spectra of matrix families S_h as h -> 0.

The package studies families of square complex matrices parameterized by
h in (0, 1]: bracket calculus for pairs, asymptotic and quasinilpotent
equivalence classifiers, family resolvent sets and spectra estimated from
resolvent norm fields, resolvent transport series, and a contour-based
holomorphic functional calculus. The ``asymspec`` command exposes the same
functionality plus a self-checking ``verify`` suite.
"""

from .brackets import (
    BracketSequence,
    RootClass,
    RootLimit,
    binom,
    bracket_compose_check,
    bracket_direct,
    bracket_recurrence,
    bracket_sequence,
    commuting_collapse_residual,
    power_norm_sequence,
    root_limit,
    sequence_to_csv,
)
from .classify import (
    EquivalenceVerdict,
    VerdictKind,
    VerdictResult,
    asymptotic_commuting,
    asymptotic_equiv,
    is_asymptotic_quasinilpotent,
    quasinilpotent_equiv,
    verdict_to_dict,
)
from .errors import (
    AsymspecError,
    BadParameter,
    DimensionMismatch,
    DivisionNearZero,
    ExprError,
    LengthMismatch,
    NonEnclosing,
    OutOfRange,
    ParseError,
    SchemaError,
    SingularOnContour,
    TraceError,
    UnboundVariable,
    UnresolvedPoint,
)
from .exprs import eval_expr, parse_constant, parse_expr
from .families import (
    FamilySpec,
    HGrid,
    TailEstimate,
    Trend,
    constant_family,
    default_vanish_tol,
    diag_family,
    family_eval,
    family_from_dict,
    family_product,
    family_sum,
    family_to_dict,
    geometric_grid,
    h_scaled,
    jordan_family,
    random_family,
    tail_limsup,
    tail_vanishes,
    vanishes,
)
from .funcalc import (
    ContourSpec,
    contour_encloses,
    contour_funcalc,
    expr_function,
    family_funcalc,
)
from .linalg import (
    ComplexMatrix,
    Inverse,
    jordan_block,
    matrix_from_dict,
    matrix_power,
    matrix_to_dict,
    max_abs,
    operator_norm,
    solve_inverse,
)
from .spectrum import (
    Cluster,
    ComplexRegion,
    NormBounds,
    ResolventField,
    SeriesTransport,
    SpectrumEstimate,
    cluster_near,
    clusters_match,
    default_epsilon,
    default_region,
    field_to_csv,
    point_resolved,
    quotient_norm_bounds,
    resolvent_at,
    resolvent_commutation_residual,
    resolvent_defect,
    resolvent_equation_residual,
    resolvent_norm_field,
    series_resolvent,
    spectrum_estimate,
    spectrum_to_dict,
)
from .verification import SUITE_NAMES, SuiteResult, run_all_suites, run_suite

__version__ = "0.1.0"

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
    bracket_sequence,
    power_norm_sequence,
    root_limit,
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
    QuadratureUnresolved,
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
    tail_to_dict,
    tail_vanishes,
)
from .funcalc import (
    ContourSpec,
    contour_encloses,
    contour_funcalc,
    expr_function,
    family_funcalc,
    family_quadratures,
)
from .linalg import (
    ComplexMatrix,
    Inverse,
    jordan_block,
    matrix_from_dict,
    matrix_to_dict,
    operator_norm,
    solve_inverse,
)
from .spectrum import (
    Cluster,
    ComplexRegion,
    ResolventField,
    SeriesTransport,
    SpectrumEstimate,
    clusters_match,
    default_region,
    field_to_csv,
    resolvent_at,
    resolvent_commutation_residual,
    resolvent_defect,
    resolvent_equation_residual,
    resolvent_norm_field,
    series_resolvent,
    spectrum_estimate,
    spectrum_to_dict,
)
from .verification import SUITE_NAMES, SuiteResult, run_all_suites

__version__ = "0.1.0"

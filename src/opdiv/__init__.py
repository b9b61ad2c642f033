"""Numerical verification lab for operator perspective functions,
matrix f-divergence functionals, and the Loewner-order inequalities
they satisfy."""

from .errors import (
    BadK,
    BadRange,
    DerivativeRequired,
    DomainViolation,
    EmptyField,
    IllConditioned,
    NonPositiveH,
    NotHermitian,
    NotPositiveDefinite,
    NotProbability,
    NotUnital,
    NumericalFailure,
    OpDivError,
    ParamOutOfRange,
    ShapeMismatch,
    SizeLimit,
    UnknownCheck,
    UnknownFunction,
)
from .funcatalog import (
    FunctionFlags,
    Interval,
    ScalarOperatorFunction,
    builtin,
    from_spec,
    quartic,
)
from .hermitian import (
    HermitianMatrix,
    LoewnerRelation,
    LoewnerVerdict,
    PositiveDefiniteMatrix,
    SpectralDecomposition,
    ToleranceConfig,
    apply_function,
    congruence,
    kronecker,
    loewner_compare,
    matrix_from_json,
    matrix_to_json,
    spectral_decompose,
)
from .lab import (
    CheckResult,
    ExampleReproduction,
    FalsifierReport,
    GenConfig,
    SuiteReport,
    check_description,
    check_ids,
    convexity_falsifier,
    random_hermitian,
    random_pd,
    reproduce_example,
    run_check,
    run_suite,
)
from .norms import (
    SingularSpectrum,
    ky_fan,
    ky_fan_dominates,
    singular_values,
    spectral_norm,
    trace_norm,
)
from .perspective import (
    BivariateSpec,
    WeightedOperatorField,
    bivariate_calculus,
    f_delta_h,
    f_nabla_h,
    field_from_json,
    field_to_json,
    gradient_lower_bound,
    perspective,
    theta_divergence,
)
from .posmap import (
    Compression,
    Congruence,
    Example33,
    MapField,
    MapSum,
    PositiveLinearMap,
    ScaledMap,
    UnitalityReport,
    apply_map,
    example_33,
    map_from_json,
    unitality,
)

__version__ = "0.1.0"

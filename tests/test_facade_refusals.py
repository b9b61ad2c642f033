"""Each refusal of the library's facades that no other test reaches: the
error class and the whole one-line message, so that a refusal that
changes class, or falls through to a numpy error, fails here."""

import re

import numpy as np
import pytest

from conftest import make_field, make_herm, make_pd
from opdiv import kernels
from opdiv.errors import (
    BadRange,
    DomainViolation,
    EmptyField,
    NotProbability,
    NumericalFailure,
    OpDivError,
    ParamOutOfRange,
    ShapeMismatch,
)
from opdiv.funcatalog import Interval, ScalarOperatorFunction, builtin
from opdiv.hermitian import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    ToleranceConfig,
    apply_function,
    congruence,
    kronecker,
    loewner_compare,
    rows_to_array,
    spectral_decompose,
)
from opdiv.lab import GenConfig
from opdiv.perspective import (
    BivariateSpec,
    WeightedOperatorField,
    bivariate_calculus,
    f_delta_h,
    f_nabla_h,
    field_from_json,
    gradient_lower_bound,
    perspective,
    tangent_point,
    theta_divergence,
)
from opdiv.posmap import Compression, Congruence, MapField, MapSum, ScaledMap, map_from_json

_RNG = np.random.default_rng(17)
_A2, _A3 = make_herm(_RNG, 2), make_herm(_RNG, 3)
_B3 = make_pd(_RNG, 3)
_SQUARE, _IDENTITY = builtin("square"), builtin("identity")
# Finite matrices whose results overflow.
_EYE = HermitianMatrix.identity(2)
_BIG, _TOP = _EYE * 1e200, _EYE * 1e308
_PD, _HALF = PositiveDefiniteMatrix(_EYE), PositiveDefiniteMatrix(_EYE * 0.5)
_X_SQ_OVER_Y = BivariateSpec(lambda x, y: x * x / y, Interval.nonnegative(), Interval.positive())
_X = BivariateSpec(lambda x, y: x + 0.0 * y, Interval.real_line(), Interval.real_line())
# Defined on [2, 5], so the tangent point 1 is outside its domain.
_SHIFTED = ScalarOperatorFunction(
    id="shifted",
    domain=Interval(2.0, 5.0),
    eval=lambda t: np.asarray(t, dtype=float) ** 2,
    deriv=lambda t: 2.0 * np.asarray(t, dtype=float),
)
# Infinite on the grid wherever x > 1.5.
_POLE = BivariateSpec(
    fn=lambda x, y: np.where(x > 1.5, np.inf, x * y),
    domain_x=Interval.real_line(),
    domain_y=Interval.positive(),
)


def _bivariate_with_a_pole():
    left = kernels.decompose(np.diag([1.0, 2.0]).astype(complex))
    return kernels.bivariate(_POLE, left, left)


_REFUSALS = {
    "field_empty": (lambda: WeightedOperatorField([]), EmptyField, "field has no entries"),
    "field_empty_before_probability": (
        lambda: WeightedOperatorField([], probability_normalized=True),
        EmptyField,
        "field has no entries",
    ),
    "field_from_json_empty": (
        lambda: field_from_json({"entries": []}),
        EmptyField,
        "field has no entries",
    ),
    "f_delta_h_across_dims": (
        lambda: f_delta_h(_SQUARE, _IDENTITY, _A2, _B3),
        ShapeMismatch,
        "dimension mismatch 2 vs 3",
    ),
    "f_nabla_h_2d_p": (
        lambda: f_nabla_h(_SQUARE, _IDENTITY, make_field(_RNG, 2, 2), [[0.5, 0.5]], [0.5, 0.5]),
        NotProbability,
        "p must be a vector",
    ),
    "tangent_point_outside_dom": (
        lambda: tangent_point(_SHIFTED),
        DomainViolation,
        "tangent point 1 outside dom(f)",
    ),
    "loewner_compare_across_dims": (
        lambda: loewner_compare(_A2, _A3),
        ShapeMismatch,
        "cannot compare dimensions 2 and 3",
    ),
    "sum_across_dims": (lambda: _A2 + _A3, ShapeMismatch, "dimension mismatch in matrix sum"),
    "difference_across_dims": (
        lambda: _A2 - _A3,
        ShapeMismatch,
        "dimension mismatch in matrix difference",
    ),
    "compression_no_index": (
        lambda: Compression(3, [], 1.0),
        BadRange,
        "compression needs at least one index",
    ),
    "compression_repeated_index": (
        lambda: Compression(3, [1, 1], 1.0),
        BadRange,
        "compression indices must be distinct",
    ),
    "map_sum_empty": (lambda: MapSum([]), BadRange, "map sum needs at least one part"),
    "map_sum_mixed_dims": (
        lambda: MapSum([Congruence(np.eye(2)), Congruence(np.eye(3))]),
        ShapeMismatch,
        "map sum parts must share dimensions",
    ),
    "map_field_empty": (lambda: MapField([]), BadRange, "map field needs at least one entry"),
    "map_field_mixed_dims": (
        lambda: MapField([(1.0, Congruence(np.eye(2))), (1.0, Compression(3, [0, 1], 1.0))]),
        ShapeMismatch,
        "map field entries must share dimensions",
    ),
    "map_from_json_unknown_variant": (
        lambda: map_from_json({"variant": "twist"}),
        BadRange,
        "unknown map variant 'twist'",
    ),
    "rows_to_array_bad_entry": (
        lambda: rows_to_array([[1.0, "x"]]),
        ValueError,
        "bad matrix entry 'x'",
    ),
    "affine_one_parameter": (
        lambda: builtin("affine", [1]),
        ParamOutOfRange,
        "affine expects parameters (a, b)",
    ),
    "builtin_scalar_params": (
        lambda: builtin("power", 2),
        ParamOutOfRange,
        "function params must be a list of finite numbers, got 2",
    ),
    "builtin_string_param": (
        lambda: builtin("power", ["x"]),
        ParamOutOfRange,
        "function params must be a list of finite numbers, got ['x']",
    ),
    "builtin_string_params": (
        lambda: builtin("square", "ab"),
        ParamOutOfRange,
        "function params must be a list of finite numbers, got 'ab'",
    ),
    "builtin_bool_param": (
        lambda: builtin("power", [True]),
        ParamOutOfRange,
        "function params must be a list of finite numbers, got [True]",
    ),
    "builtin_nan_param": (
        lambda: builtin("affine", [1, np.nan]),
        ParamOutOfRange,
        "function params must be a list of finite numbers, got [1, nan]",
    ),
    "gen_config_negative_seed": (
        lambda: GenConfig(seed=-1),
        BadRange,
        "seed must be nonnegative",
    ),
    "bivariate_non_finite_grid": (
        _bivariate_with_a_pole,
        DomainViolation,
        f"eigenvalue inf outside domain {(_POLE.domain_x, _POLE.domain_y)!r}",
    ),
    "bivariate_overflowing_grid": (
        lambda: bivariate_calculus(_X_SQ_OVER_Y, _EYE * 1.3e154, _EYE * 0.5),
        DomainViolation,
        f"eigenvalue inf outside domain {(_X_SQ_OVER_Y.domain_x, _X_SQ_OVER_Y.domain_y)!r}",
    ),
    "bivariate_overflowing_image": (
        lambda: bivariate_calculus(_X, _TOP, _EYE),
        NumericalFailure,
        "bivariate image has non-finite entries",
    ),
    "congruence_overflow": (
        lambda: congruence(np.eye(2) * 1e200, _EYE),
        BadRange,
        "congruence image has non-finite entries",
    ),
    "congruence_nan_matrix": (
        lambda: congruence(np.array([[np.nan, 0.0], [0.0, 1.0]]), _EYE),
        BadRange,
        "congruence image has non-finite entries",
    ),
    "kronecker_overflow": (
        lambda: kronecker(_BIG, _BIG),
        BadRange,
        "Kronecker product has non-finite entries",
    ),
    "perspective_overflowing_inner": (
        lambda: perspective(_IDENTITY, _TOP, _HALF),
        NumericalFailure,
        "cannot decompose a matrix with non-finite entries",
    ),
    "theta_divergence_overflowing_inner": (
        lambda: theta_divergence(_IDENTITY, WeightedOperatorField([(1.0, _TOP, _HALF)])),
        NumericalFailure,
        "cannot decompose a matrix with non-finite entries",
    ),
    "f_delta_h_overflowing_inner": (
        lambda: f_delta_h(_IDENTITY, _IDENTITY, _TOP, _HALF.base),
        NumericalFailure,
        "cannot decompose a matrix with non-finite entries",
    ),
    "f_nabla_h_overflowing_inner": (
        lambda: f_nabla_h(
            _IDENTITY, _IDENTITY, WeightedOperatorField([(1.0, _TOP, _HALF)]), [1.0], [1.0]
        ),
        NumericalFailure,
        "cannot decompose a matrix with non-finite entries",
    ),
    "rebuild_nan": (
        lambda: spectral_decompose(_EYE).rebuild([np.nan, 1.0]),
        BadRange,
        "rebuilt matrix has non-finite entries",
    ),
    "rebuild_overflow": (
        lambda: spectral_decompose(_EYE).rebuild([1e308, 1e308]),
        BadRange,
        "rebuilt matrix has non-finite entries",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_facade_refuses_with_its_own_error(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _field(a, b=_PD, w=1.0):
    return WeightedOperatorField([(w, a, b), (w, a, b)])


# One finite input per facade that returns a `HermitianMatrix`, whose
# result overflows.
_OVERFLOWS = {
    "perspective": lambda: perspective(_IDENTITY, _TOP, _HALF),
    "theta_divergence": lambda: theta_divergence(_IDENTITY, _field(_TOP, _HALF)),
    "f_delta_h": lambda: f_delta_h(_IDENTITY, _IDENTITY, _TOP, _HALF.base),
    "f_nabla_h": lambda: f_nabla_h(
        _IDENTITY, _IDENTITY, _field(_TOP, _HALF), [0.5, 0.5], [0.5, 0.5]
    ),
    "gradient_lower_bound": lambda: gradient_lower_bound(_SQUARE, _field(_TOP, w=0.5)),
    "bivariate_calculus": lambda: bivariate_calculus(_X_SQ_OVER_Y, _EYE * 1.3e154, _EYE * 0.5),
    "apply_function": lambda: apply_function(_SQUARE, _BIG),
    "congruence": lambda: congruence(np.eye(2) * 1e200, _EYE),
    "kronecker": lambda: kronecker(_BIG, _BIG),
    "rebuild": lambda: spectral_decompose(_EYE).rebuild([1e308, 1e308]),
    "sum": lambda: _TOP + _TOP,
    "difference": lambda: _TOP - -_TOP,
    "product": lambda: _TOP * 10.0,
    "congruence_apply": lambda: Congruence(np.eye(2) * 1e200).apply(_EYE),
    "compression_apply": lambda: Compression(2, [0, 1], 10.0).apply(_TOP),
    "map_sum_apply": lambda: MapSum([Congruence(np.eye(2))] * 2).apply(_TOP),
    "scaled_map_apply": lambda: ScaledMap(Congruence(np.eye(2)), 10.0).apply(_TOP),
    "identity_image": lambda: MapField([(1.0, Congruence(np.eye(2) * 1e200))]).identity_image(),
    "weighted_sum_a": lambda: _field(_TOP).weighted_sum_a(),
    "weighted_sum_b": lambda: _field(
        _EYE, PositiveDefiniteMatrix(_EYE * 1e300), 1e10
    ).weighted_sum_b(),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWS))
def test_no_facade_returns_a_non_finite_matrix(case):
    """Every entry of a `HermitianMatrix` is finite: a facade whose result
    overflows raises an OpDivError, returns no matrix and leaks no
    RuntimeWarning, which the test configuration makes an error."""
    with pytest.raises(OpDivError):
        _OVERFLOWS[case]()


def test_field_dim_is_the_entries_dim():
    """A field's dim is its entries' dim."""
    assert make_field(_RNG, 3, 2).dim == 3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kernels.singular_values(np.eye(2)[None]), "singular value computation failed"),
        (
            lambda: kernels.loewner(np.eye(2)[None], np.eye(2)[None], ToleranceConfig()),
            "Loewner comparison failed",
        ),
    ],
    ids=["singular_values", "loewner"],
)
def test_an_eigensolver_failure_raises_numerical_failure(call, message, monkeypatch):
    """LAPACK's LinAlgError in `eigvalsh` leaves a kernel as a
    NumericalFailure that names the computation and the cause."""

    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fails)
    with pytest.raises(NumericalFailure, match=f"^{message}: Eigenvalues did not converge$"):
        call()

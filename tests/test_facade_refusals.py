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
    ParamOutOfRange,
    ShapeMismatch,
)
from opdiv.funcatalog import Interval, ScalarOperatorFunction, builtin
from opdiv.hermitian import ToleranceConfig, loewner_compare, rows_to_array
from opdiv.lab import GenConfig
from opdiv.perspective import (
    BivariateSpec,
    WeightedOperatorField,
    f_delta_h,
    f_nabla_h,
    gradient_lower_bound,
    tangent_point,
)
from opdiv.posmap import Compression, Congruence, MapField, MapSum, map_from_json

_RNG = np.random.default_rng(17)
_A2, _A3 = make_herm(_RNG, 2), make_herm(_RNG, 3)
_B3 = make_pd(_RNG, 3)
_EMPTY = WeightedOperatorField([])
_SQUARE, _IDENTITY = builtin("square"), builtin("identity")
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
    "field_dim_empty": (lambda: _EMPTY.dim, EmptyField, "field has no entries"),
    "weighted_sum_a_empty": (_EMPTY.weighted_sum_a, EmptyField, "field has no entries"),
    "f_nabla_h_empty": (
        lambda: f_nabla_h(_SQUARE, _IDENTITY, _EMPTY, [1.0], [1.0]),
        EmptyField,
        "needs at least one field entry",
    ),
    "gradient_lower_bound_empty": (
        lambda: gradient_lower_bound(_SQUARE, _EMPTY),
        EmptyField,
        "needs at least one field entry",
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
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_facade_refuses_with_its_own_error(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_field_dim_is_the_entries_dim():
    """The refusal's other side: a field's dim is its entries' dim."""
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

import math

import numpy as np
import pytest

from conftest import make_herm, make_pd
from opdiv.errors import (
    BadRange,
    DerivativeRequired,
    DomainViolation,
    EmptyField,
    IllConditioned,
    NonPositiveH,
    NotProbability,
    ShapeMismatch,
    SizeLimit,
)
from opdiv.funcatalog import FunctionFlags, Interval, ScalarOperatorFunction, builtin
from opdiv.hermitian import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    apply_function,
    loewner_compare,
)
from opdiv.perspective import (
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

SQUARE = builtin("square")
IDENT = builtin("identity")
INV = builtin("power", [-1])
NEG_LOG = builtin("neg_log")
T_LOG_T = builtin("t_log_t")
SQRT = builtin("power", [0.5])


def pd(values) -> PositiveDefiniteMatrix:
    return PositiveDefiniteMatrix(HermitianMatrix(np.asarray(values, dtype=complex)))


def test_perspective_square_fixture():
    got = perspective(SQUARE, HermitianMatrix([[3.0, 1.0], [1.0, 2.0]]), pd(np.eye(2)))
    assert np.allclose(got.entries, [[10.0, 5.0], [5.0, 5.0]], atol=1e-12)


def test_perspective_identity_returns_left():
    rng = np.random.default_rng(0)
    left = make_herm(rng, 3)
    right = make_pd(rng, 3)
    got = perspective(IDENT, left, right)
    assert np.allclose(got.entries, left.entries, atol=1e-10)


def test_perspective_inverse_commuting_fixture():
    got = perspective(INV, HermitianMatrix.diagonal([2.0, 1.0]), pd(np.diag([4.0, 9.0])))
    assert np.allclose(got.entries, np.diag([8.0, 81.0]), atol=1e-9)


def test_perspective_closed_forms_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        left = make_pd(rng, 3)
        right = make_pd(rng, 3)
        r_inv = np.linalg.inv(right.entries)
        want_sq = left.entries @ r_inv @ left.entries
        got_sq = perspective(SQUARE, left.base, right)
        assert np.allclose(got_sq.entries, want_sq, rtol=1e-9, atol=1e-11)
        want_inv = right.entries @ np.linalg.inv(left.entries) @ right.entries
        got_inv = perspective(INV, left.base, right)
        assert np.allclose(got_inv.entries, want_inv, rtol=1e-9, atol=1e-11)


def test_perspective_homogeneity_and_normalization():
    rng = np.random.default_rng(2)
    for f in (SQUARE, NEG_LOG, INV):
        left = make_pd(rng, 3).base
        right = make_pd(rng, 3)
        c = float(rng.uniform(0.5, 3.0))
        scaled = perspective(f, c * left, PositiveDefiniteMatrix(c * right.base))
        plain = perspective(f, left, right)
        assert np.allclose(scaled.entries, c * plain.entries, rtol=1e-9, atol=1e-10)
        at_identity = perspective(f, left, pd(np.eye(3)))
        assert np.allclose(at_identity.entries, apply_function(f, left).entries, atol=1e-10)


def test_perspective_ill_conditioned_cap():
    right = pd(np.diag([1.0, 3e8]))
    with pytest.raises(IllConditioned):
        perspective(SQUARE, HermitianMatrix.identity(2), right)
    perspective(SQUARE, HermitianMatrix.identity(2), right, condition_cap=1e9)


def test_perspective_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        perspective(SQUARE, HermitianMatrix.identity(3), pd(np.eye(2)))


def test_theta_scalar_reduction_fixture():
    field = WeightedOperatorField(
        [(1.0, HermitianMatrix([[1.0]]), pd([[2.0]])), (1.0, HermitianMatrix([[3.0]]), pd([[2.0]]))]
    )
    got = theta_divergence(SQUARE, field)
    assert got.entries[0, 0].real == pytest.approx(5.0, abs=1e-12)


def test_theta_identity_is_weighted_sum():
    rng = np.random.default_rng(3)
    entries = [(float(w), make_herm(rng, 3, 0.1, 4.0), make_pd(rng, 3)) for w in (0.5, 1.5, 2.0)]
    field = WeightedOperatorField(entries)
    got = theta_divergence(IDENT, field)
    assert np.allclose(got.entries, field.weighted_sum_a().entries, atol=1e-10)


def test_theta_empty_field():
    field = WeightedOperatorField([])
    with pytest.raises(EmptyField):
        theta_divergence(SQUARE, field)


def test_theta_joint_convexity_sampled():
    rng = np.random.default_rng(4)
    for f in (SQUARE, NEG_LOG):
        for _ in range(10):
            lam = float(rng.uniform(0.1, 0.9))
            fields = []
            for _ in range(2):
                fields.append(
                    WeightedOperatorField(
                        [(1.0, make_herm(rng, 2, 0.1, 4.0), make_pd(rng, 2)) for _ in range(2)]
                    )
                )
            x, y = fields
            mixed = WeightedOperatorField(
                [
                    (
                        1.0,
                        lam * ax + (1 - lam) * ay,
                        PositiveDefiniteMatrix(lam * bx.base + (1 - lam) * by.base),
                    )
                    for (_, ax, bx), (_, ay, by) in zip(x, y)
                ]
            )
            lhs = theta_divergence(f, mixed)
            rhs = lam * theta_divergence(f, x) + (1 - lam) * theta_divergence(f, y)
            assert loewner_compare(lhs, rhs).holds_le


def test_field_validation():
    with pytest.raises(BadRange):
        WeightedOperatorField([(0.0, HermitianMatrix.identity(2), pd(np.eye(2)))])
    with pytest.raises(ShapeMismatch):
        WeightedOperatorField(
            [
                (1.0, HermitianMatrix.identity(2), pd(np.eye(2))),
                (1.0, HermitianMatrix.identity(3), pd(np.eye(3))),
            ]
        )
    with pytest.raises(NotProbability):
        WeightedOperatorField(
            [(0.7, HermitianMatrix.identity(2), pd(np.eye(2)))], probability_normalized=True
        )
    WeightedOperatorField(
        [(1.0, HermitianMatrix.identity(2), pd(np.eye(2)))], probability_normalized=True
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("normalized", [False, True])
def test_field_refuses_non_finite_weights(bad, normalized):
    """NaN fails no `w <= 0` test: a NaN weight gave an all-NaN weighted
    sum (an inf one inf+nanj entries), and passed the sum-to-one check."""
    with pytest.raises(BadRange, match="finite"):
        WeightedOperatorField(
            [(bad, HermitianMatrix.identity(2), pd(np.eye(2)))], probability_normalized=normalized
        )


def test_f_delta_h_identity_reduces_to_perspective():
    rng = np.random.default_rng(5)
    left = make_herm(rng, 3, 0.1, 4.0)
    right = make_pd(rng, 3)
    got = f_delta_h(SQUARE, IDENT, left, right.base)
    want = perspective(SQUARE, left, right)
    assert np.allclose(got.entries, want.entries, atol=1e-10)


def test_f_delta_h_commuting_fixture():
    got = f_delta_h(INV, SQRT, HermitianMatrix.diagonal([1.0, 1.0]), HermitianMatrix.diagonal([4.0, 16.0]))
    assert np.allclose(got.entries, np.diag([4.0, 16.0]), atol=1e-9)


def test_f_delta_h_power_one_fixture():
    got = f_delta_h(SQUARE, builtin("power", [1.0]), HermitianMatrix([[3.0, 1.0], [1.0, 2.0]]), HermitianMatrix.identity(2))
    assert np.allclose(got.entries, [[10.0, 5.0], [5.0, 5.0]], atol=1e-10)


def test_f_delta_h_rejects_bad_h():
    left = HermitianMatrix.identity(2)
    right = HermitianMatrix.diagonal([1.0, 2.0])
    with pytest.raises(NonPositiveH):
        f_delta_h(SQUARE, NEG_LOG, left, right)  # -log is not flagged positive
    shifted = builtin("affine", [1.0, -10.0])
    flagged = ScalarOperatorFunction(
        id="bad_affine", domain=shifted.domain, eval=shifted.eval,
        flags=FunctionFlags(strictly_positive=True),
    )
    with pytest.raises(NonPositiveH):
        f_delta_h(SQUARE, flagged, left, right)  # h(R) has negative eigenvalues


def test_unflagged_h_is_refused_before_r_is_decomposed(monkeypatch):
    """An h not flagged strictly positive raises NonPositiveH before R is
    decomposed, so a bad h is named even where R's decomposition fails."""
    from opdiv import kernels

    def failing(h):
        raise AssertionError("R was decomposed before h was checked")

    left = HermitianMatrix.identity(2)
    right = HermitianMatrix.diagonal([1.0, 2.0])
    field = WeightedOperatorField([(1.0, left, PositiveDefiniteMatrix(right.entries))])
    monkeypatch.setattr(kernels, "decompose", failing)
    with pytest.raises(NonPositiveH):
        f_delta_h(SQUARE, NEG_LOG, left, right)
    with pytest.raises(NonPositiveH):
        f_nabla_h(SQUARE, NEG_LOG, field, [1.0], [1.0])


def test_f_nabla_h_point_mass_reduces_to_delta():
    rng = np.random.default_rng(6)
    entries = [(1.0, make_herm(rng, 2, 0.1, 4.0), make_pd(rng, 2)) for _ in range(3)]
    field = WeightedOperatorField(entries)
    got = f_nabla_h(SQUARE, SQRT, field, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    want = f_delta_h(SQUARE, SQRT, entries[0][1], entries[0][2].base)
    assert np.allclose(got.entries, want.entries, atol=1e-10)


def test_f_nabla_h_identity_f_gives_weighted_left_sum():
    rng = np.random.default_rng(7)
    entries = [(1.0, make_herm(rng, 2, 0.1, 4.0), make_pd(rng, 2)) for _ in range(3)]
    field = WeightedOperatorField(entries)
    p = np.array([0.2, 0.5, 0.3])
    q = np.array([0.3, 0.3, 0.4])
    got = f_nabla_h(IDENT, SQRT, field, p, q)
    want = sum((p[i] * entries[i][1] for i in range(1, 3)), p[0] * entries[0][1])
    assert np.allclose(got.entries, want.entries, atol=1e-10)


def test_f_nabla_h_scalar_fixture():
    field = WeightedOperatorField(
        [(1.0, HermitianMatrix([[2.0]]), pd([[1.0]])), (1.0, HermitianMatrix([[4.0]]), pd([[1.0]]))]
    )
    got = f_nabla_h(SQUARE, IDENT, field, [0.5, 0.5], [0.5, 0.5])
    assert got.entries[0, 0].real == pytest.approx(20.0, abs=1e-10)


def test_f_nabla_h_probability_validation():
    rng = np.random.default_rng(8)
    entries = [(1.0, make_herm(rng, 2, 0.1, 4.0), make_pd(rng, 2)) for _ in range(2)]
    field = WeightedOperatorField(entries)
    with pytest.raises(NotProbability):
        f_nabla_h(SQUARE, SQRT, field, [0.6, 0.6], [0.5, 0.5])
    with pytest.raises(NotProbability):
        f_nabla_h(SQUARE, SQRT, field, [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(NotProbability):
        f_nabla_h(SQUARE, SQRT, field, [0.5, 0.5], [0.5, 0.5, 0.0])


@pytest.mark.parametrize(
    "p, q", [([math.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [math.nan, 1.0])]
)
def test_f_nabla_h_refuses_nan_probabilities(p, q):
    """A NaN entry passed both the sign and the sum check of a probability
    vector, and f_nabla_h returned a NaN matrix or failed in the solver."""
    rng = np.random.default_rng(8)
    entries = [(1.0, make_herm(rng, 2, 0.1, 4.0), make_pd(rng, 2)) for _ in range(2)]
    field = WeightedOperatorField(entries)
    with np.errstate(all="ignore"), pytest.raises(NotProbability):
        f_nabla_h(SQUARE, SQRT, field, p, q)


def test_nan_condition_cap_refuses_every_right_side():
    """`cond > nan` is false for every cond, so a NaN cap let a condition
    number of 1e9 through; a guard that fails on NaN refuses it."""
    right = pd(np.diag([1e9, 1.0]))
    with pytest.raises(IllConditioned):
        perspective(SQUARE, HermitianMatrix.identity(2), right, condition_cap=math.nan)


def test_bivariate_fixtures():
    a = HermitianMatrix.diagonal([1.0, 2.0])
    eye = HermitianMatrix.identity(2)
    first = bivariate_calculus(
        BivariateSpec(lambda x, y: x + 0.0 * y, Interval.real_line(), Interval.real_line()),
        a,
        eye,
    )
    assert np.allclose(np.sort(np.diag(first.entries).real), [1.0, 1.0, 2.0, 2.0])

    b = HermitianMatrix.diagonal([3.0, 4.0])
    prod = bivariate_calculus(
        BivariateSpec(lambda x, y: x * y, Interval.real_line(), Interval.real_line()), a, b
    )
    assert np.allclose(prod.entries, np.kron(a.entries, b.entries), atol=1e-10)

    ratio = bivariate_calculus(
        BivariateSpec(lambda x, y: x * x / y, Interval.nonnegative(), Interval.positive()),
        a,
        HermitianMatrix.diagonal([1.0, 4.0]),
    )
    assert np.allclose(np.diag(ratio.entries).real, [1.0, 0.25, 4.0, 1.0], atol=1e-10)


def test_bivariate_unitary_covariance():
    rng = np.random.default_rng(9)
    from opdiv.hermitian import unitary_from_rng

    spec = BivariateSpec(lambda x, y: x * x / y, Interval.nonnegative(), Interval.positive())
    a = make_pd(rng, 2).base
    b = make_pd(rng, 3).base
    u = unitary_from_rng(rng, 2)
    v = unitary_from_rng(rng, 3)
    base = bivariate_calculus(spec, a, b)
    rotated = bivariate_calculus(
        spec,
        HermitianMatrix(u @ a.entries @ u.conj().T),
        HermitianMatrix(v @ b.entries @ v.conj().T),
    )
    w = np.kron(u, v)
    want = w @ base.entries @ w.conj().T
    assert np.linalg.norm(rotated.entries - want) <= 1e-9 * max(1.0, np.linalg.norm(want))


def test_bivariate_size_cap_and_domain():
    big = HermitianMatrix.identity(9)
    spec = BivariateSpec(lambda x, y: x * y, Interval.real_line(), Interval.real_line())
    with pytest.raises(SizeLimit):
        bivariate_calculus(spec, big, big)
    neg = HermitianMatrix.diagonal([-1.0, 1.0])
    pos_spec = BivariateSpec(lambda x, y: x / y, Interval.positive(), Interval.positive())
    with pytest.raises(DomainViolation):
        bivariate_calculus(pos_spec, neg, HermitianMatrix.identity(2))


def test_bivariate_nan_size_cap_is_refused():
    """`81 > nan` is false, so a NaN cap built the 81 x 81 calculus."""
    big = HermitianMatrix.identity(9)
    spec = BivariateSpec(lambda x, y: x * y, Interval.real_line(), Interval.real_line())
    with pytest.raises(SizeLimit):
        bivariate_calculus(spec, big, big, size_cap=math.nan)


def test_gradient_lower_bound_fixtures():
    rng = np.random.default_rng(10)
    entries = [(float(w), make_herm(rng, 3, 0.1, 4.0), make_pd(rng, 3)) for w in (1.0, 0.5)]
    field = WeightedOperatorField(entries)
    sum_a = field.weighted_sum_a()
    sum_b = field.weighted_sum_b()

    got = gradient_lower_bound(T_LOG_T, field)   # f(1)=0, f'(1)=1
    assert np.allclose(got.entries, (sum_a - sum_b).entries, atol=1e-10)

    got = gradient_lower_bound(NEG_LOG, field)   # f(1)=0, f'(1)=-1
    assert np.allclose(got.entries, (sum_b - sum_a).entries, atol=1e-10)

    got = gradient_lower_bound(SQUARE, field)    # f(1)=1, f'(1)=2
    want = 2.0 * sum_a - sum_b
    assert np.allclose(got.entries, want.entries, atol=1e-10)


def test_gradient_lower_bound_requires_derivative():
    f = ScalarOperatorFunction(
        id="no_deriv", domain=Interval.real_line(), eval=lambda t: np.asarray(t) ** 2
    )
    field = WeightedOperatorField([(1.0, HermitianMatrix.identity(2), pd(np.eye(2)))])
    with pytest.raises(DerivativeRequired):
        gradient_lower_bound(f, field)


def test_theta_output_is_hermitian_invariant():
    rng = np.random.default_rng(11)
    field = WeightedOperatorField(
        [(float(rng.uniform(0.2, 2.0)), make_herm(rng, 4, 0.1, 4.0), make_pd(rng, 4)) for _ in range(3)]
    )
    got = theta_divergence(NEG_LOG, field)
    HermitianMatrix(got.entries)  # construction re-checks the symmetry invariant


def test_field_json_roundtrip():
    rng = np.random.default_rng(12)
    field = WeightedOperatorField(
        [(1.5, make_herm(rng, 2, 0.1, 4.0), make_pd(rng, 2)) for _ in range(2)]
    )
    blob = field_to_json(field)
    back = field_from_json(blob)
    assert back.size == field.size
    for (w1, a1, b1), (w2, a2, b2) in zip(field, back):
        assert w1 == w2
        assert np.allclose(a1.entries, a2.entries)
        assert np.allclose(b1.entries, b2.entries)

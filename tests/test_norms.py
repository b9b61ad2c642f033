import math

import numpy as np
import pytest

from conftest import make_herm, make_pd
from opdiv.errors import BadK, BadRange, NumericalFailure, ShapeMismatch
from opdiv.hermitian import ToleranceConfig, unitary_from_rng
from opdiv.norms import (
    ky_fan,
    ky_fan_dominates,
    singular_values,
    spectral_norm,
    trace_norm,
)


def test_singular_values_fixtures():
    assert np.allclose(singular_values(np.diag([3.0, 1.0, -2.0])).values, [3.0, 2.0, 1.0])
    assert np.allclose(singular_values(np.eye(3)).values, [1.0, 1.0, 1.0])
    assert np.allclose(singular_values(np.array([[0.0, 2.0], [0.0, 0.0]])).values, [2.0, 0.0])


def test_singular_values_match_abs_eigenvalues_for_hermitian():
    rng = np.random.default_rng(0)
    for _ in range(10):
        h = make_herm(rng, 4)
        got = singular_values(h).values
        want = np.sort(np.abs(np.linalg.eigvalsh(h.entries)))[::-1]
        assert np.allclose(got, want, atol=1e-10)


def test_ky_fan_fixtures():
    assert ky_fan(np.diag([3.0, 1.0, -2.0]), 2) == pytest.approx(5.0)
    for n in (2, 4):
        for k in range(1, n + 1):
            assert ky_fan(np.eye(n), k) == pytest.approx(float(k))
    top = ky_fan(np.array([[10.0, 5.0], [5.0, 5.0]]), 1)
    assert top == pytest.approx((15.0 + math.sqrt(125.0)) / 2.0)


def test_ky_fan_extremes_are_spectral_and_trace_norms():
    rng = np.random.default_rng(1)
    h = make_herm(rng, 4)
    assert spectral_norm(h) == pytest.approx(ky_fan(h, 1))
    assert trace_norm(h) == pytest.approx(ky_fan(h, 4))


def test_ky_fan_bad_k():
    with pytest.raises(BadK):
        ky_fan(np.eye(2), 0)
    with pytest.raises(BadK):
        ky_fan(np.eye(2), 3)


def test_dominance_fixtures():
    rng = np.random.default_rng(2)
    b = make_pd(rng, 3).base
    assert ky_fan_dominates(0.5 * b, b)
    assert not ky_fan_dominates(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    with pytest.raises(ShapeMismatch):
        ky_fan_dominates(np.eye(2), np.eye(3))


def test_dominance_implies_endpoint_norms():
    rng = np.random.default_rng(3)
    tol = ToleranceConfig()
    for _ in range(20):
        a = make_herm(rng, 3)
        b = make_herm(rng, 3)
        if ky_fan_dominates(a, b, tol):
            s = max(spectral_norm(a), spectral_norm(b))
            assert trace_norm(a) <= trace_norm(b) + tol.at_scale(s)
            assert spectral_norm(a) <= spectral_norm(b) + tol.at_scale(s)


def test_unitary_invariance():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = make_herm(rng, 4).entries
        u = unitary_from_rng(rng, 4)
        v = unitary_from_rng(rng, 4)
        for k in (1, 2, 4):
            assert ky_fan(u @ a @ v, k) == pytest.approx(ky_fan(a, k), rel=1e-9, abs=1e-9)


def test_triangle_inequality_per_k():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = make_herm(rng, 3)
        b = make_herm(rng, 3)
        for k in (1, 2, 3):
            assert ky_fan(a + b, k) <= ky_fan(a, k) + ky_fan(b, k) + 1e-9


def test_top_k_eigenvalue_sum_dominates_frames():
    rng = np.random.default_rng(6)
    for _ in range(15):
        a = make_herm(rng, 4)
        eigs = np.sort(np.linalg.eigvalsh(a.entries))[::-1]
        for k in (1, 2, 3):
            g = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
            q, _ = np.linalg.qr(g)
            frame_sum = float(np.trace(q.conj().T @ a.entries @ q).real)
            assert frame_sum <= eigs[:k].sum() + 1e-9


@pytest.mark.parametrize(
    "call",
    [
        singular_values,
        lambda x: ky_fan(x, 1),
        spectral_norm,
        trace_norm,
        lambda x: ky_fan_dominates(x, x),
    ],
    ids=["singular_values", "ky_fan", "spectral_norm", "trace_norm", "ky_fan_dominates"],
)
def test_an_empty_matrix_is_refused(call):
    """A 0 x 0 array passed the squareness check: it had an empty spectrum,
    ky_fan and trace_norm raised BadK "k must be in 1..0", and two of them
    dominated each other."""
    with pytest.raises(ShapeMismatch, match="nonempty square matrix"):
        call(np.zeros((0, 0)))


def _with_nan() -> np.ndarray:
    a = np.eye(2)
    a[0, 1] = np.nan
    return a


@pytest.mark.parametrize(
    "call",
    [
        singular_values,
        lambda x: ky_fan(x, 1),
        lambda x: ky_fan_dominates(x, np.eye(2)),
        lambda x: ky_fan_dominates(np.eye(2), x),
    ],
    ids=["singular_values", "ky_fan", "ky_fan_dominates", "ky_fan_dominated"],
)
def test_a_non_finite_matrix_is_refused(call):
    """With one NaN entry, singular_values gave [nan, nan], ky_fan nan, and
    ky_fan_dominates False in both argument orders."""
    with pytest.raises(BadRange, match="non-finite entries"):
        call(_with_nan())


def test_an_overflowing_gram_product_is_refused():
    """Entries of 1e300 overflow A* A: the singular values came out NaN
    under a RuntimeWarning (an error under this suite's warning filter)."""
    with pytest.raises(NumericalFailure, match="X\\* X has non-finite entries"):
        singular_values(np.full((2, 2), 1e300))

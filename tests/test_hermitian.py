import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_herm, make_pd
from opdiv import kernels
from opdiv.errors import (
    BadRange,
    DomainViolation,
    NotHermitian,
    NotPositiveDefinite,
    NumericalFailure,
    ShapeMismatch,
    SizeLimit,
)
from opdiv.funcatalog import builtin
from opdiv.hermitian import (
    HermitianMatrix,
    LoewnerRelation,
    PositiveDefiniteMatrix,
    ToleranceConfig,
    apply_function,
    congruence,
    hermitian_part,
    kronecker,
    loewner_compare,
    matrix_from_json,
    matrix_to_json,
    spectral_decompose,
)


def test_construction_symmetrizes_and_embeds_real():
    h = HermitianMatrix([[1.0, 2.0], [2.0, 5.0]])
    assert h.entries.dtype == complex
    assert np.array_equal(h.entries, h.entries.conj().T)


def test_construction_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ShapeMismatch):
        HermitianMatrix(np.zeros((2, 3)))


def test_construction_tolerates_roundoff_skew():
    base = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    base[0, 1] += 1e-14
    h = HermitianMatrix(base)
    assert np.array_equal(h.entries, h.entries.conj().T)


def test_spectral_decompose_diagonal():
    d = spectral_decompose(HermitianMatrix.diagonal([2.0, 3.0]))
    assert np.allclose(d.eigenvalues, [3.0, 2.0])


def test_spectral_decompose_identity():
    d = spectral_decompose(HermitianMatrix.identity(3))
    assert np.allclose(d.eigenvalues, [1.0, 1.0, 1.0])
    assert np.allclose(d.unitary @ d.unitary.conj().T, np.eye(3))


def test_spectral_decompose_two_by_two_closed_form():
    h = HermitianMatrix([[2.0, 1.0], [1.0, 2.0]])
    d = spectral_decompose(h)
    assert np.allclose(d.eigenvalues, [3.0, 1.0])
    # eigenvectors are (1, 1)/sqrt(2) and (1, -1)/sqrt(2) up to phase
    assert np.allclose(np.abs(d.unitary), np.full((2, 2), 1 / math.sqrt(2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_spectral_reconstruction_invariant(dim, seed):
    h = make_herm(np.random.default_rng(seed), dim, -3.0, 3.0)
    d = spectral_decompose(h)
    recon = (d.unitary * d.eigenvalues) @ d.unitary.conj().T
    assert np.linalg.norm(recon - h.entries) <= 1e-10 * max(1.0, h.norm_fro())
    assert np.all(np.diff(d.eigenvalues) <= 1e-12)


def test_apply_function_square_diagonal():
    got = apply_function(builtin("square"), HermitianMatrix.diagonal([2.0, 3.0]))
    assert np.allclose(got.entries, np.diag([4.0, 9.0]))


def test_apply_function_neg_log_identity_is_zero():
    got = apply_function(builtin("neg_log"), HermitianMatrix.identity(3))
    assert np.allclose(got.entries, 0.0)


def test_apply_function_sqrt_closed_form():
    got = apply_function(builtin("power", [0.5]), HermitianMatrix([[2.0, 1.0], [1.0, 2.0]]))
    s = math.sqrt(3.0)
    want = np.array([[(s + 1) / 2, (s - 1) / 2], [(s - 1) / 2, (s + 1) / 2]])
    assert np.allclose(got.entries, want, atol=1e-12)


def test_apply_function_identity_is_noop():
    rng = np.random.default_rng(5)
    h = make_herm(rng, 4)
    got = apply_function(builtin("identity"), h)
    assert np.allclose(got.entries, h.entries, atol=1e-13)


def test_apply_function_clamps_roundoff_below_closed_boundary():
    h = HermitianMatrix.diagonal([1.0, -1e-12])
    got = apply_function(builtin("power", [0.5]), h)
    assert np.allclose(got.entries, np.diag([1.0, 0.0]), atol=1e-9)


def test_apply_function_domain_violation():
    h = HermitianMatrix.diagonal([1.0, -0.5])
    with pytest.raises(DomainViolation):
        apply_function(builtin("neg_log"), h)
    with pytest.raises(DomainViolation):
        apply_function(builtin("power", [0.5]), h)


def test_apply_function_composition_matches_direct():
    rng = np.random.default_rng(11)
    pairs = [
        (builtin("square"), builtin("power", [0.5])),   # t
        (builtin("power", [-1]), builtin("power", [-1])),  # t
        (builtin("neg_log"), builtin("square")),        # -2 log t on (0, inf)
    ]
    from opdiv.funcatalog import FunctionFlags, ScalarOperatorFunction

    for outer, inner in pairs:
        composed = ScalarOperatorFunction(
            id=f"{outer.id}.{inner.id}",
            domain=inner.domain,
            eval=lambda t, o=outer, i=inner: o.eval(i.eval(t)),
            flags=FunctionFlags(),
        )
        for _ in range(5):
            h = make_pd(rng, 3).base
            direct = apply_function(composed, h)
            staged = apply_function(outer, apply_function(inner, h))
            scale = max(1.0, direct.norm_fro())
            assert np.linalg.norm(direct.entries - staged.entries) <= 1e-9 * scale


def test_congruence_identity_and_projection():
    x = HermitianMatrix([[1.0, 2.0], [2.0, 5.0]])
    assert np.allclose(congruence(np.eye(2), x).entries, x.entries)
    got = congruence(np.diag([1.0, 0.0]), x)
    assert np.allclose(got.entries, [[1.0, 0.0], [0.0, 0.0]])


def test_congruence_scaled_identity():
    x = HermitianMatrix([[3.0, 1.0], [1.0, 2.0]])
    got = congruence(np.eye(2) / math.sqrt(3.0), x)
    assert np.allclose(got.entries, [[1.0, 1 / 3], [1 / 3, 2 / 3]])


def test_congruence_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        congruence(np.eye(3), HermitianMatrix.identity(2))


def test_congruence_preserves_order():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = make_herm(rng, 3)
        gap = make_pd(rng, 3, 0.05, 1.0)
        b = a + gap.base
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        verdict = loewner_compare(congruence(c, a), congruence(c, b))
        assert verdict.holds_le


def test_loewner_fixture_pair_is_strictly_less():
    a = HermitianMatrix([[10.0, 5.0], [5.0, 5.0]])
    b = HermitianMatrix([[15.0, 3.0], [3.0, 6.0]])
    verdict = loewner_compare(a, b)
    assert verdict.relation is LoewnerRelation.LESS_OR_EQUAL
    assert verdict.margin_low > 0


def test_loewner_equal_and_incomparable():
    a = HermitianMatrix.diagonal([1.0, 2.0])
    assert loewner_compare(a, a).relation is LoewnerRelation.EQUAL
    b = HermitianMatrix.diagonal([2.0, 1.0])
    assert loewner_compare(a, b).relation is LoewnerRelation.INCOMPARABLE
    assert loewner_compare(b + b, b).relation is LoewnerRelation.GREATER_OR_EQUAL


def test_loewner_tolerance_reported():
    a = HermitianMatrix.diagonal([1.0, 1.0])
    tol = ToleranceConfig(abs=1e-6, rel=1e-3)
    verdict = loewner_compare(a, a, tol)
    assert verdict.tolerance_used == pytest.approx(1e-6 + 1e-3 * 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_refused(bad):
    """Every symmetry guard compares against the entry, which is false for
    NaN, so a non-finite matrix is refused before them."""
    entries = [[bad, 0.0], [0.0, 1.0]]
    with pytest.raises(NotHermitian, match="non-finite"):
        HermitianMatrix(entries)
    with pytest.raises(NotHermitian, match="non-finite"):
        PositiveDefiniteMatrix(entries)
    with pytest.raises(NotHermitian, match="non-finite"):
        matrix_from_json(json.loads(json.dumps({"dim": 2, "rows": entries})))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_side_gets_no_loewner_verdict(bad):
    """A non-finite matrix that bypasses the constructor, as a symmetrized
    product or a congruence image does, gets no verdict: its eigenvalues
    would be arbitrary (a NaN entry read EQUAL with margin 0)."""
    eye, entries = HermitianMatrix.identity(2), np.array([[bad, 0.0], [0.0, 1.0]])
    with np.errstate(all="ignore"):
        for side in (hermitian_part(entries), congruence(entries, eye)):
            for lhs, rhs in ((side, eye), (eye, side)):
                with pytest.raises(NumericalFailure, match="Loewner comparison failed"):
                    loewner_compare(lhs, rhs)


def test_nan_matrix_fails_the_positivity_and_decomposition_guards():
    """A NaN entry that bypasses the constructor makes the residuals and
    the smallest eigenvalue NaN, and every guard fails on NaN: neither a
    positive-definite matrix with min_eig nan nor a spectrum [1, nan]."""
    side = hermitian_part(np.array([[math.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises((NumericalFailure, NotPositiveDefinite)):
        PositiveDefiniteMatrix(side)
    with pytest.raises(NumericalFailure):
        spectral_decompose(side)
    with pytest.raises(NotPositiveDefinite, match="nan"):
        kernels.strictly_positive((np.array([1.0, math.nan]), np.eye(2)))


@pytest.mark.parametrize("stacked", [False, True])
def test_infinite_entry_fails_the_decomposition_guards(stacked):
    """eigh of a matrix with an inf entry returns NaN eigenvalues, whose
    residuals are NaN: the guards raise on the single-matrix route and on
    a stack alike."""
    entries = np.array([[math.inf, 0.0], [0.0, 1.0]], dtype=complex)
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure):
        kernels.decompose(entries[None] if stacked else entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_multiple_refuses_a_non_finite_factor(bad):
    """A non-finite factor gave a NaN or infinite matrix past the
    constructor's refusal; its trace and norms then read NaN."""
    eye = HermitianMatrix.identity(2)
    with pytest.raises(BadRange, match="finite"):
        eye * bad
    with pytest.raises(BadRange, match="finite"):
        bad * eye


@pytest.mark.parametrize("factor", [1e300, -1e300])
def test_scalar_multiple_refuses_an_overflowing_product(factor):
    """A finite factor under which an entry overflows gave a matrix with an
    infinite entry, and an infinite trace, past the constructor's
    non-finite refusal; a product that stays finite is kept."""
    big = HermitianMatrix.diagonal([1e10, 1.0])
    with pytest.raises(BadRange, match="finite"):
        big * factor
    with pytest.raises(BadRange, match="finite"):
        factor * big
    assert (big * (factor / 1e10)).trace() == factor + factor / 1e10


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-8])
def test_tolerance_rejects_non_finite_and_negative(bad):
    with pytest.raises(ValueError):
        ToleranceConfig(abs=bad)
    with pytest.raises(ValueError):
        ToleranceConfig(rel=bad)


def test_kronecker_fixtures():
    eye2 = HermitianMatrix.identity(2)
    assert np.allclose(kronecker(eye2, eye2).entries, np.eye(4))
    got = kronecker(HermitianMatrix.diagonal([1.0, 2.0]), HermitianMatrix.diagonal([3.0, 4.0]))
    assert np.allclose(got.entries, np.diag([3.0, 4.0, 6.0, 8.0]))
    swap = kronecker(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]), eye2)
    assert np.allclose(np.sort(np.linalg.eigvalsh(swap.entries)), [-1, -1, 1, 1])


def test_kronecker_size_cap():
    big = HermitianMatrix.identity(9)
    with pytest.raises(SizeLimit):
        kronecker(big, big)
    assert kronecker(big, big, size_cap=100).dim == 81


def test_kronecker_nan_size_cap_is_refused():
    """`81 > nan` is false, so a NaN cap built the 81 x 81 product."""
    big = HermitianMatrix.identity(9)
    with pytest.raises(SizeLimit):
        kronecker(big, big, size_cap=math.nan)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_kronecker_spectrum_is_pairwise_products(seed):
    rng = np.random.default_rng(seed)
    a = make_herm(rng, 3)
    b = make_herm(rng, 2)
    got = np.sort(np.linalg.eigvalsh(kronecker(a, b).entries))
    ea = np.linalg.eigvalsh(a.entries)
    eb = np.linalg.eigvalsh(b.entries)
    want = np.sort(np.outer(ea, eb).reshape(-1))
    assert np.allclose(got, want, atol=1e-9)


def test_positive_definite_accepts_and_rejects():
    pd = PositiveDefiniteMatrix(HermitianMatrix.diagonal([2.0, 0.5]))
    assert pd.min_eigenvalue == pytest.approx(0.5)
    assert pd.condition_number == pytest.approx(4.0)
    with pytest.raises(NotPositiveDefinite):
        PositiveDefiniteMatrix(HermitianMatrix.diagonal([1.0, -0.1]))
    with pytest.raises(NotPositiveDefinite):
        PositiveDefiniteMatrix(HermitianMatrix.diagonal([1.0, 0.0]))


def test_sqrt_pair_consistency():
    pd = make_pd(np.random.default_rng(9), 4)
    half, inv_half = pd.sqrt_pair()
    assert np.allclose((half.entries @ half.entries), pd.entries, atol=1e-10)
    assert np.allclose(half.entries @ inv_half.entries, np.eye(4), atol=1e-10)


def test_matrix_json_roundtrip_real_and_complex():
    real = HermitianMatrix([[1.0, 0.5], [0.5, 2.0]])
    blob = matrix_to_json(real)
    assert blob["rows"] == [[1.0, 0.5], [0.5, 2.0]]
    assert np.array_equal(matrix_from_json(blob).entries, real.entries)

    cplx = HermitianMatrix(np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 2.0]]))
    blob = matrix_to_json(cplx)
    assert blob["rows"][0][1] == [0.5, 0.25]
    assert np.array_equal(matrix_from_json(blob).entries, cplx.entries)


def test_matrix_json_mixed_entry_forms():
    got = matrix_from_json({"dim": 2, "rows": [[1, [0, 1]], [[0, -1], 2]]})
    assert np.array_equal(got.entries, np.array([[1, 1j], [-1j, 2]]))
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 3, "rows": [[1.0]]})

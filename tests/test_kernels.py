"""Stacked kernels give the bits of the single-matrix computations.

The lab evaluates every trial of a check at once on stacked arrays, and
its reports must not move by a bit. These tests hold the kernels to the
formulas they replaced: the three-eigvalsh Loewner comparison, the
per-value domain clamp loop and per-matrix function evaluation.
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_field, make_herm, make_pd
from opdiv import batched, kernels
from opdiv.errors import (
    DomainViolation,
    IllConditioned,
    NonPositiveH,
    NotPositiveDefinite,
    NumericalFailure,
    OpDivError,
)
from opdiv.funcatalog import (
    FunctionFlags,
    Interval,
    ScalarOperatorFunction,
    builtin,
    from_spec,
    quartic,
    sampling_window,
)
from opdiv.hermitian import (
    HermitianMatrix,
    LoewnerRelation,
    LoewnerVerdict,
    PositiveDefiniteMatrix,
    ToleranceConfig,
    apply_function,
    loewner_compare,
    unitary_from_rng,
)
from opdiv.lab import GenConfig, check_ids, convexity_falsifier, run_check
from opdiv.perspective import (
    BivariateSpec,
    WeightedOperatorField,
    bivariate_calculus,
    f_nabla_h,
    perspective,
    theta_divergence,
)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


# ---------------------------------------------------------------------------
# Loewner comparison: one stacked eigvalsh instead of three calls
# ---------------------------------------------------------------------------


def _three_call_verdict(a, b, tol):
    """loewner_compare as three eigvalsh calls: B - A, then ||A||_2 and ||B||_2."""
    diff = np.linalg.eigvalsh(b.entries - a.entries)
    margin_low = float(diff[0])
    margin_high = float(-diff[-1])
    norm_a = float(np.max(np.abs(np.linalg.eigvalsh(a.entries))))
    norm_b = float(np.max(np.abs(np.linalg.eigvalsh(b.entries))))
    tolerance_used = tol.at_scale(max(norm_a, norm_b))
    le = margin_low >= -tolerance_used
    ge = margin_high >= -tolerance_used
    if le and ge:
        relation = LoewnerRelation.EQUAL
    elif le:
        relation = LoewnerRelation.LESS_OR_EQUAL
    elif ge:
        relation = LoewnerRelation.GREATER_OR_EQUAL
    else:
        relation = LoewnerRelation.INCOMPARABLE
    return LoewnerVerdict(relation, margin_low, margin_high, tolerance_used)


def _verdict_bits(v: LoewnerVerdict):
    floats = (v.margin_low, v.margin_high, v.tolerance_used)
    return (v.relation, *(struct.pack("<d", x) for x in floats), *(type(x) for x in floats))


@pytest.mark.parametrize("dim", [2, 5, 8, 64])
def test_loewner_verdict_is_bit_identical_to_three_call_formula(dim):
    rng = np.random.default_rng(dim)
    tol = ToleranceConfig(abs=1e-8, rel=1e-6)
    cases = []
    for _ in range(6):
        a = make_herm(rng, dim, -3.0, 3.0)
        b = make_herm(rng, dim, -3.0, 3.0)
        cases += [(a, b), (a, a + 0.5 * HermitianMatrix.identity(dim)), (b, b), (a + b, a)]
    seen = set()
    for a, b in cases:
        got = loewner_compare(a, b, tol)
        assert _verdict_bits(got) == _verdict_bits(_three_call_verdict(a, b, tol))
        seen.add(got.relation)
    assert seen >= {LoewnerRelation.LESS_OR_EQUAL, LoewnerRelation.EQUAL}


@pytest.mark.parametrize("dim", [2, 5, 8, 64])
def test_stacked_loewner_matches_pair_by_pair(dim):
    rng = np.random.default_rng(100 + dim)
    tol = ToleranceConfig()
    lhs = np.stack([make_herm(rng, dim).entries for _ in range(7)])
    rhs = np.stack([make_herm(rng, dim).entries for _ in range(7)])
    low, high, used = kernels.loewner(lhs, rhs, tol)
    for i in range(7):
        want = _three_call_verdict(HermitianMatrix._wrap(lhs[i]), HermitianMatrix._wrap(rhs[i]), tol)
        got = (float(low[i]), float(high[i]), float(used[i]))
        assert _bits(got) == _bits((want.margin_low, want.margin_high, want.tolerance_used))


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_stacked_compression_matches_submatrix_by_submatrix(dim):
    """Each matrix of a stack compressed on its own indices and scale has
    the bits of its principal submatrix times its scale."""
    rng = np.random.default_rng(200 + dim)
    x = np.stack([make_herm(rng, dim).entries for _ in range(6)])
    k = max(1, dim - 2)
    ix = np.sort(np.stack([rng.choice(dim, k, replace=False) for _ in range(6)]), axis=-1)
    scale = rng.uniform(0.3, 1.0, 6)
    got = kernels.compress(ix, scale, x)
    for i in range(6):
        assert got[i].tobytes() == (scale[i] * x[i][np.ix_(ix[i], ix[i])]).tobytes()


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_stacked_frobenius_norm_matches_matrix_by_matrix(dim):
    """The stacked Frobenius norm sums in another order than
    `np.linalg.norm`, so it agrees to a few ulps, not to the bit."""
    rng = np.random.default_rng(300 + dim)
    x = rng.standard_normal((9, dim, dim)) + 1j * rng.standard_normal((9, dim, dim))
    want = [np.linalg.norm(m) for m in x]
    np.testing.assert_allclose(kernels.frobenius(x), want, rtol=8 * np.finfo(float).eps)


def test_frobenius_norm_rescales_only_an_overflowing_sum():
    """From entries of about 1e154 the sum of squares overflowed to inf.
    Such a norm is taken again at the matrix's own scale; every finite
    norm keeps the bits of the plain sum, and only a norm past the float
    limit is inf."""
    rng = np.random.default_rng(310)
    x = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    plain = kernels.frobenius(x)
    big = x.copy()
    big[1] *= 1e200
    got = kernels.frobenius(big)
    assert got[[0, 2]].tobytes() == plain[[0, 2]].tobytes()
    np.testing.assert_allclose([got[1], kernels.frobenius(big[1])], 1e200 * plain[1], rtol=1e-14)
    assert kernels.frobenius(x[0]) == math.sqrt(np.vdot(x[0], x[0]).real)
    past = np.full((2, 2), 1e308 + 1e308j)
    assert kernels.frobenius(past) == math.inf and kernels.frobenius(past[None])[0] == math.inf


def test_frobenius_norm_keeps_each_matrix_bits_when_the_norms_sum_past_the_limit():
    """Three matrices whose norms, near 1e308, are finite but sum past the
    float limit: each norm is the one the matrix gives alone, and the
    finiteness test of the stack raises no overflow warning."""
    x = np.stack([np.diag([d, d]).astype(complex) for d in (5e307, 6e307, 7e307)])
    got = kernels.frobenius(x)
    assert np.isfinite(got).all() and sum(got.tolist()) == math.inf
    assert got.tolist() == [kernels.frobenius(m) for m in x]
    np.testing.assert_allclose(got, math.sqrt(2) * np.array([5e307, 6e307, 7e307]), rtol=1e-15)


def test_reconstruction_guard_holds_at_1e200(monkeypatch):
    """The reconstruction bound DECOMP_TOL * max(1, ||H||_F) was inf at
    1e200, so that guard could not fail there. The bound, checked through
    `guarded`, is DECOMP_TOL * sqrt(5) * 1e200: a residual at it passes and
    the next float above it fails. A correct decomposition passes; one
    with its eigenvalues out of order fails."""
    h = np.diag([1e200, 2e200]).astype(complex)
    vals, vecs, eye_err, rec_err, _ = kernels.solve(h)
    bound = kernels.DECOMP_TOL * kernels.frobenius(h)
    assert bound == pytest.approx(kernels.DECOMP_TOL * math.sqrt(5) * 1e200, rel=1e-15)
    kernels.guarded(False, vals, vecs, eye_err, bound, h)
    with pytest.raises(NumericalFailure, match="reconstruction residual 2.236e[+]190"):
        kernels.guarded(False, vals, vecs, eye_err, np.nextafter(bound, math.inf), h)
    assert eye_err == 0 and rec_err <= bound
    assert kernels.decompose(h)[0].tolist() == [2e200, 1e200]
    real = np.linalg.eigh

    def disordered(x):
        vals, vecs = real(x)
        return vals[::-1].copy(), vecs

    monkeypatch.setattr(np.linalg, "eigh", disordered)
    with pytest.raises(NumericalFailure, match="reconstruction residual 1.414e[+]200"):
        kernels.decompose(h)


@pytest.mark.parametrize("stacked", [False, True])
def test_reconstruction_guard_takes_the_norm_only_past_decomp_tol(stacked):
    """||H||_F = 10 makes the bound 1e-9. A residual between DECOMP_TOL and
    the bound passes, one past the bound and a NaN one fail with the
    guard's message, on one matrix and on the second matrix of a stack."""
    h = np.diag([6.0, 8.0]).astype(complex)
    vals, vecs, eye_err, _, _ = kernels.solve(h)
    if stacked:
        h, vals, vecs, eye_err = (np.stack([x, x]) for x in (h, vals, vecs, eye_err))

    def guard(residual):
        rec_err = np.array([0.0, residual]) if stacked else residual
        return kernels.guarded(True, vals, vecs, eye_err, rec_err, h)

    assert guard(5e-10)[0].tobytes() == vals.tobytes()
    assert guard(1e-9)[0].tobytes() == vals.tobytes()
    with pytest.raises(NumericalFailure, match="spectral reconstruction residual 2.000e-09 too large"):
        guard(2e-9)
    with pytest.raises(NumericalFailure, match="spectral reconstruction residual nan too large"):
        guard(math.nan)


# A single matrix takes the guards' scalar route (`kernels._pymax`,
# `_exceeds`, `_first` and the 2-D `frobenius`); a stack of one takes the
# array route. Both must give the same bits and raise the same error.

_NEG_LOG = builtin("neg_log")
_SQUARE = builtin("square")


def _left(x):
    """A fixed Hermitian operand of x's shape."""
    n = x.shape[-1]
    return np.broadcast_to(np.diag([1.0, -0.5, 2.0, 0.25, 3.0][:n]).astype(complex), x.shape)


# kernel name -> (kernel of a matrix x or of a stack of them, the error
# each case raises: None for a result).
_ROUTE_KERNELS = {
    "decompose": (kernels.decompose, (None, NumericalFailure, NumericalFailure, None, None)),
    "positive": (
        kernels.positive,
        (None, NumericalFailure, NumericalFailure, NotPositiveDefinite, None),
    ),
    "calculus": (
        lambda x: kernels.calculus(_NEG_LOG, kernels.decompose(x)),
        (None, NumericalFailure, NumericalFailure, DomainViolation, None),
    ),
    "perspective": (
        lambda x: kernels.perspective(_SQUARE, _left(x), kernels.positive(x)),
        (None, NumericalFailure, NumericalFailure, NotPositiveDefinite, IllConditioned),
    ),
    "inner": (
        lambda x: kernels.inner(_left(x), kernels.positive(x)),
        (None, NumericalFailure, NumericalFailure, NotPositiveDefinite, IllConditioned),
    ),
    "loewner": (
        lambda x: kernels.loewner(x, _left(x), ToleranceConfig()),
        (None, NumericalFailure, NumericalFailure, None, None),
    ),
}


def _route_cases(dim):
    """A positive matrix, the same with a NaN and with an inf entry, one
    that is not positive, and one whose condition number 1e9 breaches the
    default cap of 1e8."""
    rng = np.random.default_rng(500 + dim)
    ok = make_pd(rng, dim).entries
    nan, inf = ok.copy(), ok.copy()
    nan[0, 0], inf[0, 0] = math.nan, math.inf
    not_positive = make_herm(rng, dim, -2.0, -0.5).entries
    u = unitary_from_rng(rng, dim)
    ill = kernels.hermitian_part((u * np.geomspace(1e-3, 1e6, dim)) @ u.conj().T)
    return ok, nan, inf, not_positive, ill


def _route_outcome(kernel, x, stacked):
    """The bits of each output of kernel(x) (of x[None], its entry 0), or
    the class of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            out = kernel(x[None] if stacked else x)
    except OpDivError as exc:
        return type(exc)
    out = out if isinstance(out, tuple) else (out,)
    return [_bits(part[0] if stacked else part) for part in out]


@pytest.mark.parametrize("name", sorted(_ROUTE_KERNELS))
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_scalar_route_matches_a_stack_of_one(name, dim):
    kernel, errors = _ROUTE_KERNELS[name]
    for x, error in zip(_route_cases(dim), errors):
        single = _route_outcome(kernel, x, stacked=False)
        assert single == _route_outcome(kernel, x, stacked=True)
        assert (single if isinstance(single, type) else None) is error


def _decomposed(call):
    """The shape and bits of every decomposition call() returns, or the
    class and message of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            out = call()
    except OpDivError as exc:
        return type(exc), str(exc)
    return [(x.shape, _bits(x)) for decomposition in out for x in decomposition]


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_fused_decompositions_raise_what_separate_calls_raise(dim):
    """`decompositions` runs one eigh over its parts, yet each part has the
    bits of its own `decompose` or `positive` call, and a failing stage
    raises what those calls, made in part order, raise: the first failing
    part's unitarity, reconstruction or positivity error, even when a later
    part fails a guard that is checked earlier within a part. A single
    matrix beside a stack, before or after it, is held to its own call's
    scalar route."""
    cases = _route_cases(dim)
    ok = cases[0]
    for first, second in ((x, y) for x in cases for y in cases):
        # Parts of different leading shapes: (2, n, n) and (1, 2, n, n),
        # and (n, n) on either side of (2, n, n).
        pair = np.stack([ok, first])
        layouts = ((pair, np.stack([second, ok])[None]), (pair, second), (second, pair))
        for parts, flags in itertools.product(layouts, ((False, True), (True, False), (True, True))):
            want = _decomposed(
                lambda: [
                    kernels.positive(p) if flag else kernels.decompose(p)
                    for p, flag in zip(parts, flags)
                ]
            )
            assert _decomposed(lambda: kernels.decompositions(*parts, positive=flags)) == want


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_fused_decompositions_of_two_sizes_raise_in_part_order(dim, monkeypatch):
    """Parts of two matrix sizes, the second size between two parts of the
    first, make one eigh dispatch per size, yet have the bits and raise
    the error of separate calls in part order."""
    small, large = _route_cases(dim), _route_cases(dim + 1)
    calls = []
    real = np.linalg.eigh

    def counted(x, *args, **kwargs):
        calls.append(x.shape[-1])
        return real(x, *args, **kwargs)

    def alone(p, flag):
        return kernels.positive(p) if flag else kernels.decompose(p)

    for first, second in ((x, y) for x in small for y in large):
        parts = (np.stack([small[0], first]), second[None], first[None])
        for flags in ((True, True, False), (False, True, True)):
            want = _decomposed(lambda: [alone(p, flag) for p, flag in zip(parts, flags)])
            calls.clear()
            monkeypatch.setattr(np.linalg, "eigh", counted)
            got = _decomposed(lambda: kernels.decompositions(*parts, positive=flags))
            monkeypatch.undo()
            assert got == want
            if not isinstance(got, tuple):
                assert calls == [dim, dim + 1]


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_h_decomposition_is_the_positive_decomposition_of_h_of_r(dim):
    """`h_decomposition` has the bits of `positive` of h's calculus on R,
    for one h or one per R. It refuses an h that is not flagged strictly
    positive, and an h(R) that is not strictly positive with `positive`'s
    message, each as NonPositiveH."""
    rng = np.random.default_rng(600 + dim)
    right = kernels.decompose(np.stack([make_pd(rng, dim).entries for _ in range(3)]))
    pool = [builtin("identity"), builtin("power", [0.5]), builtin("affine", [0.7, 0.3])]
    for h in pool + [pool]:
        want = kernels.positive(kernels.calculus(h, right))
        assert [_bits(x) for x in kernels.h_decomposition(h, right)] == [_bits(x) for x in want]
    with pytest.raises(NonPositiveH, match="h = 'neg_log' is not flagged strictly positive"):
        kernels.h_decomposition([pool[0], _NEG_LOG, pool[1]], right)
    minus_five = ScalarOperatorFunction(
        id="minus_five",
        domain=Interval.real_line(),
        eval=lambda t: np.asarray(t, dtype=float) - 5.0,
        flags=FunctionFlags(strictly_positive=True),
    )
    with pytest.raises(NotPositiveDefinite) as want:
        kernels.positive(kernels.calculus(minus_five, right))
    with pytest.raises(NonPositiveH) as got:
        kernels.h_decomposition(minus_five, right)
    assert str(got.value) == f"h(R) is not strictly positive: {want.value}"


@pytest.mark.parametrize(
    "solve", [kernels.decompose, kernels.positive, kernels.decompositions], ids=lambda f: f.__name__
)
def test_an_empty_stack_is_refused(solve):
    """An empty stack has no matrix to decompose: an OpDivError, not a bare
    ValueError from the residual norms."""
    with pytest.raises(OpDivError, match="empty stack"):
        solve(np.zeros((0, 2, 2), dtype=complex))


def test_an_empty_part_beside_a_nonempty_one_is_decomposed_empty(monkeypatch):
    """In a fused call an empty part takes its empty slice of the other
    parts' dispatch, and if that dispatch fails, the parts one by one
    raise the failing part's error; the empty one is not solved alone."""
    empty, eye = np.zeros((0, 2, 2), dtype=complex), np.eye(2, dtype=complex)[None]
    (vals, vecs), got = kernels.decompositions(empty, eye, positive=True)
    assert vals.shape == (0, 2) and vecs.shape == (0, 2, 2)
    assert [_bits(x) for x in got] == [_bits(x) for x in kernels.positive(eye)]
    real = np.linalg.eigh

    def failing(x, *args, **kwargs):
        if np.count_nonzero(x == 7):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericalFailure, match="did not converge"):
        kernels.decompositions(empty, eye, 7 * eye)


def test_a_fused_failure_no_part_repeats_alone_is_raised(monkeypatch):
    """If only the fused dispatch fails, the parts one by one all succeed,
    and `decompositions` raises the fused stack's own error."""
    rng = np.random.default_rng(3)
    parts = [make_pd(rng, 3).entries[None], np.stack([make_pd(rng, 3).entries for _ in range(2)])]
    real = np.linalg.eigh
    fault = np.linalg.LinAlgError("the fused stack did not converge")
    seen = []

    def failing(x, *args, **kwargs):
        seen.append(len(x))
        if len(x) == 3:
            raise fault
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericalFailure, match="the fused stack did not converge") as got:
        kernels.decompositions(*parts)
    assert got.value.__cause__ is fault
    assert seen == [3, 1, 2]


def test_a_chunk_failure_no_record_repeats_alone_is_raised():
    """If evaluate fails on a chunk but on none of its records alone, the
    trial loop raises the chunk's own error after trying every record."""
    fault = NumericalFailure("the chunk failed")
    seen = []

    def evaluate(records, tol):
        seen.append(list(records))
        if len(records) > 1:
            raise fault
        return np.zeros((1, 1)), np.zeros((1, 1)), lambda i: {}

    with pytest.raises(NumericalFailure) as got:
        kernels.run_trials(3, 2, list, evaluate, None)
    assert got.value is fault
    assert seen == [[0, 1, 2], [0], [1], [2]]


@pytest.mark.parametrize("dim, k", [(1, 16), (1, 3), (2, 9), (5, 4)])
def test_field_sum_matches_the_loop_from_zero(dim, k):
    """Each trial's sum has the bits of a loop that adds its own present
    terms w_i x_i, in entry order, to zeros: at dim 1 too, where numpy
    would reduce the entry axis pairwise, and with signed zeros mixed in,
    which a sum from zero never returns as -0.0."""
    rng = np.random.default_rng(400 + dim)
    x = rng.standard_normal((50, k, dim, dim)) + 1j * rng.standard_normal((50, k, dim, dim))
    x[rng.uniform(size=x.shape) < 0.2] = -0.0
    w = rng.uniform(0.2, 2.0, (50, k))
    mask = rng.uniform(size=(50, k)) < 0.7
    for got, weights, present in (
        (kernels.field_sum(x, mask, w), w, mask),
        (kernels.field_sum(x), np.ones((50, k)), np.ones((50, k), dtype=bool)),
    ):
        for t in range(50):
            want = np.zeros((dim, dim), dtype=complex)
            for i in np.flatnonzero(present[t]):
                want = want + weights[t, i] * x[t, i]
            assert _bits(got[t]) == _bits(want)


def test_loewner_solver_failure_is_a_numerical_failure():
    """Non-finite sides, where eigvalsh does not converge, surface from the
    Loewner comparison as NumericalFailure rather than LinAlgError."""
    bad = np.full((2, 3, 3), math.inf, dtype=complex)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalFailure, match="Loewner comparison failed"):
            kernels.loewner(bad, np.zeros_like(bad), ToleranceConfig())


def test_overflowing_function_is_named():
    """A function whose values reach 1.5e308 is finite on every eigenvalue,
    but the matrices rebuilt from those values overflow. The failure names
    the function, in the falsifier and in a check, before any
    non-finite matrix reaches the Loewner comparison, and no overflow
    warning (an error under this suite's warning filter) escapes."""
    big = ScalarOperatorFunction(
        id="big",
        domain=Interval.real_line(),
        eval=lambda t: 1.5e308 * np.tanh(np.asarray(t, float)) ** 2,
    )
    with pytest.raises(NumericalFailure, match="function 'big' produced a non-finite matrix"):
        convexity_falsifier(big, dim=3, trials=50, seed=1)
    with pytest.raises(NumericalFailure, match="function 'big' produced a non-finite matrix"):
        run_check("THM2_1", GenConfig(dim=3, trials=20), function=big)


def test_an_overflowing_csiszar_sum_is_refused_without_a_warning():
    """SCALAR_CSISZAR under a function whose values q f(p / q) are finite
    but whose sum over a field overflows: the sum is left infinite with
    no overflow warning (an error under this suite's warning filter), and
    the divergence functional of the 1 x 1 cells names the function."""
    big_inv = ScalarOperatorFunction(
        "big_inv", Interval.positive(), lambda t: 1.5e306 / np.asarray(t, float)
    )
    with pytest.raises(NumericalFailure, match="^function 'big_inv' produced a non-finite matrix$"):
        run_check("SCALAR_CSISZAR", GenConfig(trials=200), function=big_inv)


def test_non_finite_result_names_the_function_of_its_row():
    """With one function per stacked entry, the failure names the function
    of the first entry whose result is not finite."""
    big = ScalarOperatorFunction(
        id="big",
        domain=Interval.real_line(),
        eval=lambda t: 1.5e308 * np.tanh(np.asarray(t, float)) ** 2,
    )
    h = 3.0 * np.eye(3)[None].repeat(2, axis=0) + np.ones((2, 3, 3))
    fs = [builtin("square"), big]
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalFailure, match="function 'big'"):
            kernels.apply_function(fs, h)
    assert np.isfinite(kernels.apply_function(fs[:1], h[:1])).all()


@pytest.mark.parametrize("shape", [(2,), (2, 3)], ids=["vector", "rows"])
def test_values_names_the_function_of_the_row_that_overflows(shape):
    """The scalar route of COR2_9_VECTOR, THM3_8_NORM and SCALAR_CSISZAR
    (`kernels.values` without clamping), with one function per entry of
    the first axis, names the function of the first row whose value
    overflows, and no overflow warning escapes the `np.errstate` its
    callers hold. A finite stack keeps each row's own bits."""
    big = ScalarOperatorFunction(
        id="big",
        domain=Interval.real_line(),
        eval=lambda t: 1e308 * np.asarray(t, float),
    )
    fs = [builtin("square"), big]
    x = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match="^function 'big' produced non-finite values$"):
            kernels.values(fs, x)
    small = x / 8.0
    got = kernels.values(fs, small)
    assert np.array_equal(got[0], small[0] ** 2)
    assert np.array_equal(got[1], 1e308 * small[1])


# Per row of (T,) or (T, L) inputs, a positive f and h from the checks' pools.
_SCALAR_FS = [builtin("t_log_t"), builtin("power", [1.5]), builtin("neg_log")]
_SCALAR_HS = [builtin("identity"), builtin("power", [0.5]), builtin("affine", [0.7, 0.3])]


def _written_out(f, t, s, h=None):
    """The scalar perspective as the checks wrote it out by hand: s * f(t / s)
    under the overflow guard, with h(s) for s when `h` is given."""
    with np.errstate(over="ignore", invalid="ignore"):
        if h is not None:
            s = kernels.values(h, s)
        return s * kernels.values(f, t / s)


@pytest.mark.parametrize("with_h", [False, True], ids=["plain", "generalized"])
@pytest.mark.parametrize("per_row", [False, True], ids=["one", "per_row"])
@pytest.mark.parametrize("shape", [(7,), (7, 3)], ids=["vector", "rows"])
def test_scalar_perspective_keeps_the_bits_of_the_checks_expressions(shape, per_row, with_h):
    """`scalar_perspective` gives the bits of the expressions COR2_9_VECTOR,
    THM3_8_NORM and SCALAR_CSISZAR wrote by hand, with one function for
    the stack or one per entry of the first axis, with h and without."""
    rng = np.random.default_rng(41)
    t, s = rng.uniform(0.1, 4.0, (2,) + shape)
    pick = (lambda pool: [pool[i % 3] for i in range(shape[0])]) if per_row else (lambda p: p[1])
    f, h = pick(_SCALAR_FS), pick(_SCALAR_HS) if with_h else None
    got = kernels.scalar_perspective(f, t, s, h)
    assert got.shape == shape
    assert _bits(got) == _bits(_written_out(f, t, s, h))


@pytest.mark.parametrize("with_h", [False, True], ids=["plain", "generalized"])
@pytest.mark.parametrize("shape", [(2,), (2, 3)], ids=["vector", "rows"])
def test_scalar_perspective_names_the_function_of_the_row_that_overflows(shape, with_h):
    """A stack whose second function's values f(t / s) are finite but
    whose perspective s f(t / s) overflows names that function, with no
    overflow warning (an error under this suite's warning filter)."""
    big = ScalarOperatorFunction("big", Interval.positive(), lambda t: 2e307 / np.asarray(t, float))
    fs = [builtin("square"), big]
    t, s = np.ones(shape), np.full(shape, 4.0)
    h = [builtin("identity")] * 2 if with_h else None
    assert np.isfinite(kernels.values(fs, t / s)).all()
    with pytest.raises(NumericalFailure, match="^function 'big' produced non-finite values$"):
        kernels.scalar_perspective(fs, t, s, h)


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
def test_field_sum_of_finite_terms_that_overflow_is_infinite(weighted):
    """`field_sum` holds its own overflow guard: finite terms whose sum, or
    whose weighted terms, pass the float limit give +inf, with no overflow
    warning (an error under this suite's warning filter), for a later
    guard to refuse."""
    x = np.full((2, 3, 1, 1), 1e308)
    x[0] = 1.0
    got = kernels.field_sum(x, w=np.full((2, 3), 10.0)) if weighted else kernels.field_sum(x)
    assert np.isfinite(got[0]).all()
    assert np.array_equal(got[1], np.full((1, 1), math.inf))


def test_tangent_line_names_the_function_of_the_row_that_overflows():
    """The tangent-line bound of a stack with one (f(1), f'(1)) per entry
    names the function of the first entry whose bound overflows, with no
    overflow warning, and a finite stack keeps every bit of
    f(1) sum_b - f'(1) (sum_b - sum_a)."""
    fs = [builtin("square"), builtin("affine", [1e308, 0.0])]
    sum_a, sum_b = np.zeros((2, 2, 2)), 2.0 * np.eye(2)[None].repeat(2, axis=0)
    points = [(1.0, 2.0), (0.0, 1e308)]
    with pytest.raises(NumericalFailure, match="function 'affine\\(1e\\+308,0\\)'"):
        kernels.tangent_line(fs, points, sum_a, sum_b)
    got = kernels.tangent_line(fs[0], points[0], sum_a[0], sum_b[0])
    assert np.array_equal(got, 1.0 * sum_b[0] - 2.0 * (sum_b[0] - sum_a[0]))


# ---------------------------------------------------------------------------
# Interval.clamp_spectrum: vectorized mask vs the per-value loop
# ---------------------------------------------------------------------------


def _clamp_loop(interval, values, tol):
    """The per-value clamp loop that the vectorized clamp replaced."""
    out = np.array(values, dtype=float)
    for i, v in enumerate(out):
        if v < interval.lo:
            if interval.lo_closed and interval.lo - v <= tol:
                out[i] = interval.lo
            else:
                raise DomainViolation(v, interval)
        elif v == interval.lo and not interval.lo_closed:
            raise DomainViolation(v, interval)
        elif v > interval.hi:
            if interval.hi_closed and v - interval.hi <= tol:
                out[i] = interval.hi
            else:
                raise DomainViolation(v, interval)
        elif v == interval.hi and not interval.hi_closed:
            raise DomainViolation(v, interval)
    return out


def _outcome(fn, *args):
    try:
        return "ok", _bits(fn(*args))
    except DomainViolation as exc:
        return "raise", struct.pack("<d", exc.value), exc.domain


_INTERVALS = [
    Interval.real_line(),
    Interval.positive(),
    Interval.nonnegative(),
    Interval(0.0, 1.0, True, True),
    Interval(0.0, 1.0, False, False),
    Interval(-1.0, 2.0, True, False),
]

_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, math.nan, -1e-12, 1.0 + 1e-12, 2.0 + 1e-10]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-1e-8, max_value=1e-8, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_INTERVALS),
    st.lists(_VALUE, min_size=1, max_size=8),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
)
def test_vectorized_clamp_matches_loop(interval, values, tol):
    values = np.array(values)
    assert _outcome(interval.clamp_spectrum, values, tol) == _outcome(_clamp_loop, interval, values, tol)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_INTERVALS),
    st.lists(st.lists(_VALUE, min_size=3, max_size=3), min_size=1, max_size=5),
    st.lists(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), min_size=5, max_size=5),
)
def test_stacked_clamp_raises_for_the_first_offending_row(interval, rows, tols):
    """With one tolerance per row, the stack clamps as its rows do, and
    raises what the first raising row raises."""
    values = np.array(rows)
    tol = np.array(tols[: len(rows)])[:, None]
    want = []
    for row, row_tol in zip(values, tol[:, 0]):
        want.append(_outcome(_clamp_loop, interval, row, row_tol))
        if want[-1][0] == "raise":
            break
    got = _outcome(interval.clamp_spectrum, values, tol)
    if want[-1][0] == "raise":
        assert got == want[-1]
    else:
        assert got == ("ok", b"".join(w[1] for w in want))


def test_nan_passes_through_the_clamp():
    got = Interval.nonnegative().clamp_spectrum(np.array([math.nan, -1e-12, 2.0]), 1e-9)
    assert math.isnan(got[0]) and got[1] == 0.0 and got[2] == 2.0


# ---------------------------------------------------------------------------
# f.eval_array on stacked and masked eigenvalue arrays
# ---------------------------------------------------------------------------

_POOL_FUNCTIONS = {
    f.id: f
    for f in (
        *batched._CONVEX_POOL,
        *batched._F0_POOL,
        *batched._H_POOL,
        *batched._DIFF_POOL,
        *(f for pair in batched._DOM_PAIRS for f in pair),
        *batched._NORM_POOL,
        batched._LOG,
        batched._INV_M1,
    )
}
_OVERRIDES = {
    f.id: f
    for f in (
        quartic(),
        builtin("power", [0.5]),
        builtin("power", [2]),
        builtin("power", [-0.5]),
        builtin("neg_log"),
        builtin("identity"),
        from_spec({"id": "affine", "params": [0, 1]}),
    )
}
_FUNCTIONS = {**_POOL_FUNCTIONS, **_OVERRIDES}


@pytest.mark.parametrize("func_id", sorted(_FUNCTIONS))
@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eval_array_on_stacks_matches_per_matrix(func_id, count, dim, seed):
    f = _FUNCTIONS[func_id]
    lo, hi = sampling_window(f.domain, lo_default=-4.0, hi_default=8.0)
    rng = np.random.default_rng(seed)
    stack = np.sort(rng.uniform(lo, hi, (count, dim)), axis=1)[:, ::-1].copy()
    per_matrix = [_bits(f.eval_array(row)) for row in stack]
    assert [_bits(row) for row in f.eval_array(stack)] == per_matrix
    rows = np.flatnonzero(rng.uniform(size=count) < 0.5)
    assert [_bits(row) for row in f.eval_array(stack[rows])] == [per_matrix[i] for i in rows]
    nested = f.eval_array(stack.reshape(count, 1, dim))
    assert [_bits(row) for row in nested[:, 0]] == per_matrix


def test_apply_function_with_one_function_per_row_matches_facade():
    rng = np.random.default_rng(8)
    pool = list(batched._CONVEX_POOL)
    for dim in (2, 5, 8):
        hs = [make_herm(rng, dim, 0.1, 4.0) for _ in range(3 * len(pool))]
        fs = [pool[i % len(pool)] for i in range(len(hs))]
        got = kernels.apply_function(fs, np.stack([h.entries for h in hs]))
        for i, (f, h) in enumerate(zip(fs, hs)):
            assert _bits(got[i]) == _bits(apply_function(f, h).entries)


@pytest.mark.parametrize("dim, size", [(2, 5), (8, 16), (48, 3)])
def test_theta_divergence_matches_entry_by_entry_sum(dim, size):
    """Stacked (and, at dim 48, one entry per stack) divergence equals the
    field-order sum of single perspectives bit for bit."""
    rng = np.random.default_rng(dim)
    entries = [
        (float(rng.uniform(0.2, 2.0)), make_herm(rng, dim, 0.1, 4.0), make_pd(rng, dim))
        for _ in range(size)
    ]
    field = WeightedOperatorField(entries)
    for f in (builtin("neg_log"), quartic()):
        want = np.zeros((dim, dim), dtype=complex)
        for w, a, b in entries:
            want += w * perspective(f, a, b).entries
        assert _bits(theta_divergence(f, field).entries) == _bits(want)


# ---------------------------------------------------------------------------
# Batching guards: eigensolver calls per check run do not grow with
# trials, and tensor stacks keep the stack bound
# ---------------------------------------------------------------------------


def _eig_counts(monkeypatch, run, *args) -> tuple:
    """(eigh dispatches, eigh matrices, eigvalsh dispatches, eigvalsh
    matrices) of `run(*args)`, such as one run of a check."""
    counts = {"eigh": [0, 0], "eigvalsh": [0, 0]}
    for name, count in counts.items():
        real = getattr(np.linalg, name)

        def counted(x, *args, _real=real, _count=count, **kwargs):
            _count[0] += 1
            _count[1] += int(np.prod(np.shape(x)[:-2]))
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    try:
        run(*args)
    finally:
        monkeypatch.undo()
    return (*counts["eigh"], *counts["eigvalsh"])


def _eig_calls(monkeypatch, check_id, gen) -> int:
    eigh_calls, _, eigvalsh_calls, _ = _eig_counts(monkeypatch, run_check, check_id, gen)
    return eigh_calls + eigvalsh_calls


@pytest.mark.parametrize("check_id", check_ids())
def test_eig_calls_do_not_grow_with_trials(monkeypatch, check_id):
    """No check decomposes trial by trial: 400 trials (one chunk at dim 3)
    make the eigensolver calls that 100 trials make."""
    few = _eig_calls(monkeypatch, check_id, GenConfig(dim=3, seed=1, trials=100))
    many = _eig_calls(monkeypatch, check_id, GenConfig(dim=3, seed=1, trials=400))
    assert few == many


# (eigh dispatches, eigh matrices, eigvalsh dispatches, eigvalsh matrices)
# of each check at `registry_sweep`'s shape: check i at dim 2 + i % 4, 100
# trials, seed 1. Each stage decomposes its independent stacks in one
# dispatch per matrix size (`kernels.decompositions`). The inner matrices
# of a stage's perspectives take one dispatch of their own
# (`kernels.perspective`), but KL_SUITE's share one with its other
# stacks. Each h(R) of a generalized perspective takes one of its own
# (`kernels.h_decomposition`), and so does each congruence family's Gram
# sum per output size (`batched._normalized`). The matrices are those of
# one call per stack. 132 dispatches in all, 0.066 per trial.
_EIG_PINS = {
    "THM2_1": (3, 1416, 1, 300),
    "COR2_2_SUBADD": (3, 1380, 1, 300),
    "COR2_2_II": (4, 1425, 1, 300),
    "COR2_3_SPLIT": (3, 1784, 1, 600),
    "THM2_4_MIXTURE": (3, 3254, 1, 300),
    "THM2_6_CDJ_DELTA": (12, 1630, 2, 300),
    "COR2_7_SINGLE": (17, 1033, 4, 600),
    "EX2_8_POWER": (20, 933, 5, 300),
    "COR2_9_VECTOR": (4, 600, 0, 0),
    "THM2_10_DOM": (6, 1625, 1, 600),
    "THM_DELTA_NABLA": (4, 1806, 1, 300),
    "THM2_12_GRAD": (3, 1028, 1, 300),
    "THM3_1_CHAIN": (4, 1580, 1, 900),
    "THM3_1_II": (4, 900, 1, 600),
    "COR3_4_ISOM": (4, 1620, 1, 900),
    "THM3_8_NORM": (3, 500, 1, 300),
    "LEMMA_JADJIT": (2, 400, 0, 0),
    "KL_SUITE": (3, 1400, 1, 900),
    "SCALAR_CSISZAR": (2, 772, 0, 0),
    "EX3_3_EXACT": (3, 14, 1, 9),
}


@pytest.mark.parametrize("index, check_id", list(enumerate(check_ids())))
def test_eig_dispatches_and_matrices_are_pinned(monkeypatch, index, check_id):
    gen = GenConfig(dim=2 + index % 4, seed=1, trials=100)
    assert _eig_counts(monkeypatch, run_check, check_id, gen) == _EIG_PINS[check_id]


def _verdict(f, field):
    """The README quickstart's Theorem 2.1 verdict, as the benchmark's
    field workloads take it."""
    theta = theta_divergence(f, field)
    lhs = perspective(f, field.weighted_sum_a(), PositiveDefiniteMatrix(field.weighted_sum_b()))
    return loewner_compare(lhs, theta)


def _field(dim: int, size: int) -> WeightedOperatorField:
    return make_field(np.random.default_rng([18, dim, size]), dim, size)


@pytest.mark.parametrize("size", [2, 16])
@pytest.mark.parametrize("dim", [2, 5, 8, 48, 64])
def test_verdict_makes_two_eigh_and_one_eigvalsh(monkeypatch, dim, size):
    """Theta solves the summed B with the whole field's inner matrices, so
    at every dim a verdict makes one eigh for those, one for the inner
    matrix of the sums and one eigvalsh for the comparison."""
    counts = _eig_counts(monkeypatch, _verdict, builtin("neg_log"), _field(dim, size))
    assert counts == (2, size + 2, 1, 3)


@pytest.mark.parametrize("size", [1, 3, 6])
@pytest.mark.parametrize("dim", [3, 48])
def test_f_nabla_h_makes_three_eigh_for_the_whole_field(monkeypatch, dim, size):
    """f_nabla_h stacks every term with p_i > 0 once: one eigh for the
    q_i R_i, one for the h(q_i R_i) and one for the inner matrices."""
    field, p = _field(dim, size), np.full(size, 1.0 / size)
    counts = _eig_counts(monkeypatch, f_nabla_h, builtin("square"), builtin("power", [0.5]), field, p, p)
    assert counts == (3, 3 * size, 0, 0)


def _verdict_sum_first(f, field):
    """`_verdict` with the summed B's PositiveDefiniteMatrix built before
    Theta."""
    right = PositiveDefiniteMatrix(field.weighted_sum_b())
    theta = theta_divergence(f, field)
    return loewner_compare(perspective(f, field.weighted_sum_a(), right), theta)


@pytest.mark.parametrize("dim, size, calls", [(3, 4, 1), (64, 4, 1)])
def test_summed_b_is_decomposed_once_whichever_facade_runs_first(monkeypatch, dim, size, calls):
    """Theta does not solve a summed B that its PositiveDefiniteMatrix
    solved (at dim 3 its eigh took 5 matrices, not 4), so a verdict
    decomposes k + 2 matrices in either order."""
    f, field = builtin("neg_log"), _field(dim, size)
    PositiveDefiniteMatrix(field.weighted_sum_b())
    assert _eig_counts(monkeypatch, theta_divergence, f, field) == (calls, size, 0, 0)
    for verdict in (_verdict, _verdict_sum_first):
        assert _eig_counts(monkeypatch, verdict, f, _field(dim, size))[1:] == (size + 2, 1, 3)


@pytest.mark.parametrize("dim, size", [(3, 4), (64, 4)])
def test_a_summed_b_formed_before_theta_is_decomposed_by_its_own_facade(monkeypatch, dim, size):
    """Only Theta builds the summed B with a decomposition, and only when
    it forms the sum: formed first by `weighted_sum_b`, the sum has none,
    so Theta decomposes its inner matrices alone and the sum's
    PositiveDefiniteMatrix decomposes the sum, one dispatch more."""
    f, field = builtin("neg_log"), _field(dim, size)
    field.weighted_sum_b()
    assert _eig_counts(monkeypatch, _verdict, f, field) == (3, size + 2, 1, 3)


@pytest.mark.parametrize("da, db, calls", [(3, 3, 1), (2, 3, 2)])
def test_bivariate_calculus_decomposes_one_size_in_one_dispatch(monkeypatch, da, db, calls):
    rng = np.random.default_rng([19, da, db])
    a, b = make_herm(rng, da, 0.1, 4.0), make_herm(rng, db, 0.1, 4.0)
    spec = BivariateSpec(lambda x, y: x * x / y, Interval.nonnegative(), Interval.positive())
    assert _eig_counts(monkeypatch, bivariate_calculus, spec, a, b) == (calls, 2, 0, 0)


def test_tensor_stacks_stay_within_the_stack_bound(monkeypatch):
    """LEMMA_JADJIT's dim**2 x dim**2 tensors are stacked by their own
    size: at dim 8 one per call, and with room for 3 tensors at dim 2 no
    call holds more, and the result is that of the unbounded stacks."""
    stacks = []
    real = kernels.bivariate

    def counted(phi, left, right):
        out = real(phi, left, right)
        stacks.append(out.shape)
        return out

    monkeypatch.setattr(kernels, "bivariate", counted)
    run_check("LEMMA_JADJIT", GenConfig(dim=8, seed=2, trials=70))
    assert {shape for shape in stacks} == {(1, 64, 64)} and len(stacks) == 70

    gen = GenConfig(dim=2, seed=2, trials=40)
    whole = run_check("LEMMA_JADJIT", gen)
    stacks.clear()
    monkeypatch.setattr(kernels, "STACK_ELEMENTS", 3 * 4**2)
    assert run_check("LEMMA_JADJIT", gen) == whole
    assert max(shape[0] for shape in stacks) == 3 and sum(shape[0] for shape in stacks) == 40

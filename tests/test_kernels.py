"""Stacked kernels give the bits of the single-matrix computations.

The lab evaluates every trial of a check at once on stacked arrays, and
its reports must not move by a bit. These tests hold the kernels to the
formulas they replaced: the three-eigvalsh Loewner comparison, the
per-value domain clamp loop and per-matrix function evaluation.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_herm, make_pd
from opdiv import batched, kernels
from opdiv.errors import (
    DomainViolation,
    IllConditioned,
    NotPositiveDefinite,
    NumericalFailure,
    OpDivError,
)
from opdiv.funcatalog import (
    Interval,
    ScalarOperatorFunction,
    builtin,
    convexity_falsifier,
    from_spec,
    quartic,
    sampling_window,
)
from opdiv.hermitian import (
    HermitianMatrix,
    LoewnerRelation,
    LoewnerVerdict,
    ToleranceConfig,
    apply_function,
    loewner_compare,
    unitary_from_rng,
)
from opdiv.lab import GenConfig, check_ids, run_check
from opdiv.perspective import WeightedOperatorField, perspective, theta_divergence


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
    np.testing.assert_allclose(kernels._fro(x), want, rtol=8 * np.finfo(float).eps)


# A single matrix takes the guards' scalar route (`kernels._pymax`,
# `_exceeds`, `_first` and the 2-D `_fro`); a stack of one takes the
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
    """The bits of every decomposition call() returns, or the class and
    message of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            out = call()
    except OpDivError as exc:
        return type(exc), str(exc)
    return [_bits(x) for decomposition in out for x in decomposition]


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_fused_decompositions_raise_what_separate_calls_raise(dim):
    """`decompositions` runs one eigh over its parts, yet each part has the
    bits of its own `decompose` or `positive` call, and a failing stage
    raises what those calls, made in part order, raise: the first failing
    part's unitarity, reconstruction or positivity error, even when a later
    part fails a guard that is checked earlier within a part."""
    cases = _route_cases(dim)
    ok = cases[0]
    for first, second in ((x, y) for x in cases for y in cases):
        # Parts of different leading shapes: (2, n, n) and (1, 2, n, n).
        parts = (np.stack([ok, first]), np.stack([second, ok])[None])
        for flags in ((False, True), (True, False), (True, True)):
            want = _decomposed(
                lambda: [
                    kernels.positive(p) if flag else kernels.decompose(p)
                    for p, flag in zip(parts, flags)
                ]
            )
            assert _decomposed(lambda: kernels.decompositions(*parts, positive=flags)) == want


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
    non-finite matrix reaches the Loewner comparison."""
    big = ScalarOperatorFunction(
        id="big",
        domain=Interval.real_line(),
        eval=lambda t: 1.5e308 * np.tanh(np.asarray(t, float)) ** 2,
    )
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalFailure, match="function 'big' produced a non-finite matrix"):
            convexity_falsifier(big, dim=3, trials=50, seed=1)
        with pytest.raises(NumericalFailure, match="function 'big' produced a non-finite matrix"):
            run_check("THM2_1", GenConfig(dim=3, trials=20), function=big)


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


def _eig_counts(monkeypatch, check_id, gen) -> tuple:
    """(eigh dispatches, eigh matrices, eigvalsh dispatches, eigvalsh
    matrices) of one run of the check."""
    counts = {"eigh": [0, 0], "eigvalsh": [0, 0]}
    for name, count in counts.items():
        real = getattr(np.linalg, name)

        def counted(x, *args, _real=real, _count=count, **kwargs):
            _count[0] += 1
            _count[1] += int(np.prod(np.shape(x)[:-2]))
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    try:
        run_check(check_id, gen)
    finally:
        monkeypatch.undo()
    return (*counts["eigh"], *counts["eigvalsh"])


def _eig_calls(monkeypatch, check_id, gen) -> int:
    eigh_calls, _, eigvalsh_calls, _ = _eig_counts(monkeypatch, check_id, gen)
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
# trials, seed 1. Each stage decomposes its independent stacks of one size
# in one dispatch (`kernels.decompositions`) and takes its perspectives in
# one `kernels.perspective` call; the matrices are those of one call per
# stack. 131 dispatches in all, 0.0655 per trial.
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
    "THM2_10_DOM": (5, 1625, 1, 600),
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
    assert _eig_counts(monkeypatch, check_id, gen) == _EIG_PINS[check_id]


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

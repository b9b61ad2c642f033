"""Stacked kernels of the matrix algebra.

Every function here works on arrays whose last two axes are matrix
axes, `(..., n, n)`, and treats the leading axes as a batch: one call
decomposes, transforms or compares a whole stack of matrices. The
objects in `hermitian`, `perspective`, `norms` and `posmap` are
validating facades over these kernels. The lab decodes its draws into
matrices with `build` and runs every check, the convexity falsifier
among them as THM2_1, through `run_trials`, one trial loop that draws,
evaluates and folds a chunk at once.
Every weighted sum of matrices, a field's or a map family's, a trial's
or a facade's, is one `field_sum`, and every stack of equal-shaped
arrays is one `stack`. A function meets an array of numbers in one
place, `values`: the functional calculus evaluates it on eigenvalues
clamped onto its domain, and the scalar perspective s f(t / s)
(`scalar_perspective`), the scalar side of the checks, on their
numbers. A stage that decomposes several independent stacks does so in
one eigensolver dispatch per matrix size (`decompositions`). So the
perspective exposes its steps: the roots of R and the inner matrix
R^{-1/2} L R^{-1/2} (`inner`, the one place that product is written),
its decomposition, and `sandwich`; a caller may decompose an inner
matrix with its other stacks. h(R), the right side of the generalized
perspective `f_delta_h`, is formed and guarded in one place,
`h_decomposition`, in a dispatch of its own. A facade fuses through
`decompositions` too: `perspective.theta_divergence` decomposes a
field's summed B with its inner matrices when it is the first to form
the sum, and the field keeps the sum built with that decomposition for
its `PositiveDefiniteMatrix`. An unguarded solution (`solve`) never
leaves this module.

LAPACK and matmul work matrix by matrix, so a stacked or fused call
gives the same bits as the same call on each matrix alone, and batching
never moves a reported number. Every guard of the single-matrix API is
kept and vectorized; a failing guard raises for the first offending
matrix in index order, and names non-finite entries if that matrix has
one. A kernel that can overflow holds its own guard: it computes under
`np.errstate`, so that no RuntimeWarning escapes, and refuses a
non-finite result or returns it for the next kernel's guard to refuse.
The checks of `batched` and `lab` hold no overflow guard of their own.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    DomainViolation,
    IllConditioned,
    NonPositiveH,
    NotPositiveDefinite,
    NumericalFailure,
    OpDivError,
    ShapeMismatch,
)

PD_FLOOR = 1e-10
DECOMP_TOL = 1e-10
DOMAIN_CLAMP_TOL = 1e-9
CONDITION_CAP = 1e8
# A chunk of trials (`chunks`) holds STACK_ELEMENTS // n**2 of them (1024
# at n = 2, 64 at n = 8, one from n = 46), which bounds memory for any
# trial count. A per-entry stage stacks every entry of the chunk's trials
# (up to 9 a trial) and fuses its same-size parts (`decompositions`), so
# one operand may hold several times STACK_ELEMENTS elements. Over every
# check at n = 2-8, two chunks each, the largest fused operand measured
# 39,936 elements: THM2_4_MIXTURE's row and cell matrices at n = 8, 624
# of them in one decomposition and one perspective. The largest operand
# of all is that check's `build` at n = 8, 58,368 elements. LEMMA_JADJIT
# stacks its n**2 x n**2 tensors by the same bound. The facades of
# `perspective` take a whole field in one stack, so their memory grows
# with the field, as `weighted_sum_b` already does.
STACK_ELEMENTS = 4096


# A single matrix makes scalars of what a stack makes arrays; the helpers
# below take the scalar route for those. Without it (A/B in CPU time), 630
# small-field verdicts ran at 0.92-0.93x, slower in 72 of 80 rounds.


def _pymax(a, b):
    """Elementwise `max(a, b)` by Python's rule: `a` unless `b > a`."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.where(b > a, b, a)
    return max(a, b)


def _exceeds(x, bound):
    """Elementwise `x > bound`, counting a NaN on either side as exceeding,
    so that a guard written with it fails on NaN."""
    within = x <= bound
    return ~within if isinstance(within, np.ndarray) else not within


def all_finite(x) -> bool:
    """Whether every entry of the array `x` is finite. A count answers
    this, and `_first`'s any, in a third to a half of the time of the
    array methods on a small array."""
    return np.count_nonzero(np.isfinite(x)) == x.size


def _first(values, bad):
    """The first entry of `values` flagged in `bad`, in C order, or None."""
    if not isinstance(bad, np.ndarray):
        return values if bad else None
    if not np.count_nonzero(bad):
        return None
    return np.ravel(values)[np.flatnonzero(bad)[0]]


def _parts(x):
    """The real and imaginary parts of each complex matrix of the stack,
    side by side in one contiguous row per matrix."""
    return np.ascontiguousarray(x).view(np.float64).reshape(x.shape[:-2] + (-1,))


def _root_sum_squares(x):
    """Frobenius norm of every matrix of the stack, by the plain sum of
    squares, which overflows from entries of about 1e154."""
    if x.ndim == 2:
        return math.sqrt(np.vdot(x, x).real)
    # A sum of squares over contiguous memory, not over the strided .real
    # and .imag.
    flat = _parts(x)
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def frobenius(x):
    """Frobenius norm of every complex matrix of the stack: inf only for a
    norm above the float limit or a matrix with an infinite entry, NaN
    for one with a NaN entry. A norm the plain sum of squares leaves
    non-finite is taken again on the matrix divided by its largest real or
    imaginary part; every finite norm is the plain sum's, bit for bit. The
    skew guard of `HermitianMatrix` and the residuals and reconstruction
    bound of `solve` use it."""
    norm = _root_sum_squares(x)
    if x.ndim == 2:
        # A complex dot product, this sum can give NaN for overflowing
        # entries; the stacked sum of squares of the parts cannot.
        return norm if math.isfinite(norm) else float(_rescaled(x[None])[0])
    # The largest norm is finite only if every norm is, and unlike a sum it
    # cannot overflow.
    if math.isfinite(norm.max()):
        return norm
    redo = ~np.isfinite(norm)
    norm[redo] = _rescaled(x[redo])
    return norm


def _rescaled(x):
    """Frobenius norm of every matrix of the stack, taken on the matrix
    divided by its largest real or imaginary part: inf for an infinite
    part, NaN for a NaN."""
    peak = np.abs(_parts(x)).max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = peak * _root_sum_squares(x / peak[:, None, None])
    return np.where(np.isinf(peak), math.inf, norm)


@functools.lru_cache(maxsize=None)
def _eye(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def adjoint(x):
    """Conjugate transpose of every matrix of the stack."""
    return x.conj().swapaxes(-1, -2)


def hermitian_part(x):
    """(X + X*) / 2 for every matrix of the stack."""
    x = np.asarray(x, dtype=complex)
    out = x + adjoint(x)
    out /= 2
    return out


def solve(h):
    """The descending eigenvalues and eigenvectors of each H of the stack,
    the unitarity and reconstruction residuals of each decomposition, and
    the stack H itself, which sets the bound the reconstruction residual is
    held to: a decomposition before its guards (`guarded`). A caller that
    decomposes a matrix in the dispatch of other stacks does so through
    `decompositions`, which guards each part. An empty stack raises
    ShapeMismatch: it has no matrix to decompose."""
    if h.size == 0:
        raise ShapeMismatch(f"cannot decompose an empty stack of shape {h.shape}")
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    vals = vals[..., ::-1].copy()
    vecs = vecs[..., ::-1].copy()
    vecs_h = adjoint(vecs)
    residual = vecs @ vecs_h
    residual -= _eye(h.shape[-1])
    eye_err = frobenius(residual)
    # Freed before the second residual is built: a fused stack holds one
    # buffer of its size fewer at its peak.
    del residual
    residual = (vecs * vals[..., None, :]) @ vecs_h
    residual -= h
    return vals, vecs, eye_err, frobenius(residual), h


def guarded(positive: bool, vals, vecs, eye_err, rec_err, h) -> tuple:
    """(vals, vecs) of a `solve` of the stack `h` once the unitarity guard,
    the reconstruction guard and, with `positive`, the strict-positivity
    guard (`strictly_positive`) pass, in that order. `decompose` is
    `guarded(False, *solve(h))` and `positive` is `guarded(True, *solve(h))`.

    The reconstruction residual is held to DECOMP_TOL * max(1, ||H||_F).
    That bound is never below DECOMP_TOL, so ||H||_F is taken only when a
    residual exceeds DECOMP_TOL (or is NaN), and the guard decides as it
    would with every norm taken. A guard that fails names non-finite
    entries instead of its residual if the first matrix it fails on has
    one, as an inner matrix that overflowed does."""
    bad = _exceeds(eye_err, DECOMP_TOL * vals.shape[-1])
    worst = _first(eye_err, bad)
    if worst is not None:
        raise _failure(h, bad, f"eigenvector matrix not unitary (residual {worst:.3e})")
    if _first(rec_err, _exceeds(rec_err, DECOMP_TOL)) is not None:
        bad = _exceeds(rec_err, DECOMP_TOL * _pymax(1.0, frobenius(h)))
        worst = _first(rec_err, bad)
        if worst is not None:
            raise _failure(h, bad, f"spectral reconstruction residual {worst:.3e} too large")
    return strictly_positive((vals, vecs)) if positive else (vals, vecs)


def _failure(h, bad, message: str) -> NumericalFailure:
    """NumericalFailure with `message`, or naming non-finite entries if the
    first matrix of the stack `h` that `bad` flags has one."""
    if isinstance(bad, np.ndarray):
        h = h.reshape((-1,) + h.shape[-2:])[np.flatnonzero(bad)[0]]
    if not all_finite(h):
        message = "cannot decompose a matrix with non-finite entries"
    return NumericalFailure(message)


def decompositions(*parts, positive=False) -> list:
    """`decompose` of each stack of `parts`, from one `np.linalg.eigh` call
    per matrix size over that size's parts laid end to end; `positive` (one
    bool, or a tuple of one per part) makes it a part's `positive` instead.

    A stage that decomposes several independent stacks so costs one LAPACK
    dispatch per matrix size, with the bits of one call per part. The
    residuals are computed once per fused stack and the guards raise in
    part order: each part's unitarity, reconstruction and positivity guard
    in turn, as one call per part would. A single matrix takes its slice
    of the fused solve by an integer index, so its guards take the scalar
    route of its own `decompose`.
    """
    flags = positive if isinstance(positive, tuple) else (positive,) * len(parts)
    sizes = {}  # matrix size -> the indices of its parts, in order of first appearance
    for i, part in enumerate(parts):
        sizes.setdefault(part.shape[-1], []).append(i)
    solved = [None] * len(parts)
    try:
        for dim, own in sizes.items():
            fused = solve(np.concatenate([parts[i].reshape((-1, dim, dim)) for i in own]))
            start = 0
            for i in own:
                count = parts[i].size // (dim * dim)
                cut = start if parts[i].ndim == 2 else slice(start, start + count)
                solved[i] = [x[cut] for x in fused]
                start += count
    except NumericalFailure:
        # The solver does not name the matrix it failed on; the parts one
        # by one raise the error of the first that fails. An empty part
        # has no matrix to fail on.
        for part, flag in zip(parts, flags):
            if part.size:
                guarded(flag, *solve(part))
        raise
    out = []
    for part, flag, (vals, vecs, *errors) in zip(parts, flags, solved):
        vals = vals.reshape(part.shape[:-1])
        out.append(guarded(flag, vals, vecs.reshape(part.shape), *errors))
    return out


def decompose(h):
    """Eigenvalues in descending order and the matching eigenvectors.

    Raises NumericalFailure if the solver does not converge or a
    unitarity or reconstruction residual exceeds its bound.
    """
    return guarded(False, *solve(h))


def rebuild(vals, vecs):
    """U diag(values) U*, symmetrized, for every matrix of the stack."""
    vals = np.asarray(vals, dtype=float)
    return hermitian_part((vecs * vals[..., None, :]) @ adjoint(vecs))


def complex_pair(pair):
    """pair[..., 0, :, :] + 1j * pair[..., 1, :, :]: the complex matrices
    whose real and imaginary parts a draw keeps side by side."""
    return pair[..., 0, :, :] + 1j * pair[..., 1, :, :]


def capped(vals, cap: float):
    """Each spectrum raised to at least its largest eigenvalue / `cap`, so
    that a positive spectrum's condition number is at most `cap`. A
    constant positive spectrum, lo * I, is left as it is."""
    return np.maximum(vals, vals.max(axis=-1, keepdims=True) / cap)


def from_spectrum(vals, gaussian):
    """Hermitian matrices with eigenvalues `vals`, carried by the
    eigenvectors of the Hermitian part of `complex_pair(gaussian)` (a
    Haar-random unitary when that is a complex Gaussian matrix).
    `gaussian` holds real and imaginary parts as drawn, (..., 2, n, n),
    and a zero one carries the identity, so it builds diag(vals)."""
    _, unitary = np.linalg.eigh(hermitian_part(complex_pair(gaussian)))
    return rebuild(vals, unitary)


def build(*slots) -> tuple:
    """The matrices of raw draws, one flat stack per slot, from one
    `from_spectrum` call. A slot is a (cap, spectra) pair: the
    (eigenvalues, `raw_gaussian`) pairs of its matrices, in order, and the
    condition cap of its eigenvalues (`capped`; None for none). Every slot
    holds as many matrices."""
    lams, pairs = [], []
    for cap, spectra in slots:
        lam = stack([lam for lam, _ in spectra])
        lams.append(lam if cap is None else capped(lam, cap))
        pairs += [pair for _, pair in spectra]
    return tuple(np.split(from_spectrum(np.concatenate(lams), stack(pairs)), len(slots)))


def stack(arrays) -> np.ndarray:
    """`np.stack(arrays)` of equal-shaped arrays as one concatenation,
    which costs many small arrays a third as much."""
    return np.concatenate(arrays).reshape((len(arrays),) + arrays[0].shape)


def positive(h):
    """`decompose`, requiring each smallest eigenvalue to clear the
    strict-positivity floor (`strictly_positive`)."""
    return guarded(True, *solve(h))


def strictly_positive(decomposition):
    """The (eigenvalues, eigenvectors) pair that `decompose` returns, once
    each smallest eigenvalue clears the strict-positivity floor
    PD_FLOOR * max(1, |lambda_max|, |lambda_min|); NotPositiveDefinite
    otherwise."""
    vals, vecs = decomposition
    lam_max, lam_min = vals[..., 0], vals[..., -1]
    floor = PD_FLOOR * _pymax(_pymax(1.0, np.abs(lam_max)), np.abs(lam_min))
    bad = _exceeds(floor, lam_min)
    worst = _first(lam_min, bad)
    if worst is not None:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {worst:.3e} below "
            f"strict-positivity floor {_first(floor, bad):.3e}"
        )
    return vals, vecs


def sqrt_pair(vals, vecs):
    """(R^{1/2}, R^{-1/2}) from one decomposition of each R."""
    roots = np.sqrt(vals)
    return rebuild(roots, vecs), rebuild(1.0 / roots, vecs)


def _by_function(f):
    """(function, rows) pairs, `rows` indexing the first axis: `f` is one
    function for the whole stack (rows `slice(None)`), or one function per
    entry of the first axis, grouped by function."""
    if not isinstance(f, (list, tuple)):
        return [(f, slice(None))]
    groups = {}  # id(g) -> [g, the rows of g], in order of first appearance
    for i, g in enumerate(f):
        groups.setdefault(id(g), [g]).append(i)
    if len(groups) == 1:
        return [(f[0], slice(None))]
    return [(rows[0], np.array(rows[1:])) for rows in groups.values()]


def _clamped(domain, vals):
    """Descending eigenvalues of each matrix, clamped onto a closed endpoint
    of `domain` within DOMAIN_CLAMP_TOL * max(1, ||H||_2)."""
    # Of descending eigenvalues, max(|lambda_max|, |lambda_min|) is exactly
    # max(lambda_max, -lambda_min), up to the sign of a zero, which the
    # max with 1 drops.
    scale = np.maximum(vals[..., 0], -vals[..., -1])
    return domain.clamp_spectrum(vals, DOMAIN_CLAMP_TOL * np.maximum(scale, 1.0)[..., None])


def values(f, x, clamp=False):
    """f of each entry of the array `x`: the one place a function meets an
    array of numbers. `f` is one function for the whole array, or one function per
    entry of the first axis, and each function evaluates all of its rows
    in one call (`_by_function`). With `clamp`, `x` holds descending
    eigenvalues, clamped onto each function's domain first (`_clamped`).
    NumericalFailure names the first function with a non-finite value, as
    when it overflows. Its callers are kernels, the functional calculus
    (`_calculus`) and `scalar_perspective`, and each holds the
    `np.errstate` that keeps an overflow from warning."""
    groups = _by_function(f)
    out = None if len(groups) == 1 else np.empty_like(x)
    for g, rows in groups:
        fx = g.eval_array(_clamped(g.domain, x[rows]) if clamp else x[rows])
        if not all_finite(fx):
            raise NumericalFailure(f"function {g.id!r} produced non-finite values")
        if out is None:
            return fx
        out[rows] = fx
    return out


def _finite(f, x, result="a non-finite matrix"):
    """`x`, the stack of f's results, if every entry is finite; otherwise
    NumericalFailure that the function of the first offending entry of the
    first axis produced `result`."""
    if all_finite(x):
        return x
    if isinstance(f, (list, tuple)):
        rows = ~np.isfinite(x).reshape(len(f), -1).all(axis=1)
        f = f[int(np.flatnonzero(rows)[0])]
    raise NumericalFailure(f"function {f.id!r} produced {result}")


def scalar_perspective(f, t, s, h=None):
    """The scalar perspective s f(t / s) of each entry of the arrays `t`
    and `s`, or with `h` the generalized one, h(s) f(t / h(s)): Csiszar's
    term q f(p / q), and the scalar side of COR2_9_VECTOR, THM3_8_NORM and
    SCALAR_CSISZAR. `f` and `h` are as for `values`. A non-finite value or
    product, an overflow among them, raises NumericalFailure naming the
    function of its row, not a RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        hs = s if h is None else values(h, s)
        out = hs * values(f, t / hs)
    return _finite(f, out, "non-finite values")


def _calculus(f, vals, vecs):
    """`calculus` of the decomposition (vals, vecs) without its
    `np.errstate` and the finiteness check of the rebuilt matrices."""
    return rebuild(values(f, vals, clamp=True), vecs)


def calculus(f, decomposition):
    """Functional calculus f(H) = U f(diag lambda) U* from the
    (eigenvalues, eigenvectors) pair that `decompose` returns for each H.

    `f` is one function for the whole stack, or a sequence with one
    function per entry of the first axis; each function evaluates all of
    its entries in one call. Eigenvalues within 1e-9 * max(1, ||H||_2) of
    a closed domain endpoint are clamped onto it; anything farther outside
    raises DomainViolation, and a non-finite value or matrix
    NumericalFailure. An overflow while f is evaluated or the matrices
    rebuilt is that NumericalFailure, not a RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _calculus(f, *decomposition)
    return _finite(f, out)


def apply_function(f, h):
    """`calculus` of f on the decomposition of each H of the stack."""
    return calculus(f, decompose(h))


def tangent_line(f, points, sum_a, sum_b):
    """The tangent-line bound f(1) sum_b - f'(1) (sum_b - sum_a) of each
    matrix of the stack, from `points`, the (f(1), f'(1)) of `f`: one pair
    for one function, or one per entry of the first axis for a sequence of
    functions. An overflow is NumericalFailure naming f, not a
    RuntimeWarning."""
    f_one, fp_one = np.moveaxis(np.asarray(points, dtype=float), -1, 0)[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(f, sum_b * f_one - (sum_b - sum_a) * fp_one)


def inner(left, right, condition_cap=CONDITION_CAP) -> tuple:
    """`perspective` up to its eigensolver dispatch: R^{1/2}, the inner
    matrix X = R^{-1/2} L R^{-1/2} and R^{-1/2} for every pair of the
    stack. `right` is the (eigenvalues, eigenvectors) pair that `positive`
    returns, and both roots come from it (`sqrt_pair`). Raises
    IllConditioned, before any root is taken, if a condition number
    exceeds `condition_cap`. An inner matrix that overflows is left
    non-finite, not a RuntimeWarning, for its decomposition's guards to
    refuse."""
    vals, vecs = right
    cond = vals[..., 0] / vals[..., -1]
    worst = _first(cond, _exceeds(cond, condition_cap))
    if worst is not None:
        raise IllConditioned(f"condition number {worst:.3e} exceeds cap {condition_cap:.1e}")
    half, inv_half = sqrt_pair(vals, vecs)
    with np.errstate(over="ignore", invalid="ignore"):
        return half, hermitian_part(inv_half @ left @ inv_half), inv_half


def perspective(f, left, right, condition_cap=CONDITION_CAP):
    """R^{1/2} f(R^{-1/2} L R^{-1/2}) R^{1/2} for every pair of the stack:
    `inner`, the decomposition of its inner matrices and `sandwich`.

    `right` is as for `inner`, and `f` as for `calculus`; a non-finite
    result raises NumericalFailure naming f. A caller that decomposes the
    inner matrices with other stacks takes these three steps itself.
    """
    # Keep no stack past its last use: R^{-1/2} goes with `inner`, and
    # rebinding `x` frees the inner matrices before the sandwich.
    half, x = inner(left, right, condition_cap)[:2]
    x = decompose(x)
    return sandwich(f, half, x)


def sandwich(f, half, inner):
    """R^{1/2} f(X) R^{1/2} from `half` = R^{1/2} and the decomposition
    `inner` of each X = R^{-1/2} L R^{-1/2}: the last step of `perspective`,
    for a caller that takes several functions of one X. A non-finite
    result, an overflow among them, raises NumericalFailure naming f."""
    # A non-finite f(X) leaves the product non-finite, so one check names f.
    with np.errstate(over="ignore", invalid="ignore"):
        out = hermitian_part(half @ _calculus(f, *inner) @ half)
    return _finite(f, out)


def flagged_positive(h):
    """`h`, one function or one per entry of the first axis, once each is
    flagged strictly positive; NonPositiveH otherwise. Callers that
    decompose R for `f_delta_h` check h first, so an h that is not
    flagged is refused before any eigendecomposition."""
    for g, _ in _by_function(h):
        if not g.flags.strictly_positive:
            raise NonPositiveH(f"h = {g.id!r} is not flagged strictly positive")
    return h


def h_decomposition(h, right):
    """The decomposition of each h(R) that `positive` returns, from the
    (eigenvalues, eigenvectors) pair that `decompose` returns for each R:
    the right side of the generalized perspective, in its own eigensolver
    dispatch. `h` is as for `calculus`. Raises NonPositiveH if an h is not
    flagged strictly positive (`flagged_positive`) or an h(R) is not
    strictly positive, after the unitarity and reconstruction guards."""
    try:
        return positive(calculus(flagged_positive(h), right))
    except NotPositiveDefinite as exc:
        raise NonPositiveH(f"h(R) is not strictly positive: {exc}") from exc


def f_delta_h(f, h, left, right):
    """h(R)^{1/2} f(h(R)^{-1/2} L h(R)^{-1/2}) h(R)^{1/2} for every pair of
    the stack: the perspective of f at h(R) (`h_decomposition`), the
    generalized perspective. `right` is the (eigenvalues, eigenvectors)
    pair that `decompose` returns for each R, and `f` and `h` are as for
    `calculus`. An h or h(R) that is not strictly positive raises
    NonPositiveH.
    """
    return perspective(f, left, h_decomposition(h, right))


def bivariate(phi, left, right):
    """phi on the eigenvalue grid of each pair (A, B), carried by U (x) V.

    `left` and `right` are the (eigenvalues, eigenvectors) pairs that
    `decompose` returns for A = U diag(lam) U* and B = V diag(mu) V*. The
    (i, j) pair sits at tensor index i * dim(B) + j. The eigenvalues are
    clamped onto phi's domains as for `apply_function`; a non-finite grid
    value, an overflow of phi among them, raises DomainViolation, and a
    finite grid whose image overflows NumericalFailure.
    """
    lam, mu = _clamped(phi.domain_x, left[0]), _clamped(phi.domain_y, right[0])
    u, v = left[1], right[1]
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.asarray(phi.fn(lam[..., :, None], mu[..., None, :]), dtype=float)
        grid = grid.reshape(grid.shape[:-2] + (-1,))
        bad = ~np.isfinite(grid)
        if bad.any():
            raise DomainViolation(float(_first(grid, bad)), (phi.domain_x, phi.domain_y))
        w = (u[..., :, None, :, None] * v[..., None, :, None, :]).reshape(grid.shape + (-1,))
        out = hermitian_part((w * grid[..., None, :]) @ adjoint(w))
    if not all_finite(out):
        raise NumericalFailure("bivariate image has non-finite entries")
    return out


def congruence(c, x):
    """C* X C, symmetrized, for every pair of the stack; C may be rectangular."""
    return hermitian_part(adjoint(c) @ x @ c)


def compress(ix, scale, x):
    """s X[ix, ix], the principal submatrix on the indices ix times the
    scale s, for every matrix of the stack: `ix` (..., k) and `scale` (...)
    hold each compression's indices and scale against the leading axes
    of x."""
    rows = np.take_along_axis(x, ix[..., :, None], axis=-2)
    return np.take_along_axis(rows, ix[..., None, :], axis=-1) * np.asarray(scale)[..., None, None]


def field_sum(x, mask=None, w=None):
    """sum_i w_i x_i over axis 1 of a (T, k, ...) stack, for each of the T:
    the terms where `mask` (T, k) holds (all without one), with weights `w`
    (T, k) (unit without), added to zeros one term at a time in entry
    order. A sum from +0.0 never becomes -0.0, so a term left out and a
    zero term added give the same bits, and every sum has the bits of a
    loop over its own terms from zero. The first term + 0.0 is that
    loop's first step. One reduction over the axis would not keep that
    order: numpy reduces 1 x 1 matrices pairwise. Nor would one
    accumulation pay: numpy accumulates element by element, which measured
    2-8x slower than this loop on every stack but a single small field.
    A weighted term or sum that overflows is left non-finite, with no
    RuntimeWarning, for a later guard to refuse: a decomposition's,
    `loewner`'s or a facade's."""
    axes = (1,) * (x.ndim - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        if w is not None:
            x = x * w.reshape(w.shape + axes)
        if mask is not None:
            x = np.where(mask.reshape(mask.shape + axes), x, 0)
        terms = x.swapaxes(0, 1)
        out = terms[0] + 0.0
        for term in terms[1:]:
            out += term
    return out


def singular_values(x):
    """Singular values of every matrix of the stack, descending: the
    eigenvalues of (X* X)^{1/2}, clipped at zero before the root.
    NumericalFailure if X* X is not finite, as when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = adjoint(x) @ x
    if not all_finite(gram):
        raise NumericalFailure("singular value computation failed: X* X has non-finite entries")
    try:
        vals = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular value computation failed: {exc}") from exc
    return np.sqrt(np.clip(vals, 0.0, None))[..., ::-1]


def loewner(lhs, rhs, tol):
    """(margin_low, margin_high, tolerance_used) of lhs <= rhs per pair.

    margin_low is the smallest eigenvalue of rhs - lhs, margin_high the
    smallest of lhs - rhs, and tolerance_used is `tol` at the larger
    spectral norm of the two sides. One eigvalsh call over the stack
    [rhs - lhs, lhs, rhs] gives all three. A non-finite side raises
    NumericalFailure: its eigenvalues would be arbitrary.
    """
    sides = stack([rhs - lhs, lhs, rhs])
    if not all_finite(sides):
        raise NumericalFailure("Loewner comparison failed: a side has non-finite entries")
    try:
        eig = np.linalg.eigvalsh(sides)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Loewner comparison failed: {exc}") from exc
    # A maximum rounds nothing, so one over both sides' spectra is the
    # larger of their spectral norms.
    scale = np.abs(eig[1:]).max(axis=(0, -1))
    return eig[0, ..., 0], -eig[0, ..., -1], tol.at_scale(scale)


def fold(margins, used) -> tuple:
    """Worst margin and violation flag of each row of (T, L) margins, each
    held to the tolerance in `used`. Margins fold left to right from inf
    with a strict `<`; a NaN margin is a violation and never the worst."""
    worst = np.full(len(margins), math.inf)
    for j in range(margins.shape[1]):
        worst = np.where(margins[:, j] < worst, margins[:, j], worst)
    return worst, ~np.all(margins >= -used, axis=1)


def chunks(count: int, dim: int):
    """Consecutive ranges covering range(count), each of at most
    STACK_ELEMENTS // dim**2 indices (at least one): the pieces of a stack
    of `count` dim x dim matrices that one stacked call takes."""
    step = max(1, STACK_ELEMENTS // dim**2)
    for start in range(0, count, step):
        yield range(start, min(count, start + step))


def run_trials(count: int, dim: int, draw, evaluate, tol) -> tuple:
    """The trial loop: trials 0 .. count - 1 of dim x dim matrices.

    Each chunk of trials (`chunks`) is drawn at once, `draw(chunk)`
    returning the chunk's records in order, and evaluated at once:
    `evaluate(records, tol)` returns the (T, L) margins and tolerances of
    each trial's L links and a function of the index of a record in the
    chunk, such as one that builds its payload.
    The lab passes `lab.records` and `lab.evaluate`. If evaluate raises,
    the records are evaluated one at a time, in order, so the error is the
    one the first failing record raises alone. This is the one place links
    fold (`fold`): into each trial's worst margin and violation flag, and
    the trials by the same rule, so the first of equal margins is the
    worst, trial 0 stands until one is smaller, and a NaN margin is never
    the worst. Returns the violation count, the worst margin, that trial's
    index and that function bound to it (`functools.partial`), not yet
    called.
    """
    violations, worst_margin, worst_trial, worst_payload = 0, math.inf, 0, None
    for chunk in chunks(count, dim):
        records = draw(chunk)
        try:
            margins, used, payload = evaluate(records, tol)
        except (OpDivError, np.linalg.LinAlgError):
            for record in records:
                evaluate([record], tol)
            raise
        worst, violated = fold(margins, used)
        violations += int(np.count_nonzero(violated))
        i = int(np.argmin(worst))
        if chunk.start == 0 or worst[i] < worst_margin:
            worst_margin, worst_trial = float(worst[i]), chunk[i]
            worst_payload = functools.partial(payload, i)
    return violations, worst_margin, worst_trial, worst_payload

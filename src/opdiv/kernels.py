"""Stacked kernels of the matrix algebra.

Every function here works on arrays whose last two axes are matrix
axes, `(..., n, n)`, and treats the leading axes as a batch: one call
decomposes, transforms or compares a whole stack of matrices. The
objects in `hermitian`, `perspective`, `norms` and `posmap` are
validating facades over these kernels. The lab decodes its draws into
matrices with `build` and runs every check and the convexity falsifier
through `run_trials`, one trial loop that evaluates a chunk at once.
Every weighted sum of matrices, a field's or a map family's, a trial's
or a facade's, is one `field_sum`, and every stack of equal-shaped
arrays is one `stack`. A stage that decomposes several independent
stacks of one matrix size does so in one eigensolver dispatch
(`decompositions`), and `f_delta_h` exposes its h(R) step (`h_of`) so
that its perspective can share one `perspective` call with others.

LAPACK and matmul work matrix by matrix, so a stacked or fused call
gives the same bits as the same call on each matrix alone, and batching
never moves a reported number. Every guard of the single-matrix API is
kept and vectorized; a failing guard raises for the first offending
matrix in index order.
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
# of all is that check's `build` at n = 8, 58,368 elements.
# From n = 46 the facades' chunks hold one matrix. Against one stack of a
# whole field (n = 48-64, A/B in CPU time) that ran theta_divergence 1.03x
# faster (in 22 of 30 rounds); whole verdicts did not resolve (0.95-1.00x).
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


def _first(values, bad):
    """The first entry of `values` flagged in `bad`, in C order, or None."""
    if not isinstance(bad, np.ndarray):
        return values if bad else None
    if not bad.any():
        return None
    return np.ravel(values)[np.flatnonzero(bad)[0]]


def _fro(x):
    """Frobenius norm of every matrix of the stack."""
    if x.ndim == 2:
        return math.sqrt(np.vdot(x, x).real)
    # Real and imaginary parts side by side, one row per matrix: a sum of
    # squares over contiguous memory, not over the strided .real and .imag.
    flat = np.ascontiguousarray(x).view(np.float64).reshape(x.shape[:-2] + (-1,))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


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


def _solve(h):
    """The descending eigenvalues and eigenvectors of each H of the stack,
    the unitarity and reconstruction residuals of each decomposition, and
    the bound the reconstruction residual is held to."""
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    vals = vals[..., ::-1].copy()
    vecs = vecs[..., ::-1].copy()
    vecs_h = adjoint(vecs)
    residual = vecs @ vecs_h
    residual -= _eye(h.shape[-1])
    eye_err = _fro(residual)
    residual = (vecs * vals[..., None, :]) @ vecs_h
    residual -= h
    return vals, vecs, eye_err, _fro(residual), DECOMP_TOL * _pymax(1.0, _fro(h))


def _guarded(positive: bool, vals, vecs, eye_err, rec_err, rec_bound) -> tuple:
    """(vals, vecs) once the unitarity guard, the reconstruction guard and,
    with `positive`, the strict-positivity guard pass, in that order."""
    worst = _first(eye_err, _exceeds(eye_err, DECOMP_TOL * vals.shape[-1]))
    if worst is not None:
        raise NumericalFailure(f"eigenvector matrix not unitary (residual {worst:.3e})")
    worst = _first(rec_err, _exceeds(rec_err, rec_bound))
    if worst is not None:
        raise NumericalFailure(f"spectral reconstruction residual {worst:.3e} too large")
    return strictly_positive((vals, vecs)) if positive else (vals, vecs)


def decompositions(*parts, positive=False) -> list:
    """`decompose` of each stack of `parts`, all of one matrix size, from
    one `np.linalg.eigh` call over the parts laid end to end; `positive`
    (one flag, or one per part) makes it a part's `positive` instead.

    A stage that decomposes several independent stacks so costs one LAPACK
    dispatch per matrix size, with the bits of one call per part. The
    guards are computed once over the fused stack and raise in part order:
    each part's unitarity, reconstruction and positivity guard in turn, as
    one call per part would.
    """
    flags = (positive,) * len(parts) if isinstance(positive, bool) else positive
    dim = parts[0].shape[-1]
    try:
        fused = _solve(np.concatenate([p.reshape((-1, dim, dim)) for p in parts]))
    except NumericalFailure:
        # The solver does not name the matrix it failed on; the parts one
        # by one raise the error of the first that fails.
        for part, flag in zip(parts, flags):
            _guarded(flag, *_solve(part))
        raise
    cuts = np.cumsum([p[..., 0, 0].size for p in parts])[:-1]
    out = []
    for part, flag, vals, vecs, *errors in zip(parts, flags, *(np.split(x, cuts) for x in fused)):
        lead = part.shape[:-2]
        out.append(_guarded(flag, vals.reshape(lead + (dim,)), vecs.reshape(part.shape), *errors))
    return out


def decompose(h):
    """Eigenvalues in descending order and the matching eigenvectors.

    Raises NumericalFailure if the solver does not converge or a
    unitarity or reconstruction residual exceeds its bound.
    """
    return _guarded(False, *_solve(h))


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
    return _guarded(True, *_solve(h))


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
    scale = _pymax(np.abs(vals[..., 0]), np.abs(vals[..., -1]))
    return domain.clamp_spectrum(vals, np.asarray(DOMAIN_CLAMP_TOL * _pymax(1.0, scale))[..., None])


def _evaluate(f, vals):
    fvals = f.eval_array(_clamped(f.domain, vals))
    if not np.isfinite(fvals).all():
        raise NumericalFailure(f"function {f.id!r} produced non-finite values")
    return fvals


def _finite(f, x):
    """`x`, the stack of f's results, if every entry is finite; otherwise
    NumericalFailure naming the function of the first offending matrix."""
    if np.isfinite(x).all():
        return x
    if isinstance(f, (list, tuple)):
        rows = ~np.isfinite(x).reshape(len(f), -1).all(axis=1)
        f = f[int(np.flatnonzero(rows)[0])]
    raise NumericalFailure(f"function {f.id!r} produced a non-finite matrix")


def _calculus(f, decomposition):
    """`calculus` without the finiteness check of the rebuilt matrices."""
    vals, vecs = decomposition
    out = np.empty_like(vals)
    for g, rows in _by_function(f):
        out[rows] = _evaluate(g, vals[rows])
    return rebuild(out, vecs)


def calculus(f, decomposition):
    """Functional calculus f(H) = U f(diag lambda) U* from the
    (eigenvalues, eigenvectors) pair that `decompose` returns for each H.

    `f` is one function for the whole stack, or a sequence with one
    function per entry of the first axis; each function evaluates all of
    its entries in one call. Eigenvalues within 1e-9 * max(1, ||H||_2) of
    a closed domain endpoint are clamped onto it; anything farther outside
    raises DomainViolation, and a non-finite value or matrix
    NumericalFailure.
    """
    return _finite(f, _calculus(f, decomposition))


def apply_function(f, h):
    """`calculus` of f on the decomposition of each H of the stack."""
    return calculus(f, decompose(h))


def conditioned_roots(right, condition_cap=CONDITION_CAP):
    """(R^{1/2}, R^{-1/2}) from the (eigenvalues, eigenvectors) pair that
    `positive` returns for each R. Raises IllConditioned if a condition
    number exceeds `condition_cap`."""
    vals, vecs = right
    cond = vals[..., 0] / vals[..., -1]
    worst = _first(cond, _exceeds(cond, condition_cap))
    if worst is not None:
        raise IllConditioned(f"condition number {worst:.3e} exceeds cap {condition_cap:.1e}")
    return sqrt_pair(vals, vecs)


def perspective(f, left, right, condition_cap=CONDITION_CAP):
    """R^{1/2} f(R^{-1/2} L R^{-1/2}) R^{1/2} for every pair of the stack.

    `right` is the (eigenvalues, eigenvectors) pair that `positive`
    returns, and its roots come from `conditioned_roots`. `f` is as for
    `calculus`, and a non-finite result raises NumericalFailure naming it.
    """
    half, inv_half = conditioned_roots(right, condition_cap)
    return sandwich(f, half, decompose(hermitian_part(inv_half @ left @ inv_half)))


def sandwich(f, half, inner):
    """R^{1/2} f(X) R^{1/2} from `half` = R^{1/2} and the decomposition
    `inner` of each X = R^{-1/2} L R^{-1/2}: the last step of `perspective`,
    for a caller that takes several functions of one X. A non-finite
    result raises NumericalFailure naming f."""
    # A non-finite f(X) leaves the product non-finite, so one check names f.
    return _finite(f, hermitian_part(half @ _calculus(f, inner) @ half))


def flagged_positive(h):
    """`h`, one function or one per entry of the first axis, once each is
    flagged strictly positive; NonPositiveH otherwise. Callers that
    decompose R for `f_delta_h` check h first, so an h that is not
    flagged is refused before any eigendecomposition."""
    for g, _ in _by_function(h):
        if not g.flags.strictly_positive:
            raise NonPositiveH(f"h = {g.id!r} is not flagged strictly positive")
    return h


def h_of(h, right):
    """The decomposition of each h(R) that `positive` returns, from the
    (eigenvalues, eigenvectors) pair that `decompose` returns for each R:
    the right side of `f_delta_h`'s perspective, for a caller that takes
    that perspective in one `perspective` call with others. Raises
    NonPositiveH if an h is not flagged strictly positive
    (`flagged_positive`) or an h(R) is not strictly positive."""
    h_of_r = calculus(flagged_positive(h), right)
    try:
        return positive(h_of_r)
    except NotPositiveDefinite as exc:
        raise NonPositiveH(f"h(R) is not strictly positive: {exc}") from exc


def f_delta_h(f, h, left, right):
    """h(R)^{1/2} f(h(R)^{-1/2} L h(R)^{-1/2}) h(R)^{1/2} for every pair of
    the stack: the perspective of f at h(R) (`h_of`), the generalized
    perspective. `right` is as for `h_of`, and `f` and `h` are as for
    `calculus`.
    """
    return perspective(f, left, h_of(h, right))


def bivariate(phi, left, right):
    """phi on the eigenvalue grid of each pair (A, B), carried by U (x) V.

    `left` and `right` are the (eigenvalues, eigenvectors) pairs that
    `decompose` returns for A = U diag(lam) U* and B = V diag(mu) V*. The
    (i, j) pair sits at tensor index i * dim(B) + j. The eigenvalues are
    clamped onto phi's domains as for `apply_function`; a non-finite grid
    value raises DomainViolation.
    """
    lam, mu = _clamped(phi.domain_x, left[0]), _clamped(phi.domain_y, right[0])
    grid = np.asarray(phi.fn(lam[..., :, None], mu[..., None, :]), dtype=float)
    grid = grid.reshape(grid.shape[:-2] + (-1,))
    bad = ~np.isfinite(grid)
    if bad.any():
        raise DomainViolation(float(_first(grid, bad)), (phi.domain_x, phi.domain_y))
    u, v = left[1], right[1]
    w = (u[..., :, None, :, None] * v[..., None, :, None, :]).reshape(grid.shape + grid.shape[-1:])
    return hermitian_part((w * grid[..., None, :]) @ adjoint(w))


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
    loop over its own terms from zero. One reduction over the axis would
    not keep that order: numpy reduces 1 x 1 matrices pairwise."""
    axes = (1,) * (x.ndim - 2)
    if w is not None:
        x = x * w.reshape(w.shape + axes)
    if mask is not None:
        x = np.where(mask.reshape(mask.shape + axes), x, 0)
    out = np.zeros_like(x[:, 0])
    for term in x.swapaxes(0, 1):
        out += term
    return out


def singular_values(x):
    """Singular values of every matrix of the stack, descending: the
    eigenvalues of (X* X)^{1/2}, clipped at zero before the root."""
    try:
        gram = np.linalg.eigvalsh(adjoint(x) @ x)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular value computation failed: {exc}") from exc
    return np.sqrt(np.clip(gram, 0.0, None))[..., ::-1]


def loewner(lhs, rhs, tol):
    """(margin_low, margin_high, tolerance_used) of lhs <= rhs per pair.

    margin_low is the smallest eigenvalue of rhs - lhs, margin_high the
    smallest of lhs - rhs, and tolerance_used is `tol` at the larger
    spectral norm of the two sides. One eigvalsh call over the stack
    [rhs - lhs, lhs, rhs] gives all three. A non-finite side raises
    NumericalFailure: its eigenvalues would be arbitrary.
    """
    sides = np.stack([rhs - lhs, lhs, rhs])
    if not np.isfinite(sides).all():
        raise NumericalFailure("Loewner comparison failed: a side has non-finite entries")
    try:
        eig = np.linalg.eigvalsh(sides)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Loewner comparison failed: {exc}") from exc
    scale = _pymax(np.max(np.abs(eig[1]), axis=-1), np.max(np.abs(eig[2]), axis=-1))
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


def in_trial_order(evaluate, records, *args):
    """`evaluate(records, *args)` on the whole stack of records.

    If that raises, the records are evaluated one at a time, in order, so
    the error raised is the one the first failing record raises alone,
    as in a loop over single records.
    """
    try:
        return evaluate(records, *args)
    except (OpDivError, np.linalg.LinAlgError):
        for record in records:
            evaluate([record], *args)
        raise


def run_trials(count: int, dim: int, draw, evaluate, *args) -> tuple:
    """The trial loop: trials 0 .. count - 1 of dim x dim matrices.

    Each chunk of trials (`chunks`) is drawn serially, `draw(trial)` per
    trial, and evaluated at once through `in_trial_order`:
    `evaluate(records, *args)` returns each trial's worst margin,
    violation flag and an extra, such as a payload thunk. The trials fold
    by `fold`'s rule: strict `<` from inf, so the first of equal margins
    is the worst and trial 0 stands until one is smaller, and a NaN
    margin is never the worst. Returns the violation count, the worst
    margin, that trial's index and its extra.
    """
    violations, worst_margin, worst_trial, worst_extra = 0, math.inf, 0, None
    for chunk in chunks(count, dim):
        worst, violated, extras = in_trial_order(evaluate, [draw(t) for t in chunk], *args)
        violations += int(np.count_nonzero(violated))
        if chunk.start == 0:
            worst_extra = extras[0]
        for trial, margin, extra in zip(chunk, worst.tolist(), extras):
            if margin < worst_margin:
                worst_margin, worst_trial, worst_extra = margin, trial, extra
    return violations, worst_margin, worst_trial, worst_extra

"""The draws and stacked evaluations of the registered checks.

Each check is a `draw`, run serially per trial, and an `evaluate` that
builds and compares every trial of a chunk on stacked arrays through
`kernels`. A draw makes only the RNG calls of its trial, in a fixed
order, so the trial's stream (keyed in `lab` by seed, check id and trial
index) fully determines its instance. It reads the spectrum windows,
vectors, single maps and function pools defined here, and keeps the RNG
output as it comes: eigenvalues, uncapped, and each Gaussian as the real
pair of `raw_gaussian`; only unit and probability vectors are normalized
per trial. Complex assembly, the condition cap, the normalization of
congruence families and every eigendecomposition happen in evaluate.

Trials stack by the matrix shape of each stage, not by the shape of
their draws: the entries of fields and map families of any size form one
flat stack of the entries present, so each per-entry stage (build,
decompositions, perspectives, congruences, calculus) runs once per
chunk. A stage fuses its independent work of one matrix size: its
decompositions are one `kernels.decompositions` call, and its
perspectives, plain, generalized (at h(R), `kernels.h_of`) or the terms
of the divergence functional (`_Theta`), are one `kernels.perspective`
call over the stacks laid end to end, with one function per row
(`_perspectives`). Sums over a trial's entries are one
`kernels.field_sum` over a (T, k) presence mask: the present terms, in
entry order, added to zeros.
Only a stage whose matrix size depends on the draw is split by that
size: what follows the maps stacks per output dimension of a subunital
family, and per output size of a single map, whose maps apply at once
per variant and compression size; map objects are built only for the
worst trial's payload. Pool functions are applied through index masks,
so every margin has the bits of the one-trial-at-a-time computation.
Loewner links and scalar links fold into a trial's worst margin and
violation flag by the rule that also folds the trials (`kernels.fold`).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from . import kernels as K
from .errors import BadRange
from .funcatalog import (
    FunctionFlags,
    Interval,
    PowerFamily,
    ScalarOperatorFunction,
    builtin,
    sampling_window,
)
from .hermitian import ToleranceConfig, array_to_rows, raw_gaussian, raw_spectrum
from .perspective import BivariateSpec, tangent_point
from .posmap import Compression, Congruence, MapField, MapSum, ScaledMap, check_unital, example_33

if TYPE_CHECKING:  # pragma: no cover
    from .lab import GenConfig


# Function pools: a draw picks its entry by the trial index.

_SQUARE = builtin("square")
_NEG_LOG = builtin("neg_log")
_T_LOG_T = builtin("t_log_t")
_IDENTITY = builtin("identity")
_INV = builtin("power", [-1])
_INV_SQRT = builtin("power", [-0.5])
_P15 = builtin("power", [1.5])
_SQRT = builtin("power", [0.5])
_P08 = builtin("power", [0.8])
_AFF_H = builtin("affine", [0.7, 0.3])

_SQUARE_M1 = ScalarOperatorFunction(
    id="square_minus_one",
    domain=Interval.real_line(),
    eval=lambda t: np.asarray(t, dtype=float) ** 2 - 1.0,
    deriv=lambda t: 2.0 * np.asarray(t, dtype=float),
    flags=FunctionFlags(claims_operator_convex=True, value_at_zero_nonpositive=True),
)
_INV_M1 = ScalarOperatorFunction(
    id="inv_minus_one",
    domain=Interval.positive(),
    eval=lambda t: 1.0 / np.asarray(t, dtype=float) - 1.0,
    deriv=lambda t: -1.0 / np.asarray(t, dtype=float) ** 2,
    flags=FunctionFlags(claims_operator_convex=True),
)
_LOG = ScalarOperatorFunction(
    id="log",
    domain=Interval.positive(),
    eval=lambda t: np.log(t),
    deriv=lambda t: 1.0 / np.asarray(t, dtype=float),
    flags=FunctionFlags(claims_operator_concave=True),
)

# Operator convex catalog entries for the generic divergence checks.
_CONVEX_POOL = (_SQUARE, _NEG_LOG, _T_LOG_T, _INV, _INV_SQRT, _P15, _IDENTITY)
# Operator convex with f(0) <= 0, as the subunital (contraction-style)
# Jensen arguments require.
_F0_POOL = (_SQUARE, _T_LOG_T, _P15, _SQUARE_M1, builtin("affine", [1.0, -0.5]))
# Strictly positive operator concave h candidates with h(0) >= 0.
_H_POOL = (_IDENTITY, _SQRT, _P08, _AFF_H)
# Differentiable operator convex functions for the tangent-line bound.
_DIFF_POOL = (_SQUARE, _T_LOG_T, _NEG_LOG, _INV_SQRT, _P15)
# Pointwise-dominated operator convex pairs f1 <= f2.
_DOM_PAIRS = ((_SQUARE_M1, _SQUARE), (_NEG_LOG, _INV_M1))
# Functions for the Ky Fan norm check.
_NORM_POOL = (_SQUARE, _INV, _NEG_LOG)

_X_SQ_OVER_Y = BivariateSpec(
    fn=lambda x, y: x * x / y,
    domain_x=Interval.nonnegative(),
    domain_y=Interval.positive(),
)


def _pick(pool, trial: int, f_over):
    return f_over if f_over is not None else pool[trial % len(pool)]


def _pick_fh(trial: int, f_over):
    """f from the f(0) <= 0 pool and h from the h pool, cycling jointly."""
    f = _pick(_F0_POOL, trial, f_over)
    return f, _H_POOL[(trial // len(_F0_POOL)) % len(_H_POOL)]


class _Map(NamedTuple):
    """The draws of a subunital single map: a contraction (variant 0: a
    Gaussian pair, and the factor on its spectral norm), a compression (1:
    the indices as drawn, unsorted, and the scale) or a scaled sum of
    congruences (2: two Gaussian pairs)."""

    variant: int
    c: Optional[list]
    ix: Optional[np.ndarray]
    scale: float


class _Draw(NamedTuple):
    """One trial's random draws, kept as the RNG gave them.

    A slot field is a (cap, spectra) pair: per slot its eigenvalues and
    its `raw_gaussian` pair, and the condition cap the eigenvalues get
    when built (None for none). Fields, families and vectors hold as many
    entries as the trial drew. Every float transform, from complex
    assembly and the cap to every eigendecomposition, is left to evaluate
    (`_build`, `_gaussians`); a record holds only real and integer
    arrays, apart from the complex unit vectors `x`, which are normalized
    per trial.
    """

    f: Optional[ScalarOperatorFunction]
    w: Optional[np.ndarray]  # field or family weights; a mixture's p; EX2_8's (alpha, beta)
    a: Optional[tuple] = None  # the Hermitian slots
    b: Optional[tuple] = None  # the positive slots
    c: Optional[list] = None  # the Gaussian pairs of a congruence family
    t1: Optional[list] = None  # the sorted first block of a bipartition
    h: Optional[ScalarOperatorFunction] = None  # a generalized perspective's h; THM2_10's f2
    q: Optional[np.ndarray] = None  # a mixture's q; a subunital family's shrinks
    m: Optional[_Map] = None  # a subunital single map
    x: Optional[list] = None  # the unit vectors (or (u, v) pairs) of quadratic forms


# Drawing, stacking, summing, folding and payloads.


def _a_window(f: ScalarOperatorFunction, cfg: GenConfig) -> tuple:
    """Spectrum window for the self-adjoint slot, kept inside dom(f)."""
    lo, hi = cfg.spectrum_range
    dlo, dhi = sampling_window(f.domain, lo_default=lo, hi_default=hi)
    wlo, whi = max(lo, dlo), min(hi, dhi)
    if not wlo < whi:
        raise BadRange(f"spectrum_range {cfg.spectrum_range} incompatible with dom {f.domain!r}")
    return wlo, whi


def _b_window(cfg: GenConfig) -> tuple:
    lo, hi = cfg.spectrum_range
    wlo = max(lo, 0.1)
    if not wlo < hi:
        raise BadRange(f"spectrum_range {cfg.spectrum_range} has no positive part above 0.1")
    return wlo, hi


def _prob_vector(rng, n: int) -> np.ndarray:
    v = rng.uniform(0.1, 1.0, n)
    return v / v.sum()


def _unit_vector(rng, dim: int) -> np.ndarray:
    """A complex unit vector, normalized here: the norm of one complex
    vector has its own summation order, which a stacked norm would not
    keep."""
    re, im = rng.standard_normal((2, dim))
    v = re + 1j * im
    return v / np.linalg.norm(v)


def _a_slots(rng, cfg: GenConfig, f, n: int) -> tuple:
    """n Hermitian slots with spectra in f's a window, uncapped."""
    lo, hi = _a_window(f, cfg)
    return None, [raw_spectrum(rng, cfg.dim, lo, hi) for _ in range(n)]


def _b_slots(rng, cfg: GenConfig, n: int) -> tuple:
    """n positive-definite slots with spectra in the b window, capped at
    cfg.condition_cap when built."""
    lo, hi = _b_window(cfg)
    return cfg.condition_cap, [raw_spectrum(rng, cfg.dim, lo, hi) for _ in range(n)]


def _build(group, *slots) -> tuple:
    """The matrices of the named slots of every trial, one flat stack per
    slot (each trial's matrices in order, trial by trial), decoded by one
    `K.build`; the cap is the run's one condition cap, read from the
    first trial."""
    return K.build(
        *((getattr(group[0], s)[0], [x for r in group for x in getattr(r, s)[1]]) for s in slots)
    )


def _present(counts) -> np.ndarray:
    """(T, k) mask of the entries of each trial: trial t holds the first
    counts[t] of k, the largest count."""
    counts = np.array(counts)
    return np.arange(counts.max()) < counts[:, None]


def _pad(flat, mask) -> np.ndarray:
    """A flat stack of the present entries, trial by trial, laid out as
    (T, k, ...) by `mask`. Absent entries are zero; no sum adds them."""
    out = np.zeros(mask.shape + flat.shape[1:], dtype=flat.dtype)
    out[mask] = flat
    return out


def _padded(group, name: str, mask) -> np.ndarray:
    """Each record's vector `name`, one entry per present entry, (T, k)."""
    return _pad(np.concatenate([getattr(r, name) for r in group]), mask)


def _each(values, mask) -> list:
    """Per-trial `values` repeated for each present entry of the trial."""
    return [values[t] for t in np.nonzero(mask)[0].tolist()]


def _per_trial(flat, mask) -> list:
    """A flat stack of the present entries cut into each trial's own."""
    return np.split(flat, np.cumsum(mask.reshape(len(mask), -1).sum(axis=1))[:-1])


def _take(f, rows):
    """The functions of the trials `rows`: one per trial, or a family."""
    return f[rows] if isinstance(f, PowerFamily) else [f[i] for i in rows]


def _split_by(records, key) -> list:
    """The indices of the records, one array per value of key(record), in
    order of first appearance."""
    groups = {}
    for i, r in enumerate(records):
        groups.setdefault(key(r), []).append(i)
    return [np.array(rows) for rows in groups.values()]


def _gaussians(records, name: str, mask=None) -> np.ndarray:
    """The complex Gaussians of each record's list `name` of Gaussian
    pairs, (T, k, rows, cols), assembled in one `K.complex_pair` call:
    zero where `mask` has no entry, or k of each without a mask."""
    g = K.complex_pair(K.stack([pair for r in records for pair in getattr(r, name)]))
    if mask is not None:
        return _pad(g, mask)
    return g.reshape((len(records), -1) + g.shape[-2:])


def _stack(group, name: str) -> np.ndarray:
    return np.array([getattr(r, name) for r in group])


def _fh(group) -> tuple:
    return [r.f for r in group], [r.h for r in group]


def _first_block(group, present) -> np.ndarray:
    """(T, k) membership of each present entry in the trial's first block."""
    t1 = np.zeros_like(present)
    for t, r in enumerate(group):
        t1[t, r.t1] = True
    return t1


def _total(flat, mask, w=None):
    """`K.field_sum` over each trial's own entries of a flat stack of them."""
    return K.field_sum(_pad(flat, mask), mask, w)


def _eval(fs, x) -> np.ndarray:
    """fs[t] on the values x[t] of every trial t, one call per function."""
    out = np.empty_like(x)
    for g, rows in K._by_function(fs):
        out[rows] = g.eval_array(x[rows])
    return out


def _quad(m, x) -> np.ndarray:
    """<x, M x> of each trial's matrix M (T, n, n) at its vectors x (T, L, n)."""
    return (x.conj()[..., None, :] @ m[:, None] @ x[..., :, None])[..., 0, 0].real


def _links(tol: ToleranceConfig, *links) -> tuple:
    """`kernels.fold` over the Loewner links lhs <= rhs: margin the smallest
    eigenvalue of rhs - lhs (`K.loewner`)."""
    lhs = np.stack([lhs for lhs, _ in links], axis=1)
    rhs = np.stack([rhs for _, rhs in links], axis=1)
    low, _, used = K.loewner(lhs, rhs, tol)
    return K.fold(low, used)


def _scalar_links(tol: ToleranceConfig, lhs, rhs) -> tuple:
    """`kernels.fold` over the scalar links lhs <= rhs, (T, L) each: margin
    rhs - lhs, held to the tolerance at max(|lhs|, |rhs|)."""
    return K.fold(rhs - lhs, tol.at_scale(K._pymax(np.abs(lhs), np.abs(rhs))))


def _gram(weights, cs, mask=None):
    """sum_j w_j C_j* C_j of each family: `cs` stacks the k Gaussians of
    each of T families, shape (T, k, in, out), and `weights` is (T, k). A
    family holds the maps where `mask` (T, k) holds, the first one always;
    the sum (`K.field_sum`) leaves the others out."""
    return K.hermitian_part(K.field_sum((weights[..., None, None] * K.adjoint(cs)) @ cs, mask))


def _normalized(cs, gram, shrinks=None):
    """C_i G^{-1/2}, times sqrt(shrink_i) if given, from the decomposition
    `gram` that `K.positive` returns for each family's Gram sum G
    (`_gram`); `shrinks` is (T, k). With these matrices as congruences,
    sum_i w_i Phi_i(I) = I before shrinking.
    """
    _, inv_half = K.sqrt_pair(*gram)
    maps = cs @ inv_half[..., None, :, :]
    if shrinks is not None:
        maps = maps * np.sqrt(shrinks)[..., None, None]
    return maps


def _family(w, maps, unital: bool):
    """A weighted congruence family, as a thunk for `_payload`."""
    return lambda: MapField([(wi, Congruence(m)) for wi, m in zip(w, maps)], unital)


def _json(value):
    """A payload value: a matrix as rows, a stack of them as a list, a
    vector as a list, a function by its id, a map by its JSON and a
    callable, such as a thunk that builds a map, by what it returns."""
    if callable(value):
        return _json(value())
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return array_to_rows(value)
        return value.tolist() if value.ndim < 2 else [_json(x) for x in value]
    if isinstance(value, ScalarOperatorFunction):
        return value.id
    return value.to_json() if hasattr(value, "to_json") else value


def _payload(**parts) -> dict:
    """A trial's instance payload, built only for the worst trial; parts
    that are None are left out."""
    return {key: _json(value) for key, value in parts.items() if value is not None}


def _joined(*decompositions) -> tuple:
    """The (eigenvalues, eigenvectors) pairs of several stacks as the pair
    of their concatenation."""
    return tuple(np.concatenate(x) for x in zip(*decompositions))


class _Theta(NamedTuple):
    """The divergence functional of fields, as a part of `_perspectives`:
    the weighted sum (the plain sum when `w` is None) of the perspectives
    of the entries, from the flat stacks `a` and the decompositions
    `b_pos` that `K.positive` returns."""

    fs: list
    mask: np.ndarray
    w: Optional[np.ndarray]
    a: np.ndarray
    b_pos: tuple


def _perspectives(*parts) -> list:
    """The perspective of each (f, left, right) part, `f` one function or
    one per row and `right` the decomposition that `K.positive` returns,
    and the divergence functional of each `_Theta` part, from one
    `K.perspective` call over the parts laid end to end, one function per
    row."""
    rows = [(_each(p.fs, p.mask), p.a, p.b_pos) if isinstance(p, _Theta) else p for p in parts]
    fs = [g for f, left, _ in rows for g in (f if isinstance(f, list) else [f] * len(left))]
    lefts = np.concatenate([left for _, left, _ in rows])
    out = K.perspective(fs, lefts, _joined(*(right for _, _, right in rows)))
    outs = np.split(out, np.cumsum([len(left) for _, left, _ in rows])[:-1])
    return [_total(x, p.mask, p.w) if isinstance(p, _Theta) else x for p, x in zip(parts, outs)]


# Weighted fields: Theorems 2.1, 2.4 and 2.12, Corollaries 2.2 and 2.3.


def _draw_field(rng, cfg: GenConfig, f, n: int, weights=None) -> _Draw:
    """A weighted field: the weights, then each entry's A and B."""
    (alo, ahi), (blo, bhi) = _a_window(f, cfg), _b_window(cfg)
    if weights is None:
        weights = rng.uniform(0.2, 2.0, n)
    a, b = [], []
    for _ in range(n):
        a.append(raw_spectrum(rng, cfg.dim, alo, ahi))
        b.append(raw_spectrum(rng, cfg.dim, blo, bhi))
    return _Draw(f, weights, (None, a), (cfg.condition_cap, b))


def _draw_thm2_1(rng, trial, cfg, f_over, unit_weights=False):
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 5))
    return _draw_field(rng, cfg, f, n, np.ones(n) if unit_weights else None)


def _draw_cor2_3_split(rng, trial, cfg, f_over):
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 5))
    draw = _draw_field(rng, cfg, f, n)
    k = int(rng.integers(1, n))
    perm = rng.permutation(n)
    return draw._replace(t1=sorted(perm[:k].tolist()))


def _draw_thm2_12_grad(rng, trial, cfg, f_over):
    f = _pick(_DIFF_POOL, trial, f_over)
    return _draw_field(rng, cfg, f, int(rng.integers(2, 4)))


def _draw_cor2_2_ii(rng, trial, cfg, f_over):
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 4))
    return _Draw(f, None, _a_slots(rng, cfg, f, n), _b_slots(rng, cfg, n))


def _draw_thm2_4_mixture(rng, trial, cfg, f_over):
    """An n x n grid of (L, R) pairs in row-major order, with mixture p."""
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 4))
    p = rng.uniform(0.2, 2.0, n)
    return _Draw(f, p, _a_slots(rng, cfg, f, n * n), _b_slots(rng, cfg, n * n))


def _field(group) -> tuple:
    """Functions, entry mask, weights and the flat A and B stacks of field
    draws."""
    mask = _present([len(r.w) for r in group])
    a, b = _build(group, "a", "b")
    return [r.f for r in group], mask, _padded(group, "w", mask), a, b


def _field_payloads(group, mask, a, b) -> list:
    return [
        partial(_payload, f=r.f, w=r.w, A=ai, B=bi, t1=r.t1)
        for r, ai, bi in zip(group, _per_trial(a, mask), _per_trial(b, mask))
    ]


def _eval_thm2_1(group, tol):
    """Perspective of the weighted sums vs the weighted sum of perspectives.

    With unit weights this is the subadditivity of the perspective over
    entrywise sums (Corollary 2.2).
    """
    fs, mask, w, a, b = _field(group)
    sum_a, sum_b = (_total(x, mask, w) for x in (a, b))
    b_pos, sum_pos = K.decompositions(b, sum_b, positive=True)
    lhs, theta = _perspectives((fs, sum_a, sum_pos), _Theta(fs, mask, w, a, b_pos))
    worst, violated = _links(tol, (lhs, theta))
    return worst, violated, _field_payloads(group, mask, a, b)


def _eval_cor2_3_split(group, tol):
    """Two-block split sits between the combined perspective and the divergence."""
    fs, mask, w, a, b = _field(group)
    a_k, b_k = _pad(a, mask), _pad(b, mask)
    t1 = _first_block(group, mask)
    # The weighted sums of the two blocks and of the whole field.
    sums = [(K.field_sum(a_k, m, w), K.field_sum(b_k, m, w)) for m in (t1, mask & ~t1, mask)]
    b_pos, *rights = K.decompositions(b, *(sum_b for _, sum_b in sums), positive=True)
    one, two, whole, theta = _perspectives(
        *((fs, sum_a, right) for (sum_a, _), right in zip(sums, rights)),
        _Theta(fs, mask, w, a, b_pos),
    )
    split = one + two
    worst, violated = _links(tol, (whole, split), (split, theta))
    return worst, violated, _field_payloads(group, mask, a, b)


def _eval_thm2_12_grad(group, tol):
    """Tangent-line lower bound f(1) sum w B - f'(1) sum w (B - A) for the
    divergence functional."""
    fs, mask, w, a, b = _field(group)
    b_pos = K.positive(b)  # each drawn B is positive definite
    points = np.array([tangent_point(f) for f in fs])[:, :, None, None]
    sum_b, sum_a = _total(b, mask, w), _total(a, mask, w)
    lower = sum_b * points[:, 0] - (sum_b - sum_a) * points[:, 1]
    (theta,) = _perspectives(_Theta(fs, mask, w, a, b_pos))
    worst, violated = _links(tol, (lower, theta))
    return worst, violated, _field_payloads(group, mask, a, b)


def _eval_cor2_2_ii(group, tol):
    """f of the left sum vs the perspective sum when the right slots add to I."""
    fs = [r.f for r in group]
    mask = _present([len(r.a[1]) for r in group])
    lefts, raw = _build(group, "a", "b")
    # Each drawn right slot is positive definite, and so is their sum.
    _, raw_sum, left_sum = K.decompositions(
        raw, _total(raw, mask), _total(lefts, mask), positive=(True, True, False)
    )
    _, inv_half = K.sqrt_pair(*raw_sum)
    inv_half = inv_half[np.nonzero(mask)[0]]
    rights = K.hermitian_part(inv_half @ raw @ inv_half)
    lhs = K.calculus(fs, left_sum)
    (rhs,) = _perspectives(_Theta(fs, mask, None, lefts, K.positive(rights)))
    worst, violated = _links(tol, (lhs, rhs))
    payloads = [
        partial(_payload, f=r.f, L=left, R=right)
        for r, left, right in zip(group, _per_trial(lefts, mask), _per_trial(rights, mask))
    ]
    return worst, violated, payloads


def _eval_thm2_4_mixture(group, tol):
    """Row perspectives of a mixed grid vs the mixture of grid perspectives."""
    fs = [r.f for r in group]
    mask = _present([len(r.w) for r in group])
    grid = mask[:, :, None] & mask[:, None, :]
    p = _padded(group, "w", mask)
    ls, rs = _build(group, "a", "b")
    # Row i of a grid: the p-mixture of its (L, R) pairs across columns j.
    rows = [K.field_sum(_pad(x, grid).swapaxes(1, 2), mask, p)[mask] for x in (ls, rs)]
    row_pos, cell_pos = K.decompositions(rows[1], rs, positive=True)
    lhs, cells = _perspectives(
        _Theta(fs, mask, None, rows[0], row_pos), (_each(fs, grid), ls, cell_pos)
    )
    columns = K.field_sum(_pad(cells, grid), mask)
    worst, violated = _links(tol, (lhs, K.field_sum(columns, mask, p)))
    payloads = []
    for r, left, right in zip(group, _per_trial(ls, grid), _per_trial(rs, grid)):
        shape = (len(r.w),) * 2 + left.shape[1:]
        grids = dict(L=left.reshape(shape), R=right.reshape(shape))
        payloads.append(partial(_payload, f=r.f, p=r.w, **grids))
    return worst, violated, payloads


# Unital families and the refinement chain: Theorem 3.1, Corollary 3.4.


def _draw_unital_family(rng, dim: int, k: int, unit_weights=False) -> tuple:
    """The weights and Gaussian pairs of k congruences that `_normalized`
    makes a unital family."""
    w = np.ones(k) if unit_weights else rng.uniform(0.2, 2.0, k)
    return w, [raw_gaussian(rng, dim, dim) for _ in range(k)]


def _draw_jensen(rng, trial, cfg, f_over, unit_weights=False):
    """f, a unital congruence family, one operator per map and a
    bipartition of the maps. With unit weights the congruences sum to the
    identity (Corollary 3.4)."""
    f = _pick(_CONVEX_POOL, trial, f_over)
    k = int(rng.integers(2, 4))
    w, c = _draw_unital_family(rng, cfg.dim, k, unit_weights)
    a = _a_slots(rng, cfg, f, k)
    cut = int(rng.integers(1, k))
    perm = rng.permutation(k)
    return _Draw(f, w, a, c=c, t1=sorted(perm[:cut].tolist()))


def _unital_family(group, mask) -> tuple:
    """The weights (T, k), Gaussians (T, k, n, n) and Gram sums (`_gram`)
    of unital congruence families, zero where `mask` has no map: the
    decompositions of the Gram sums make the congruences (`_normalized`)."""
    w, cs = _padded(group, "w", mask), _gaussians(group, "c", mask)
    return w, cs, _gram(w, cs, mask)


def _jensen_chain(fs, mapped, ops, ops_dec, present, t1, full: bool = True):
    """The four-stage refinement chain of a unital map family, stacked.

    `mapped(x)` gives w_i Phi_i(x_i), (T, k, n, n), for a flat stack `x`
    of one operator per map that `present` (T, k) holds, `ops` holds the
    operators, `ops_dec` their decompositions, and `t1` masks the first
    block. Returns the chain (m1, m2, m3, m4), the first block's
    perspective and the first block's share of m4. Without `full` the
    second block and the per-map perspectives are not built, and m2 and
    m3 are None.
    """
    mapped_a = mapped(ops)
    mapped_i = mapped(np.broadcast_to(np.eye(ops.shape[-1], dtype=complex), ops.shape))
    check_unital(K.field_sum(mapped_i, present))
    mapped_f = mapped(K.calculus(_each(fs, present), ops_dec))
    masks = (t1, present & ~t1) if full else (t1,)
    lefts = [K.field_sum(mapped_a, m) for m in masks]
    # The sum of the mapped operators, then the blocks' right sides and with
    # `full` each map's, decomposed at once.
    rights = [K.field_sum(mapped_i, m) for m in masks] + ([mapped_i[present]] if full else [])
    sum_dec, *rights = K.decompositions(
        K.field_sum(mapped_a, present), *rights, positive=(False,) + (True,) * len(rights)
    )
    m1 = K.calculus(fs, sum_dec)
    parts = [(fs, left, right) for left, right in zip(lefts, rights)]
    if full:
        parts.append(_Theta(fs, present, None, mapped_a[present], rights[-1]))
    persp = _perspectives(*parts)
    m2 = m3 = None
    if full:
        m2, m3 = persp[0] + persp[1], persp[2]
    return (m1, m2, m3, K.field_sum(mapped_f, present)), persp[0], K.field_sum(mapped_f, t1)


def _eval_jensen(group, tol, unit_weights=False, full=True):
    """The refinement chain of the mapped Jensen inequality (`full`), or
    the block deficit lower bound for the mapped Jensen gap. With unit
    weights the payload lists the congruence matrices under "C"."""
    fs = [r.f for r in group]
    present = _present([len(r.w) for r in group])
    w, cs, gram = _unital_family(group, present)
    (ops,) = _build(group, "a")
    gram_pos, ops_dec = K.decompositions(gram, ops, positive=(True, False))
    maps = _normalized(cs, gram_pos)

    def mapped(x):
        return K.congruence(maps, _pad(x, present)) * w[..., None, None]

    t1 = _first_block(group, present)
    (m1, m2, m3, m4), block_one, f_one = _jensen_chain(fs, mapped, ops, ops_dec, present, t1, full)
    if full:
        links = ((m1, m2), (m2, m3), (m3, m4))
    else:
        deficit = f_one - block_one
        links = ((np.zeros_like(deficit), deficit), (deficit, m4 - m1))
    worst, violated = _links(tol, *links)
    payloads = []
    for i, (r, a) in enumerate(zip(group, _per_trial(ops, present))):
        own = maps[i, : len(r.w)]
        family = {"C": own} if unit_weights else {"maps": _family(r.w, own, True)}
        payloads.append(partial(_payload, f=r.f, **family, A=a, t1=r.t1))
    return worst, violated, payloads


# Choi-Davis-Jensen refinements: Theorems 2.6 and 2.10, Corollary 2.7, Example 2.8.


def _draw_thm2_6(rng, trial, cfg, f_over):
    """f and h, a subunital congruence family (weights, output dimension,
    shrinks, Gaussians), then the k operators A_i and the k B_i."""
    f, h = _pick_fh(trial, f_over)
    k = int(rng.integers(2, 4))
    out_dim = cfg.dim if rng.integers(0, 2) else max(2, cfg.dim - 1)
    w = rng.uniform(0.3, 1.5, k)
    shrinks = rng.uniform(0.5, 1.0, k)
    c = [raw_gaussian(rng, cfg.dim, out_dim) for _ in range(k)]
    a, b = _a_slots(rng, cfg, f, k), _b_slots(rng, cfg, k)
    return _Draw(f, w, a, b, c, h=h, q=shrinks)


def _eval_thm2_6(group, tol):
    """Generalized perspective of the mapped sums vs the mapped sum of
    generalized perspectives, for a subunital family. The mapped matrices
    take the family's output dimension, so they stack per dimension."""
    fs, hs = _fh(group)
    present = _present([len(r.w) for r in group])
    w, shrinks = _padded(group, "w", present), _padded(group, "q", present)
    a, b = _build(group, "a", "b")
    b_pos = K.positive(b)  # each drawn B is positive definite
    f_ab = K.f_delta_h(_each(fs, present), _each(hs, present), a, b_pos)
    images = _pad(np.stack([a, b, f_ab], axis=1), present)
    worst, violated = np.empty(len(group)), np.empty(len(group), dtype=bool)
    maps = [None] * len(group)
    for rows in _split_by(group, lambda r: r.c[0].shape[-1]):
        mask, w_rows = present[rows], w[rows]
        gaussians = _gaussians([group[i] for i in rows], "c", mask)
        family = _normalized(gaussians, K.positive(_gram(w_rows, gaussians, mask)), shrinks[rows])
        mapped = K.congruence(family[:, :, None], images[rows])
        sum_a, sum_b, rhs = (K.field_sum(mapped[:, :, i], mask, w_rows) for i in range(3))
        lhs = K.f_delta_h(_take(fs, rows), _take(hs, rows), sum_a, K.decompose(sum_b))
        worst[rows], violated[rows] = _links(tol, (lhs, rhs))
        for i, own in zip(rows.tolist(), family):
            maps[i] = own[: len(group[i].w)]
    payloads = [
        partial(_payload, f=r.f, h=r.h, maps=_family(r.w, maps[i], False), A=ai, B=bi)
        for i, (r, ai, bi) in enumerate(zip(group, _per_trial(a, present), _per_trial(b, present)))
    ]
    return worst, violated, payloads


def _draw_thm2_10(rng, trial, cfg, f_over):
    """A structural pair f1 <= f2 (the override is ignored), a unital
    congruence family, then the k positive A_i and the k B_i."""
    f1, f2 = _DOM_PAIRS[trial % len(_DOM_PAIRS)]
    k = int(rng.integers(2, 4))
    w, c = _draw_unital_family(rng, cfg.dim, k)
    lo = max(_a_window(f1, cfg)[0], _a_window(f2, cfg)[0], _b_window(cfg)[0])
    hi = min(_a_window(f1, cfg)[1], _a_window(f2, cfg)[1])
    a = cfg.condition_cap, [raw_spectrum(rng, cfg.dim, lo, hi) for _ in range(k)]
    return _Draw(f1, w, a, _b_slots(rng, cfg, k), c, h=f2)


def _eval_thm2_10(group, tol):
    """Pointwise dominance f1 <= f2 transfers to the mapped perspective
    and functional-calculus bounds."""
    f1s, f2s = _fh(group)
    present = _present([len(r.w) for r in group])
    w, cs, gram = _unital_family(group, present)
    a, b = _build(group, "a", "b")
    # Each drawn A and B is positive definite.
    gram_pos, a_pos, b_pos = K.decompositions(gram, a, b, positive=True)
    maps = _normalized(cs, gram_pos)
    f2 = _each(f2s, present)
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    images = [eye, a, b, K.perspective(f2, a, b_pos), K.calculus(f2, a_pos)]
    mapped = K.congruence(maps[:, :, None], _pad(np.stack(images, axis=1), present))
    unit, sum_a, sum_b, rhs_g, rhs_f = (
        K.field_sum(mapped[:, :, i], present, w) for i in range(len(images))
    )
    check_unital(unit)
    sum_b_pos, sum_a_dec = K.decompositions(sum_b, sum_a, positive=(True, False))
    worst, violated = _links(
        tol,
        (K.perspective(f1s, sum_a, sum_b_pos), rhs_g),
        (K.calculus(f1s, sum_a_dec), rhs_f),
    )
    payloads = [
        partial(_payload, f1=r.f, f2=r.h, maps=_family(r.w, maps[i, : len(r.w)], True), A=ai, B=bi)
        for i, (r, ai, bi) in enumerate(zip(group, _per_trial(a, present), _per_trial(b, present)))
    ]
    return worst, violated, payloads


def _draw_single_map(rng, dim: int, variant: int) -> _Map:
    """One subunital positive map: contraction, compression, or scaled sum."""
    variant = variant % 3
    if variant == 0:
        return _Map(0, [raw_gaussian(rng, dim, dim)], None, float(rng.uniform(1.0, 1.8)))
    if variant == 1:
        k = int(rng.integers(1, dim + 1))
        ix = rng.choice(dim, size=k, replace=False)
        return _Map(1, None, ix, float(rng.uniform(0.3, 1.0)))
    c = [raw_gaussian(rng, dim, dim) for _ in range(2)]
    return _Map(2, c, None, float(rng.uniform(0.4, 1.0)))


def _single_maps(ms, dim: int) -> tuple:
    """The subunital single maps `ms` (`_draw_single_map`), all of one
    variant and, for compressions, one size: `apply` maps a stack (T, S,
    dim, dim), and `build(i)` makes the object of map i, for its payload."""
    scale = np.array([m.scale for m in ms])[:, None]
    if ms[0].variant == 1:
        ix = np.sort(np.array([m.ix for m in ms]), axis=-1)[:, None]
        return partial(K.compress, ix, scale), lambda i: Compression(dim, ix[i, 0], ms[i].scale)
    c = _gaussians(ms, "c")
    if ms[0].variant == 0:
        c = c / (np.linalg.norm(c, 2, axis=(-2, -1)) * scale)[..., None, None]
        return partial(K.congruence, c), lambda i: Congruence(c[i, 0])
    c = _normalized(c, K.positive(_gram(np.ones(c.shape[:2]), c)))

    def apply(x):  # the two congruences summed from zeros, as MapSum does
        return K.field_sum(K.congruence(c[:, :, None], x[:, None])) * scale[..., None, None]

    return apply, lambda i: ScaledMap(MapSum([Congruence(p) for p in c[i]]), ms[i].scale)


def _map_images(ms, x) -> tuple:
    """Each trial's subunital single map applied to its stack of images x
    (T, S, dim, dim), the maps of one variant and compression size at
    once. Returns the (trial indices, images) of each output size and a
    thunk per trial that builds its map."""
    sizes, maps = {}, [None] * len(ms)
    for rows in _split_by(ms, lambda m: (m.variant, 0 if m.ix is None else len(m.ix))):
        apply, build = _single_maps([ms[i] for i in rows], x.shape[-1])
        phi = apply(x[rows])
        sizes.setdefault(phi.shape[-1], []).append((rows, phi))
        for j, i in enumerate(rows.tolist()):
            maps[i] = partial(build, j)
    stacks = [
        (np.concatenate([rows for rows, _ in parts]), np.concatenate([phi for _, phi in parts]))
        for parts in sizes.values()
    ]
    return stacks, maps


def _draw_cor2_7(rng, trial, cfg, f_over):
    f, h = _pick_fh(trial, f_over)
    m = _draw_single_map(rng, cfg.dim, trial)
    return _Draw(f, None, _a_slots(rng, cfg, f, 1), _b_slots(rng, cfg, 1), h=h, m=m)


def _draw_ex2_8(rng, trial, cfg, f_over):
    """Power-function pairs where the subunital Jensen argument applies:
    growth exponents beta in [1, 2] with any root exponent alpha in
    [0, 1], or inverse exponents in [-1, 0] with the identity in the h
    slot. The override is ignored; the functions are structural here,
    kept as their exponents (alpha, beta)."""
    if trial == 0:
        alpha, beta = 1.0, -1.0
    elif rng.uniform() < 0.5:
        alpha, beta = float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.0, 2.0))
    else:
        alpha, beta = 1.0, float(rng.uniform(-1.0, 0.0))
    m = _draw_single_map(rng, cfg.dim, trial)
    cap, (a, b) = _b_slots(rng, cfg, 2)
    return _Draw(None, np.array([alpha, beta]), (cap, [a]), (cap, [b]), m=m)


def _eval_single_map(group, tol, perspective=True):
    """One subunital map Phi: the generalized perspective of
    (Phi(A), Phi(B)) vs Phi of the generalized perspective of (A, B), and
    with `perspective` the same bound for the perspective of f (COR2_7).
    Without it (EX2_8) A is drawn positive definite, f and h are the power
    families of the drawn exponents and the payload names them by their
    exponents. The images under Phi stack per output size."""
    if perspective:
        fs, hs = _fh(group)
    else:
        alpha, beta = _stack(group, "w").T
        fs, hs = PowerFamily(beta), PowerFamily(alpha)
    a, b = _build(group, "a", "b")
    # Each drawn B is positive definite, and without `perspective` each A.
    b_pos = K.decompositions(b, *(() if perspective else (a,)), positive=True)[0]
    parts = [(fs, a, K.h_of(hs, b_pos))] + ([(fs, a, b_pos)] if perspective else [])
    images = np.stack([a, b, *_perspectives(*parts)], axis=1)
    stacks, maps = _map_images([r.m for r in group], images)
    worst, violated = np.empty(len(group)), np.empty(len(group), dtype=bool)
    for rows, phi in stacks:
        f, h = _take(fs, rows), _take(hs, rows)
        phi_b = K.decompose(phi[:, 1])
        parts = [(f, phi[:, 0], K.h_of(h, phi_b))]
        if perspective:
            parts.append((f, phi[:, 0], K.strictly_positive(phi_b)))
        lhs = _perspectives(*parts)
        worst[rows], violated[rows] = _links(tol, *zip(lhs, phi.swapaxes(0, 1)[2:]))
    payloads = []
    for i, r in enumerate(group):
        ids = dict(f=r.f, h=r.h) if perspective else dict(alpha=r.w[0].item(), beta=r.w[1].item())
        payloads.append(partial(_payload, **ids, map=maps[i], A=a[i], B=b[i]))
    return worst, violated, payloads


# Quadratic forms, mixtures, Ky Fan norms and tensor calculus.


def _draw_cor2_9(rng, trial, cfg, f_over):
    f, h = _pick_fh(trial, f_over)
    cap, (a, b) = _b_slots(rng, cfg, 2)
    x = [_unit_vector(rng, cfg.dim) for _ in range(3)]
    return _Draw(f, None, (cap, [a]), (cap, [b]), h=h, x=x)


def _eval_cor2_9(group, tol):
    """Scalar generalized perspective h(<x, B x>) f(<x, A x> / h(<x, B x>))
    vs the quadratic form of the generalized perspective, at three unit
    vectors x."""
    fs, hs = _fh(group)
    a, b = _build(group, "a", "b")
    _, b_pos = K.decompositions(a, b, positive=True)  # each drawn A and B is positive definite
    x = _stack(group, "x")
    ax, bx, rhs = (_quad(m, x) for m in (a, b, K.f_delta_h(fs, hs, a, b_pos)))
    hbx = _eval(hs, bx)
    worst, violated = _scalar_links(tol, hbx * _eval(fs, ax / hbx), rhs)
    payloads = [
        partial(_payload, f=r.f, h=r.h, A=a[i], B=b[i], x=x[i][:, None])
        for i, r in enumerate(group)
    ]
    return worst, violated, payloads


def _draw_delta_nabla(rng, trial, cfg, f_over):
    """f and h, the mixtures p and q, then the L_i (in the a window and
    above the b window's floor) and the R_i."""
    f, h = _pick_fh(trial, f_over)
    n = int(rng.integers(2, 4))
    p, q = _prob_vector(rng, n), _prob_vector(rng, n)
    alo, ahi = _a_window(f, cfg)
    lo = max(alo, _b_window(cfg)[0])
    a = None, [raw_spectrum(rng, cfg.dim, lo, ahi) for _ in range(n)]
    return _Draw(f, p, a, _b_slots(rng, cfg, n), h=h, q=q)


def _eval_delta_nabla(group, tol):
    """Generalized perspective of the mixtures (sum p_i L_i, sum q_i R_i)
    vs the mixture functional sum_i p_i f_delta_h(L_i, q_i R_i)."""
    fs, hs = _fh(group)
    mask = _present([len(r.w) for r in group])
    p, q = _padded(group, "w", mask), _padded(group, "q", mask)
    ls, rs = _build(group, "a", "b")
    sum_l, sum_r = _total(ls, mask, p), _total(rs, mask, q)
    K.flagged_positive(hs)
    # Each drawn R is positive definite; the mixture and each q_i R_i give
    # the right sides of the two generalized perspectives, taken at once.
    _, *rights = K.decompositions(
        rs, sum_r, rs * q[mask][:, None, None], positive=(True, False, False)
    )
    lefts = np.concatenate([sum_l, ls])
    both = K.f_delta_h(fs + _each(fs, mask), hs + _each(hs, mask), lefts, _joined(*rights))
    lhs, rhs = both[: len(group)], _total(both[len(group) :], mask, p)
    worst, violated = _links(tol, (lhs, rhs))
    payloads = [
        partial(_payload, f=r.f, h=r.h, p=r.w, q=r.q, L=left, R=right)
        for r, left, right in zip(group, _per_trial(ls, mask), _per_trial(rs, mask))
    ]
    return worst, violated, payloads


def _draw_thm3_8(rng, trial, cfg, f_over):
    f = _pick(_NORM_POOL, trial, f_over)
    cap, (a, b) = _b_slots(rng, cfg, 2)
    return _Draw(f, None, (cap, [a]), (cap, [b]))


def _eval_thm3_8(group, tol):
    """Scalar perspective of the Ky Fan k-norms of A and B vs the Ky Fan
    k-norms of their perspective, for every k."""
    fs = [r.f for r in group]
    a, b = _build(group, "a", "b")
    _, b_pos = K.decompositions(a, b, positive=True)  # each drawn A and B is positive definite
    g = K.perspective(fs, a, b_pos)
    sa, sb, sg = np.cumsum(K.singular_values(np.stack([a, b, g])), axis=-1)
    worst, violated = _scalar_links(tol, sb * _eval(fs, sa / sb), sg)
    return worst, violated, [partial(_payload, f=r.f, A=a[i], B=b[i]) for i, r in enumerate(group)]


def _draw_lemma_jadjit(rng, trial, cfg, f_over):
    """A and B, then three pairs (u, v) of unit vectors, u before v."""
    cap, (a, b) = _b_slots(rng, cfg, 2)
    uv = [(_unit_vector(rng, cfg.dim), _unit_vector(rng, cfg.dim)) for _ in range(3)]
    return _Draw(None, None, (cap, [a]), (cap, [b]), x=uv)


def _eval_lemma_jadjit(group, tol):
    """x^2/y calculus on A (x) B vs tensor quadratic forms:
    <u, A u>^2 / <v, B v> <= <u (x) v, phi(A, B) u (x) v> at three (u, v)."""
    a, b = _build(group, "a", "b")
    a_dec, b_dec = K.decompositions(a, b, positive=True)
    uv_pairs = _stack(group, "x")
    u, v = np.moveaxis(uv_pairs, 2, 0)
    au, bv = _quad(a, u), _quad(b, v)
    uv = (u[..., :, None] * v[..., None, :]).reshape(u.shape[:-1] + (-1,))
    rhs = np.empty_like(au)
    # The tensors are dim**2 x dim**2, so they take their own chunks.
    for span in K.chunks(len(group), uv.shape[-1]):
        t = slice(span.start, span.stop)
        mat = K.bivariate(_X_SQ_OVER_Y, (a_dec[0][t], a_dec[1][t]), (b_dec[0][t], b_dec[1][t]))
        rhs[t] = _quad(mat, uv[t])
    worst, violated = _scalar_links(tol, au * au / bv, rhs)
    payloads = [
        partial(_payload, A=a[i], B=b[i], uv=uv_pairs[i][:, :, None]) for i in range(len(group))
    ]
    return worst, violated, payloads


# Relative entropy, the scalar reduction and the Example 3.3 fixture.


def _draw_kl(rng, trial, cfg, f_over):
    cap, slots = _b_slots(rng, cfg, 4)
    return _Draw(None, None, (cap, slots[:2]), (cap, slots[2:]))


def _far(got, want, rtol: float) -> np.ndarray:
    """Per trial: ||got - want||_F > rtol * max(1, ||want||_F)."""
    return K._fro(got - want) > rtol * K._pymax(1.0, K._fro(want))


def _eval_kl(group, tol):
    """Operator relative-entropy bounds for a two-entry unit-weight field.

    (a) The combined-field term never exceeds the sum of per-entry terms
    (joint convexity plus homogeneity). (b, c) Tangent-line bounds for
    the two entropy generators, each cross-checked against the direct
    sandwich formula it equals analytically.
    """
    ls, rs = (x.reshape((len(group), 2) + x.shape[1:]) for x in _build(group, "a", "b"))
    sum_l, sum_r = K.field_sum(ls), K.field_sum(rs)
    (l_vals, l_vecs), r_pos, sum_pos = K.decompositions(ls, rs, sum_r, positive=True)
    half, inv_half = K.conditioned_roots(r_pos)
    sum_half, sum_inv_half = K.conditioned_roots(sum_pos)
    # R^{-1/2} L R^{-1/2}, decomposed once for both perspectives and log,
    # the same of the sums, and R^{1/2} L^{-1} R^{1/2}, positive definite.
    inner, sum_inner, recip = K.decompositions(
        K.hermitian_part(inv_half @ ls @ inv_half),
        K.hermitian_part(sum_inv_half @ sum_l @ sum_inv_half),
        K.hermitian_part(half @ K.rebuild(1.0 / l_vals, l_vecs) @ half),
        positive=(False, False, True),
    )
    theta_log, theta_tlt = (K.field_sum(K.sandwich(f, half, inner)) for f in (_NEG_LOG, _T_LOG_T))
    direct_log = K.field_sum(K.sandwich(_LOG, half, recip))
    log_inner = K.calculus(_LOG, inner)
    direct_tlt = K.hermitian_part(K.field_sum(ls @ inv_half @ log_inner @ half))
    worst, violated = _links(
        tol,
        (K.sandwich(_NEG_LOG, sum_half, sum_inner), theta_log),
        (sum_r, theta_log + sum_l),
        (sum_l - sum_r, theta_tlt),
    )
    violated |= _far(theta_log, direct_log, 1e-9) | _far(theta_tlt, direct_tlt, 1e-9)
    return worst, violated, [partial(_payload, L=ls[i], R=rs[i]) for i in range(len(group))]


def _draw_scalar_csiszar(rng, trial, cfg, f_over):
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 7))
    p = rng.uniform(0.1, 4.0, n)
    return _Draw(f, p, q=rng.uniform(0.1, 4.0, n))


def _eval_scalar_csiszar(group, tol):
    """In dimension one the divergence functional of the field (p_i, q_i)
    is the scalar sum S = sum_i q_i f(p_i / q_i), and S >= Q f(P / Q) for
    the totals P and Q."""
    fs = [r.f for r in group]
    mask = _present([len(r.w) for r in group])
    p, q = (np.concatenate([getattr(r, s) for r in group]) for s in ("w", "q"))
    # Sums from zeros, term by term, as np.sum adds the few terms of a row.
    total = _total(q * _eval(_each(fs, mask), p / q), mask)
    # The same sum as the divergence functional of 1 x 1 matrices.
    cell_p, cell_q = (K.hermitian_part(x[:, None, None]) for x in (p, q))
    (theta,) = _perspectives(_Theta(fs, mask, None, cell_p, K.positive(cell_q)))
    theta = theta[:, 0, 0].real
    big_q = _total(q, mask)
    lhs = big_q * _eval(fs, _total(p, mask) / big_q)
    worst, violated = _scalar_links(tol, lhs[:, None], total[:, None])
    violated |= np.abs(theta - total) > 1e-12 * K._pymax(1.0, np.abs(total))
    return worst, violated, [partial(_payload, f=r.f, p=r.w, q=r.q) for r in group]


_CHAIN_LABELS = (
    "f_at_sum",
    "two_block_refinement",
    "per_map_perspective_sum",
    "sum_of_mapped_f",
)


def _example(tol: ToleranceConfig, perturbation: float = 0.0) -> tuple:
    """The Example 3.3 fixture: its chain as computed (the first matrix
    shifted by `perturbation` * I, so the failure path can be exercised),
    the stored chain, each matrix's largest entrywise deviation from its
    stored value, and each link's Loewner margin and tolerance."""
    ex = example_33()
    ops = np.array([a.entries for a in ex.operators])
    present = np.ones((1, len(ops)), dtype=bool)
    t1 = np.array([[i in ex.partition[0] for i in range(len(ops))]])
    w, maps = zip(*ex.maps)
    ix, scale = np.array([m.indices for m in maps]), np.array([m.scale for m in maps])

    def mapped(x):
        return (K.compress(ix, scale, x) * np.array(w)[:, None, None])[None]

    chain, _, _ = _jensen_chain([_SQUARE], mapped, ops, K.decompose(ops), present, t1)
    computed = np.stack([m[0] for m in chain])
    if perturbation:
        computed[0] = computed[0] + np.eye(computed.shape[-1], dtype=complex) * float(perturbation)
    expected = np.stack([m.entries for m in ex.expected_chain])
    devs = np.max(np.abs(computed - expected), axis=(-2, -1))
    low, _, used = K.loewner(computed[:-1], computed[1:], tol)
    return computed, expected, devs, low, used


def _draw_example(rng, trial, cfg, f_over):
    """The fixture reads no draw."""
    return _Draw(None, None)


def _eval_example(group, tol):
    """Entrywise match with the stored chain plus strictly positive chain
    gaps. The fixture reads no draw, so every trial has one outcome."""
    _, _, devs, low, used = _example(tol)
    worst, violated = K.fold(low[None], used[None])
    violated |= np.any(devs > 1e-9)
    payload = partial(_payload, fixture="compression_example", labels=list(_CHAIN_LABELS))
    return np.repeat(worst, len(group)), np.repeat(violated, len(group)), [payload] * len(group)

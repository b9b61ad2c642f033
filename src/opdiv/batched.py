"""Checks that evaluate all their trials at once.

Each check here is a `draw`, run serially per trial, that makes only the
RNG calls of that trial, and an `evaluate` that builds and compares every
trial on stacked arrays through `kernels`. Trials are grouped by the
shape of their draws and never padded, pool functions are applied
through index masks, and sums keep each check's own term order, so every
margin has the bits of the one-trial-at-a-time computation.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from . import kernels as K
from .funcatalog import ScalarOperatorFunction
from .hermitian import ToleranceConfig, array_to_rows, complex_gaussian, draw_spectrum
from .perspective import tangent_point
from .posmap import Congruence, MapField, check_unital
from .sampling import _CONVEX_POOL, _DIFF_POOL, _a_window, _b_spectrum, _normalized, _pick

if TYPE_CHECKING:  # pragma: no cover
    from .lab import GenConfig


class _Draw(NamedTuple):
    """One trial's random draws.

    Every eigendecomposition, including the ones that turn Gaussians into
    unitaries, is left to evaluate. Spectra are (eigenvalues, Gaussians)
    pairs for `K.from_spectrum`, one row per slot.
    """

    f: ScalarOperatorFunction
    w: Optional[np.ndarray]  # field or family weights; THM2_4's mixture p
    a: tuple  # the Hermitian slots
    b: Optional[tuple] = None  # the positive slots
    c: Optional[np.ndarray] = None  # Gaussians of a unital congruence family
    t1: Optional[list] = None  # the sorted first block of a bipartition


def _pack(spectra) -> tuple:
    return np.array([lam for lam, _ in spectra]), np.array([g for _, g in spectra])


def _draw_field(rng, cfg: GenConfig, f, n: int, weights=None) -> _Draw:
    """A weighted field: the weights, then each entry's A and B."""
    alo, ahi = _a_window(f, cfg)
    if weights is None:
        weights = rng.uniform(0.2, 2.0, n)
    entries = [(draw_spectrum(rng, cfg.dim, alo, ahi), _b_spectrum(rng, cfg)) for _ in range(n)]
    a, b = _pack([a for a, _ in entries]), _pack([b for _, b in entries])
    return _Draw(f, np.asarray(weights, dtype=float), a, b)


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
    alo, ahi = _a_window(f, cfg)
    a = _pack([draw_spectrum(rng, cfg.dim, alo, ahi) for _ in range(n)])
    return _Draw(f, None, a, _pack([_b_spectrum(rng, cfg) for _ in range(n)]))


def _draw_thm2_4_mixture(rng, trial, cfg, f_over):
    """An n x n grid of (L, R) pairs in row-major order, with mixture p."""
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 4))
    p = rng.uniform(0.2, 2.0, n)
    alo, ahi = _a_window(f, cfg)
    a = _pack([draw_spectrum(rng, cfg.dim, alo, ahi) for _ in range(n * n)])
    return _Draw(f, p, a, _pack([_b_spectrum(rng, cfg) for _ in range(n * n)]))


def _draw_jensen(rng, trial, cfg, f_over, unit_weights=False):
    """f, a unital congruence family, one operator per map and a
    bipartition of the maps. With unit weights the congruences sum to the
    identity (Corollary 3.4)."""
    f = _pick(_CONVEX_POOL, trial, f_over)
    k = int(rng.integers(2, 4))
    w = np.ones(k) if unit_weights else rng.uniform(0.2, 2.0, k)
    c = np.array([complex_gaussian(rng, cfg.dim, cfg.dim) for _ in range(k)])
    alo, ahi = _a_window(f, cfg)
    a = _pack([draw_spectrum(rng, cfg.dim, alo, ahi) for _ in range(k)])
    cut = int(rng.integers(1, k))
    perm = rng.permutation(k)
    return _Draw(f, w, a, c=c, t1=sorted(perm[:cut].tolist()))


def _by_shape(evaluate_group):
    """An evaluate that splits the trials into groups of one draw shape
    (field size, map count), never padded, and runs
    `evaluate_group(group, tol)` on each. If that raises, the error is the
    first failing trial's own (`kernels.in_trial_order`)."""

    def evaluate(records, tol):
        groups = {}
        for i, record in enumerate(records):
            groups.setdefault(record.a[0].shape, []).append(i)
        worst = np.empty(len(records))
        violated = np.empty(len(records), dtype=bool)
        payloads = [None] * len(records)
        for ix in groups.values():
            worst[ix], violated[ix], thunks = evaluate_group([records[i] for i in ix], tol)
            for i, thunk in zip(ix, thunks):
                payloads[i] = thunk
        return worst, violated, payloads

    return partial(K.in_trial_order, evaluate)


def _build(group, *slots) -> tuple:
    """The matrices of the named slots of every trial, one stack per slot,
    from one stacked eigendecomposition."""
    lam = np.stack([[getattr(r, s)[0] for s in slots] for r in group])
    gaussian = np.stack([[getattr(r, s)[1] for s in slots] for r in group])
    built = K.from_spectrum(lam, gaussian)
    return tuple(built[:, i] for i in range(len(slots)))


def _mask(group) -> np.ndarray:
    """(T, k) membership of each slot in the trial's first block."""
    k = group[0].a[0].shape[0]
    return np.array([[i in r.t1 for i in range(k)] for r in group])


def _sum(x, mask=None, w=None, first=False):
    """Sum over axis 1, term by term from left to right: w_i x_i for the
    terms where `mask` holds. It starts from zeros, or from the first term
    when `first`, in each check's own order: the two differ in the signs
    of zeros."""

    def term(i):
        t = x[:, i]
        return t if w is None else t * w[:, i].reshape((-1,) + (1,) * (t.ndim - 1))

    out = term(0) if first else np.zeros_like(x[:, 0])
    for i in range(int(first), x.shape[1]):
        if mask is None:
            out = out + term(i)
        else:
            out = np.where(mask[:, i, None, None], out + term(i), out)
    return out


def _links(tol: ToleranceConfig, *links) -> tuple:
    """Worst margin and violation flag of each trial over the Loewner
    links lhs <= rhs. Links fold left to right from inf with a strict
    `<`; a NaN margin is a violation and never the worst."""
    lhs = np.stack([lhs for lhs, _ in links], axis=1)
    rhs = np.stack([rhs for _, rhs in links], axis=1)
    low, _, used = K.loewner(lhs, rhs, tol)
    worst = np.full(len(low), math.inf)
    for j in range(low.shape[1]):
        worst = np.where(low[:, j] < worst, low[:, j], worst)
    return worst, ~np.all(low >= -used, axis=1)


def _field(group) -> tuple:
    """Functions, weights and A and B stacks of field draws, with B's
    decompositions (each B is positive definite)."""
    a, b = _build(group, "a", "b")
    return [r.f for r in group], np.stack([r.w for r in group]), a, b, K.positive(b)


def _perspective_of_sums(fs, w, a, b):
    return K.perspective(fs, _sum(a, w=w), K.positive(_sum(b, w=w)))


def _theta(fs, w, a, b_pos):
    """The divergence functional: the weighted sum of the perspectives."""
    return _sum(K.perspective(fs, a, b_pos), w=w)


def _field_payload(r: _Draw, a, b) -> dict:
    out = {
        "f": r.f.id,
        "w": r.w.tolist(),
        "A": [array_to_rows(x) for x in a],
        "B": [array_to_rows(x) for x in b],
    }
    if r.t1 is not None:
        out["t1"] = r.t1
    return out


def _field_payloads(group, a, b) -> list:
    return [partial(_field_payload, r, a[i], b[i]) for i, r in enumerate(group)]


def _eval_thm2_1(group, tol):
    """Perspective of the weighted sums vs the weighted sum of perspectives.

    With unit weights this is the subadditivity of the perspective over
    entrywise sums (Corollary 2.2).
    """
    fs, w, a, b, b_pos = _field(group)
    worst, violated = _links(tol, (_perspective_of_sums(fs, w, a, b), _theta(fs, w, a, b_pos)))
    return worst, violated, _field_payloads(group, a, b)


def _eval_cor2_3_split(group, tol):
    """Two-block split sits between the combined perspective and the divergence."""
    fs, w, a, b, b_pos = _field(group)
    t1 = _mask(group)
    halves = (t1, ~t1)
    blocks = K.perspective(
        fs,
        np.stack([_sum(a, m, w) for m in halves], axis=1),
        K.positive(np.stack([_sum(b, m, w) for m in halves], axis=1)),
    )
    split = blocks[:, 0] + blocks[:, 1]
    worst, violated = _links(
        tol, (_perspective_of_sums(fs, w, a, b), split), (split, _theta(fs, w, a, b_pos))
    )
    return worst, violated, _field_payloads(group, a, b)


def _eval_thm2_12_grad(group, tol):
    """Tangent-line lower bound f(1) sum w B - f'(1) sum w (B - A) for the
    divergence functional."""
    fs, w, a, b, b_pos = _field(group)
    points = np.array([tangent_point(f) for f in fs])[:, :, None, None]
    sum_b, sum_a = _sum(b, w=w), _sum(a, w=w)
    lower = sum_b * points[:, 0] - (sum_b - sum_a) * points[:, 1]
    worst, violated = _links(tol, (lower, _theta(fs, w, a, b_pos)))
    return worst, violated, _field_payloads(group, a, b)


def _slots_payload(r: _Draw, lefts, rights) -> dict:
    return {
        "f": r.f.id,
        "L": [array_to_rows(x) for x in lefts],
        "R": [array_to_rows(x) for x in rights],
    }


def _eval_cor2_2_ii(group, tol):
    """f of the left sum vs the perspective sum when the right slots add to I."""
    fs = [r.f for r in group]
    lefts, raw = _build(group, "a", "b")
    K.positive(raw)  # each drawn right slot is positive definite
    _, inv_half = K.sqrt_pair(*K.positive(_sum(raw, first=True)))
    inv_half = inv_half[:, None]
    rights = K.hermitian_part(inv_half @ raw @ inv_half)
    lhs = K.apply_function(fs, _sum(lefts, first=True))
    rhs = _sum(K.perspective(fs, lefts, K.positive(rights)), first=True)
    worst, violated = _links(tol, (lhs, rhs))
    payloads = [partial(_slots_payload, r, lefts[i], rights[i]) for i, r in enumerate(group)]
    return worst, violated, payloads


def _grid_payload(r: _Draw, ls, rs) -> dict:
    return {
        "f": r.f.id,
        "p": r.w.tolist(),
        "L": [[array_to_rows(x) for x in row] for row in ls],
        "R": [[array_to_rows(x) for x in row] for row in rs],
    }


def _eval_thm2_4_mixture(group, tol):
    """Row perspectives of a mixed grid vs the mixture of grid perspectives."""
    fs = [r.f for r in group]
    p = np.stack([r.w for r in group])
    grid_shape = (len(group),) + p.shape[1:] * 2
    ls, rs = (x.reshape(grid_shape + x.shape[-2:]) for x in _build(group, "a", "b"))
    rows = [_sum(x.swapaxes(1, 2), w=p, first=True) for x in (ls, rs)]
    lhs = _sum(K.perspective(fs, rows[0], K.positive(rows[1])))
    columns = _sum(K.perspective(fs, ls, K.positive(rs)), first=True)
    worst, violated = _links(tol, (lhs, _sum(columns, w=p)))
    payloads = [partial(_grid_payload, r, ls[i], rs[i]) for i, r in enumerate(group)]
    return worst, violated, payloads


def _jensen_chain(fs, mapped, ops, t1, full: bool = True):
    """The four-stage refinement chain of a unital map family, stacked.

    `mapped(x)` gives w_i Phi_i(x_i) for a stack `x` of one operator per
    map, `ops` holds the operators and `t1` masks the first block.
    Returns the chain (m1, m2, m3, m4), the first block's perspective and
    the first block's share of m4. Without `full` the second block and
    the per-map perspectives are not built, and m2 and m3 are None.
    """
    mapped_a = mapped(ops)
    mapped_i = mapped(np.broadcast_to(np.eye(ops.shape[-1], dtype=complex), ops.shape))
    check_unital(_sum(mapped_i))
    mapped_f = mapped(K.apply_function(fs, ops))
    m1 = K.apply_function(fs, _sum(mapped_a))
    masks = (t1, ~t1) if full else (t1,)
    blocks = K.perspective(
        fs,
        np.stack([_sum(mapped_a, m) for m in masks], axis=1),
        K.positive(np.stack([_sum(mapped_i, m) for m in masks], axis=1)),
    )
    m2 = m3 = None
    if full:
        m2 = blocks[:, 0] + blocks[:, 1]
        m3 = _sum(K.perspective(fs, mapped_a, K.positive(mapped_i)))
    return (m1, m2, m3, _sum(mapped_f)), blocks[:, 0], _sum(mapped_f, t1)


def _jensen_payload(r: _Draw, maps, ops, unit_weights: bool) -> dict:
    """With unit weights the congruence matrices go under "C"."""
    if unit_weights:
        family = {"C": [array_to_rows(m) for m in maps]}
    else:
        fam = MapField([(w, Congruence(m)) for w, m in zip(r.w, maps)], unital=True)
        family = {"maps": fam.to_json()}
    return {"f": r.f.id, **family, "A": [array_to_rows(x) for x in ops], "t1": r.t1}


def _eval_jensen(group, tol, unit_weights=False, full=True):
    """The refinement chain of the mapped Jensen inequality (`full`), or
    the block deficit lower bound for the mapped Jensen gap."""
    fs = [r.f for r in group]
    w = np.stack([r.w for r in group])
    maps = _normalized(w, np.stack([r.c for r in group]))
    (ops,) = _build(group, "a")

    def mapped(x):
        return K.hermitian_part(K.adjoint(maps) @ x @ maps) * w[..., None, None]

    (m1, m2, m3, m4), block_one, f_one = _jensen_chain(fs, mapped, ops, _mask(group), full)
    if full:
        links = ((m1, m2), (m2, m3), (m3, m4))
    else:
        deficit = f_one - block_one
        links = ((np.zeros_like(deficit), deficit), (deficit, m4 - m1))
    worst, violated = _links(tol, *links)
    payloads = [
        partial(_jensen_payload, r, maps[i], ops[i], unit_weights) for i, r in enumerate(group)
    ]
    return worst, violated, payloads

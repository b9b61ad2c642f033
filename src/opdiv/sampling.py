"""Deterministic instance generation for the check registry.

Per-trial RNG streams, the spectrum windows of the Hermitian and
positive slots, the draws of random matrices and subunital single maps,
the normalization of congruence families, and the function pools that
the checks cycle through. A draw makes its RNG calls in a fixed order,
so every instance is fully determined by (seed, check id, trial index).

A draw keeps the RNG output as it comes: eigenvalues, uncapped, and each
Gaussian as the real pair of `raw_gaussian`. Complex assembly, the
condition cap and every eigendecomposition happen once per stack of
trials, when the checks evaluate them. Only unit and probability vectors
are normalized per trial.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from . import kernels as K
from .errors import BadRange
from .funcatalog import (
    FunctionFlags,
    Interval,
    ScalarOperatorFunction,
    builtin,
    sampling_window,
)
from .hermitian import raw_gaussian
from .perspective import BivariateSpec

if TYPE_CHECKING:  # pragma: no cover
    from .lab import GenConfig


def _trial_rng(seed: int, check_id: str, trial: int) -> np.random.Generator:
    key = zlib.crc32(check_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), key, int(trial)]))


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


def _normalized(weights, cs, shrinks=None, mask=None):
    """C_i (sum_j w_j C_j* C_j)^{-1/2}, times sqrt(shrink_i) if given.

    `cs` stacks the k Gaussians of each of T families, shape (T, k, in,
    out), and `weights` (and `shrinks`) are (T, k). With these matrices as
    congruences, sum_i w_i Phi_i(I) = I before shrinking. A family holds
    the maps where `mask` (T, k) holds, the first one always; the Gram
    sum (`K.field_sum`) leaves the others out.
    """
    gram = K.field_sum((weights[..., None, None] * K.adjoint(cs)) @ cs, mask)
    _, inv_half = K.sqrt_pair(*K.positive(K.hermitian_part(gram)))
    maps = cs @ inv_half[..., None, :, :]
    if shrinks is not None:
        maps = maps * np.sqrt(shrinks)[..., None, None]
    return maps


class _Map(NamedTuple):
    """The draws of a subunital single map: a contraction (variant 0: a
    Gaussian pair, and the factor on its spectral norm), a compression (1:
    the indices as drawn, unsorted, and the scale) or a scaled sum of
    congruences (2: two Gaussian pairs)."""

    variant: int
    c: Optional[list]
    ix: Optional[np.ndarray]
    scale: float


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


# ---------------------------------------------------------------------------
# Shared function pools
# ---------------------------------------------------------------------------

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

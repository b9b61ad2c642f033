"""Deterministic instance generation and the inequality check registry.

Every registered check draws random instances from a per-trial RNG stream
keyed by (seed, check id, trial index), builds both sides of one operator
inequality, and records the worst Loewner margin. A violation is a margin
below the combined abs+rel tolerance; near-zero margins count as equality
because several of the inequalities degenerate to equalities for affine f.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BadRange, UnknownCheck
from .funcatalog import (
    FunctionFlags,
    Interval,
    ScalarOperatorFunction,
    builtin,
    sampling_window,
)
from .hermitian import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    ToleranceConfig,
    apply_function,
    array_to_rows,
    hermitian_from_rng,
    hermitian_part,
    loewner_compare,
    unitary_from_rng,
)
from .norms import singular_values
from .perspective import (
    BivariateSpec,
    WeightedOperatorField,
    bivariate_calculus,
    f_delta_h,
    f_nabla_h,
    gradient_lower_bound,
    perspective,
    theta_divergence,
)
from .posmap import Compression, Congruence, MapField, MapSum, ScaledMap, example_33

__all__ = [
    "GenConfig",
    "CheckResult",
    "SuiteReport",
    "ExampleReproduction",
    "check_ids",
    "check_description",
    "random_hermitian",
    "random_pd",
    "run_check",
    "run_suite",
    "reproduce_example",
]


@dataclass(frozen=True)
class GenConfig:
    """Instance generator settings; fully determines every random draw."""

    dim: int = 3
    spectrum_range: tuple = (0.1, 4.0)
    condition_cap: float = 1e4
    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        if not 2 <= self.dim <= 8:
            raise BadRange(f"dim must be within 2..8, got {self.dim}")
        lo, hi = self.spectrum_range
        # lo == hi is allowed: it pins the spectrum and yields an exact
        # multiple of the identity.
        if not lo <= hi:
            raise BadRange(f"spectrum_range needs lo <= hi, got {self.spectrum_range}")
        if self.condition_cap < 1:
            raise BadRange(f"condition_cap must be >= 1, got {self.condition_cap}")
        if self.seed < 0:
            raise BadRange("seed must be nonnegative")
        if self.trials < 1:
            raise BadRange("trials must be >= 1")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    trials: int
    violations: int
    worst_margin: float
    instance_digest_of_worst: str

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "digest": self.instance_digest_of_worst,
        }


@dataclass(frozen=True)
class SuiteReport:
    config: dict
    checks: tuple
    wall_ms: float

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "checks": [c.to_json_dict() for c in self.checks],
            "wall_ms": self.wall_ms,
        }


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------


def _trial_rng(seed: int, check_id: str, trial: int) -> np.random.Generator:
    key = zlib.crc32(check_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), key, int(trial)]))


def _pd_from(rng, dim: int, lo: float, hi: float, cond_cap: float) -> PositiveDefiniteMatrix:
    if lo <= 0:
        raise BadRange(f"positive-definite sampling needs lo > 0, got {lo}")
    if lo == hi:
        return PositiveDefiniteMatrix(HermitianMatrix._wrap(lo * np.eye(dim, dtype=complex)))
    lam = rng.uniform(lo, hi, dim)
    lam = np.maximum(lam, lam.max() / cond_cap)
    u = unitary_from_rng(rng, dim)
    return PositiveDefiniteMatrix(hermitian_part((u * lam) @ u.conj().T))


def random_hermitian(cfg: GenConfig, trial: int) -> HermitianMatrix:
    """Random Hermitian matrix with spectrum inside cfg.spectrum_range.

    Fully determined by (cfg.seed, trial) and the draw order inside.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), int(trial)]))
    return hermitian_from_rng(rng, cfg.dim, *cfg.spectrum_range)


def random_pd(cfg: GenConfig, trial: int) -> PositiveDefiniteMatrix:
    """Random strictly positive matrix; condition number capped by rescaling."""
    lo, hi = cfg.spectrum_range
    if lo <= 0:
        raise BadRange(f"random_pd needs spectrum_range.lo > 0, got {lo}")
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), int(trial)]))
    return _pd_from(rng, cfg.dim, lo, hi, cfg.condition_cap)


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


def _draw_b(rng, cfg: GenConfig) -> PositiveDefiniteMatrix:
    """Positive-definite matrix with spectrum in the b window."""
    blo, bhi = _b_window(cfg)
    return _pd_from(rng, cfg.dim, blo, bhi, cfg.condition_cap)


def _prob_vector(rng, n: int) -> np.ndarray:
    v = rng.uniform(0.1, 1.0, n)
    return v / v.sum()


def _unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _complex_gaussian(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _inv_sqrt(h: HermitianMatrix) -> np.ndarray:
    pd = PositiveDefiniteMatrix(h)
    _, inv_half = pd.sqrt_pair()
    return inv_half.entries


def _congruence_family(rng, k: int, in_dim: int, out_dim: int, weights, shrinks=None):
    """Congruence maps with sum_i w_i Phi_i(I) = I, optionally shrunk per map."""
    cs = [_complex_gaussian(rng, in_dim, out_dim) for _ in range(k)]
    gram = sum(w * c.conj().T @ c for w, c in zip(weights, cs))
    nrm = _inv_sqrt(hermitian_part(gram))
    maps = []
    for i, c in enumerate(cs):
        m = c @ nrm
        if shrinks is not None:
            m = m * math.sqrt(shrinks[i])
        maps.append(Congruence(m))
    return maps


def _single_subunital_map(rng, dim: int, variant: int):
    """One subunital positive map: contraction, compression, or scaled sum."""
    variant = variant % 3
    if variant == 0:
        c = _complex_gaussian(rng, dim, dim)
        c = c / (np.linalg.norm(c, 2) * rng.uniform(1.0, 1.8))
        return Congruence(c)
    if variant == 1:
        k = int(rng.integers(1, dim + 1))
        ix = np.sort(rng.choice(dim, size=k, replace=False))
        return Compression(dim, ix.tolist(), float(rng.uniform(0.3, 1.0)))
    parts = _congruence_family(rng, 2, dim, dim, (1.0, 1.0))
    return ScaledMap(MapSum(parts), float(rng.uniform(0.4, 1.0)))


# ---------------------------------------------------------------------------
# Margin bookkeeping
# ---------------------------------------------------------------------------


class _Margins:
    """Collects link margins of one trial and flags violations."""

    __slots__ = ("tol", "worst", "violated")

    def __init__(self, tol: ToleranceConfig):
        self.tol = tol
        self.worst = math.inf
        self.violated = False

    def loewner_le(self, lhs: HermitianMatrix, rhs: HermitianMatrix) -> None:
        verdict = loewner_compare(lhs, rhs, self.tol)
        if verdict.margin_low < self.worst:
            self.worst = verdict.margin_low
        # Written as `not >=` so that a NaN margin counts as a violation.
        if not verdict.margin_low >= -verdict.tolerance_used:
            self.violated = True

    def scalar_le(self, lhs: float, rhs: float) -> None:
        margin = rhs - lhs
        if margin < self.worst:
            self.worst = margin
        if not margin >= -self.tol.at_scale(max(abs(lhs), abs(rhs))):
            self.violated = True

    def entrywise_close(self, got: HermitianMatrix, want: HermitianMatrix, atol: float) -> None:
        dev = float(np.max(np.abs(got.entries - want.entries)))
        if dev > atol:
            self.violated = True

    def relative_close(self, got: HermitianMatrix, want: HermitianMatrix, rtol: float) -> None:
        dev = float(np.linalg.norm(got.entries - want.entries))
        if dev > rtol * max(1.0, want.norm_fro()):
            self.violated = True


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

_X_SQ_OVER_Y = BivariateSpec(
    fn=lambda x, y: x * x / y,
    domain_x=Interval.nonnegative(),
    domain_y=Interval.positive(),
)


def _rows(m) -> list:
    if isinstance(m, PositiveDefiniteMatrix):
        m = m.base
    if isinstance(m, HermitianMatrix):
        return array_to_rows(m.entries)
    return array_to_rows(np.asarray(m))


def _field_payload(field: WeightedOperatorField) -> dict:
    return {
        "w": [w for w, _, _ in field],
        "A": [_rows(a) for _, a, _ in field],
        "B": [_rows(b) for _, _, b in field],
    }


def _random_field(rng, cfg: GenConfig, f: ScalarOperatorFunction, n: int, weights=None):
    alo, ahi = _a_window(f, cfg)
    if weights is None:
        weights = rng.uniform(0.2, 2.0, n)
    entries = [
        (
            float(w),
            hermitian_from_rng(rng, cfg.dim, alo, ahi),
            _draw_b(rng, cfg),
        )
        for w in np.asarray(weights, dtype=float)
    ]
    return WeightedOperatorField(entries)


def _pick(pool, trial: int, f_over):
    return f_over if f_over is not None else pool[trial % len(pool)]


def _pick_fh(trial: int, f_over):
    """f from the f(0) <= 0 pool and h from the h pool, cycling jointly."""
    f = _pick(_F0_POOL, trial, f_over)
    return f, _H_POOL[(trial // len(_F0_POOL)) % len(_H_POOL)]


# ---------------------------------------------------------------------------
# Check implementations
# ---------------------------------------------------------------------------


def _chk_thm2_1(rng, trial, cfg, tol, f_over, unit_weights=False):
    """Perspective of the weighted sums vs the weighted sum of perspectives.

    With unit weights this is the subadditivity of the perspective over
    entrywise sums (Corollary 2.2).
    """
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 5))
    field = _random_field(rng, cfg, f, n, weights=np.ones(n) if unit_weights else None)
    lhs = perspective(f, field.weighted_sum_a(), PositiveDefiniteMatrix(field.weighted_sum_b()))
    rhs = theta_divergence(f, field)
    m = _Margins(tol)
    m.loewner_le(lhs, rhs)
    return m, lambda: {"f": f.id, **_field_payload(field)}


def _chk_cor2_2_ii(rng, trial, cfg, tol, f_over):
    """f of the left sum vs the perspective sum when the right slots add to I."""
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 4))
    alo, ahi = _a_window(f, cfg)
    lefts = [hermitian_from_rng(rng, cfg.dim, alo, ahi) for _ in range(n)]
    raw = [_draw_b(rng, cfg) for _ in range(n)]
    total = raw[0].base
    for r in raw[1:]:
        total = total + r.base
    inv_half = _inv_sqrt(total)
    rights = [
        PositiveDefiniteMatrix(hermitian_part(inv_half @ r.entries @ inv_half)) for r in raw
    ]
    lhs = apply_function(f, sum(lefts[1:], lefts[0]))
    rhs = sum(
        (perspective(f, a, b) for a, b in zip(lefts[1:], rights[1:])),
        perspective(f, lefts[0], rights[0]),
    )
    m = _Margins(tol)
    m.loewner_le(lhs, rhs)
    payload = lambda: {"f": f.id, "L": [_rows(x) for x in lefts], "R": [_rows(x) for x in rights]}
    return m, payload


def _chk_cor2_3_split(rng, trial, cfg, tol, f_over):
    """Two-block split sits between the combined perspective and the divergence."""
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 5))
    field = _random_field(rng, cfg, f, n)
    k = int(rng.integers(1, n))
    perm = rng.permutation(n)
    part_one, part_two = set(perm[:k].tolist()), set(perm[k:].tolist())

    def block(ix):
        a = sum((w * a for i, (w, a, _) in enumerate(field) if i in ix), HermitianMatrix.zeros(field.dim))
        b = sum((w * b.base for i, (w, _, b) in enumerate(field) if i in ix), HermitianMatrix.zeros(field.dim))
        return a, PositiveDefiniteMatrix(b)

    a1, b1 = block(part_one)
    a2, b2 = block(part_two)
    combined = perspective(f, field.weighted_sum_a(), PositiveDefiniteMatrix(field.weighted_sum_b()))
    split = perspective(f, a1, b1) + perspective(f, a2, b2)
    rhs = theta_divergence(f, field)
    m = _Margins(tol)
    m.loewner_le(combined, split)
    m.loewner_le(split, rhs)
    return m, lambda: {"f": f.id, "t1": sorted(part_one), **_field_payload(field)}


def _chk_thm2_4_mixture(rng, trial, cfg, tol, f_over):
    """Row perspectives of a mixed grid vs the mixture of grid perspectives."""
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 4))
    p = rng.uniform(0.2, 2.0, n)
    alo, ahi = _a_window(f, cfg)
    ls = [[hermitian_from_rng(rng, cfg.dim, alo, ahi) for _ in range(n)] for _ in range(n)]
    rs = [[_draw_b(rng, cfg) for _ in range(n)] for _ in range(n)]
    lhs = HermitianMatrix.zeros(cfg.dim)
    for i in range(n):
        row_l = sum((p[j] * ls[i][j] for j in range(1, n)), p[0] * ls[i][0])
        row_r = sum((p[j] * rs[i][j].base for j in range(1, n)), p[0] * rs[i][0].base)
        lhs = lhs + perspective(f, row_l, PositiveDefiniteMatrix(row_r))
    rhs = HermitianMatrix.zeros(cfg.dim)
    for j in range(n):
        col = sum(
            (perspective(f, ls[i][j], rs[i][j]) for i in range(1, n)),
            perspective(f, ls[0][j], rs[0][j]),
        )
        rhs = rhs + p[j] * col
    m = _Margins(tol)
    m.loewner_le(lhs, rhs)
    payload = lambda: {
        "f": f.id,
        "p": p.tolist(),
        "L": [[_rows(x) for x in row] for row in ls],
        "R": [[_rows(x) for x in row] for row in rs],
    }
    return m, payload


def _subunital_family(rng, cfg, k: int, square_out: bool):
    weights = rng.uniform(0.3, 1.5, k)
    out_dim = cfg.dim if square_out else max(2, cfg.dim - 1)
    shrinks = rng.uniform(0.5, 1.0, k)
    maps = _congruence_family(rng, k, cfg.dim, out_dim, weights, shrinks)
    return MapField(list(zip(weights, maps)), unital=False)


def _chk_thm2_6_delta(rng, trial, cfg, tol, f_over):
    """Jensen-type bound for the generalized perspective, subunital family."""
    f, h = _pick_fh(trial, f_over)
    k = int(rng.integers(2, 4))
    fam = _subunital_family(rng, cfg, k, square_out=bool(rng.integers(0, 2)))
    alo, ahi = _a_window(f, cfg)
    ops_a = [hermitian_from_rng(rng, cfg.dim, alo, ahi) for _ in range(k)]
    ops_b = [_draw_b(rng, cfg) for _ in range(k)]
    sum_a = HermitianMatrix.zeros(fam.out_dim)
    sum_b = HermitianMatrix.zeros(fam.out_dim)
    rhs = HermitianMatrix.zeros(fam.out_dim)
    for (w, phi), a, b in zip(fam, ops_a, ops_b):
        sum_a = sum_a + w * phi.apply(a)
        sum_b = sum_b + w * phi.apply(b.base)
        rhs = rhs + w * phi.apply(f_delta_h(f, h, a, b.base))
    lhs = f_delta_h(f, h, sum_a, sum_b)
    m = _Margins(tol)
    m.loewner_le(lhs, rhs)
    payload = lambda: {
        "f": f.id,
        "h": h.id,
        "maps": fam.to_json(),
        "A": [_rows(x) for x in ops_a],
        "B": [_rows(x) for x in ops_b],
    }
    return m, payload


def _chk_cor2_7_single(rng, trial, cfg, tol, f_over):
    """Single-map bound for the generalized perspective and the perspective."""
    f, h = _pick_fh(trial, f_over)
    phi = _single_subunital_map(rng, cfg.dim, trial)
    alo, ahi = _a_window(f, cfg)
    a = hermitian_from_rng(rng, cfg.dim, alo, ahi)
    b = _draw_b(rng, cfg)
    phi_a = phi.apply(a)
    phi_b = phi.apply(b.base)
    m = _Margins(tol)
    m.loewner_le(f_delta_h(f, h, phi_a, phi_b), phi.apply(f_delta_h(f, h, a, b.base)))
    m.loewner_le(
        perspective(f, phi_a, PositiveDefiniteMatrix(phi_b)),
        phi.apply(perspective(f, a, b)),
    )
    payload = lambda: {"f": f.id, "h": h.id, "map": phi.to_json(), "A": _rows(a), "B": _rows(b)}
    return m, payload


def _chk_ex2_8_power(rng, trial, cfg, tol, f_over):
    """Power-function single-map bounds in their valid parameter regimes.

    Exponent pairs are sampled where the subunital Jensen argument
    applies: growth exponents in [1, 2] with any root exponent in [0, 1],
    or inverse exponents in [-1, 0] with the identity in the h slot. The
    function override is ignored; the functions are structural here.
    """
    if trial == 0:
        alpha, beta = 1.0, -1.0
    elif rng.uniform() < 0.5:
        alpha, beta = float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.0, 2.0))
    else:
        alpha, beta = 1.0, float(rng.uniform(-1.0, 0.0))
    f = builtin("power", [beta])
    h = builtin("power", [alpha])
    phi = _single_subunital_map(rng, cfg.dim, trial)
    a = _draw_b(rng, cfg)
    b = _draw_b(rng, cfg)
    lhs = f_delta_h(f, h, phi.apply(a.base), phi.apply(b.base))
    rhs = phi.apply(f_delta_h(f, h, a.base, b.base))
    m = _Margins(tol)
    m.loewner_le(lhs, rhs)
    payload = lambda: {
        "alpha": alpha,
        "beta": beta,
        "map": phi.to_json(),
        "A": _rows(a),
        "B": _rows(b),
    }
    return m, payload


def _chk_cor2_9_vector(rng, trial, cfg, tol, f_over):
    """Scalar generalized perspective of quadratic forms under unit vectors."""
    f, h = _pick_fh(trial, f_over)
    a = _draw_b(rng, cfg)
    b = _draw_b(rng, cfg)
    mat = f_delta_h(f, h, a.base, b.base)
    m = _Margins(tol)
    vecs = []
    for _ in range(3):
        x = _unit_vector(rng, cfg.dim)
        vecs.append(x)
        ax = float((x.conj() @ a.entries @ x).real)
        bx = float((x.conj() @ b.entries @ x).real)
        hbx = h.eval_scalar(bx)
        lhs = hbx * f.eval_scalar(ax / hbx)
        rhs = float((x.conj() @ mat.entries @ x).real)
        m.scalar_le(lhs, rhs)
    payload = lambda: {
        "f": f.id,
        "h": h.id,
        "A": _rows(a),
        "B": _rows(b),
        "x": [_rows(v.reshape(1, -1)) for v in vecs],
    }
    return m, payload


def _unital_family(rng, cfg, k: int, unit_weights: bool = False):
    weights = np.ones(k) if unit_weights else rng.uniform(0.2, 2.0, k)
    maps = _congruence_family(rng, k, cfg.dim, cfg.dim, weights)
    return MapField(list(zip(weights, maps)), unital=True)


def _chk_thm2_10_dom(rng, trial, cfg, tol, f_over):
    """Pointwise dominance f1 <= f2 transfers to the mapped bounds.

    Structural function pairs; the override is ignored.
    """
    f1, f2 = _DOM_PAIRS[trial % len(_DOM_PAIRS)]
    k = int(rng.integers(2, 4))
    fam = _unital_family(rng, cfg, k)
    lo = max(_a_window(f1, cfg)[0], _a_window(f2, cfg)[0])
    hi = min(_a_window(f1, cfg)[1], _a_window(f2, cfg)[1])
    blo = _b_window(cfg)[0]
    ops_a = [_pd_from(rng, cfg.dim, max(lo, blo), hi, cfg.condition_cap) for _ in range(k)]
    ops_b = [_draw_b(rng, cfg) for _ in range(k)]
    sum_a = HermitianMatrix.zeros(fam.out_dim)
    sum_b = HermitianMatrix.zeros(fam.out_dim)
    rhs_g = HermitianMatrix.zeros(fam.out_dim)
    rhs_f = HermitianMatrix.zeros(fam.out_dim)
    for (w, phi), a, b in zip(fam, ops_a, ops_b):
        sum_a = sum_a + w * phi.apply(a.base)
        sum_b = sum_b + w * phi.apply(b.base)
        rhs_g = rhs_g + w * phi.apply(perspective(f2, a.base, b))
        rhs_f = rhs_f + w * phi.apply(apply_function(f2, a.base))
    m = _Margins(tol)
    m.loewner_le(perspective(f1, sum_a, PositiveDefiniteMatrix(sum_b)), rhs_g)
    m.loewner_le(apply_function(f1, sum_a), rhs_f)
    payload = lambda: {
        "f1": f1.id,
        "f2": f2.id,
        "maps": fam.to_json(),
        "A": [_rows(x) for x in ops_a],
        "B": [_rows(x) for x in ops_b],
    }
    return m, payload


def _chk_delta_nabla(rng, trial, cfg, tol, f_over):
    """Generalized perspective of the mixture vs the mixture functional."""
    f, h = _pick_fh(trial, f_over)
    n = int(rng.integers(2, 4))
    p = _prob_vector(rng, n)
    q = _prob_vector(rng, n)
    alo, ahi = _a_window(f, cfg)
    blo = _b_window(cfg)[0]
    ls = [hermitian_from_rng(rng, cfg.dim, max(alo, blo), ahi) for _ in range(n)]
    rs = [_draw_b(rng, cfg) for _ in range(n)]
    field = WeightedOperatorField([(1.0, a, b) for a, b in zip(ls, rs)])
    big_l = sum((p[i] * ls[i] for i in range(1, n)), p[0] * ls[0])
    big_r = sum((q[i] * rs[i].base for i in range(1, n)), q[0] * rs[0].base)
    m = _Margins(tol)
    m.loewner_le(f_delta_h(f, h, big_l, big_r), f_nabla_h(f, h, field, p, q))
    payload = lambda: {
        "f": f.id,
        "h": h.id,
        "p": p.tolist(),
        "q": q.tolist(),
        "L": [_rows(x) for x in ls],
        "R": [_rows(x) for x in rs],
    }
    return m, payload


def _chk_thm2_12_grad(rng, trial, cfg, tol, f_over):
    """Tangent-line lower bound for the divergence functional."""
    f = _pick(_DIFF_POOL, trial, f_over)
    n = int(rng.integers(2, 4))
    field = _random_field(rng, cfg, f, n)
    m = _Margins(tol)
    m.loewner_le(gradient_lower_bound(f, field), theta_divergence(f, field))
    return m, lambda: {"f": f.id, **_field_payload(field)}


def _jensen_chain(f, fam: MapField, ops_a, part_one, part_two):
    """The four-stage refinement chain for a unital map family.

    Returns the chain (m1, m2, m3, m4), the first block's perspective and
    the first block's share of m4.
    """
    dim_out = fam.out_dim
    eye = HermitianMatrix.identity(fam.in_dim)
    mapped_a = [w * phi.apply(a) for (w, phi), a in zip(fam, ops_a)]
    mapped_i = [w * phi.apply(eye) for w, phi in fam]
    mapped_f = [w * phi.apply(apply_function(f, a)) for (w, phi), a in zip(fam, ops_a)]

    def total(parts, ix=None):
        out = HermitianMatrix.zeros(dim_out)
        for i, x in enumerate(parts):
            if ix is None or i in ix:
                out = out + x
        return out

    m1 = apply_function(f, total(mapped_a))
    blocks = [
        perspective(f, total(mapped_a, ix), PositiveDefiniteMatrix(total(mapped_i, ix)))
        for ix in (part_one, part_two)
    ]
    m3 = HermitianMatrix.zeros(dim_out)
    for sa, si in zip(mapped_a, mapped_i):
        m3 = m3 + perspective(f, sa, PositiveDefiniteMatrix(si))
    chain = (m1, blocks[0] + blocks[1], m3, total(mapped_f))
    return chain, blocks[0], total(mapped_f, part_one)


def _chain_le(m: _Margins, chain) -> None:
    """Record every link of a Loewner chain, left to right."""
    for lhs, rhs in zip(chain, chain[1:]):
        m.loewner_le(lhs, rhs)


def _partition(rng, k: int):
    cut = int(rng.integers(1, k))
    perm = rng.permutation(k)
    return set(perm[:cut].tolist()), set(perm[cut:].tolist())


def _jensen_instance(rng, trial, cfg, f_over, unit_weights: bool = False):
    """f, a unital family, its operators, a bipartition and a payload thunk.

    With unit weights the family is congruences summing to the identity
    (Corollary 3.4); its payload keeps the congruence matrices under "C".
    """
    f = _pick(_CONVEX_POOL, trial, f_over)
    k = int(rng.integers(2, 4))
    fam = _unital_family(rng, cfg, k, unit_weights)
    alo, ahi = _a_window(f, cfg)
    ops_a = [hermitian_from_rng(rng, cfg.dim, alo, ahi) for _ in range(k)]
    parts = _partition(rng, k)

    def payload():
        if unit_weights:
            maps = {"C": [_rows(phi.matrix) for _, phi in fam]}
        else:
            maps = {"maps": fam.to_json()}
        return {"f": f.id, **maps, "A": [_rows(x) for x in ops_a], "t1": sorted(parts[0])}

    return f, fam, ops_a, parts, payload


def _chk_thm3_1_chain(rng, trial, cfg, tol, f_over, unit_weights=False):
    """Four-term refinement chain of the mapped Jensen inequality."""
    f, fam, ops_a, parts, payload = _jensen_instance(rng, trial, cfg, f_over, unit_weights)
    m = _Margins(tol)
    _chain_le(m, _jensen_chain(f, fam, ops_a, *parts)[0])
    return m, payload


def _chk_thm3_1_ii(rng, trial, cfg, tol, f_over):
    """Block deficit lower bound for the mapped Jensen gap."""
    f, fam, ops_a, parts, payload = _jensen_instance(rng, trial, cfg, f_over)
    (m1, _, _, m4), block_one, mapped_f_one = _jensen_chain(f, fam, ops_a, *parts)
    deficit_one = mapped_f_one - block_one
    m = _Margins(tol)
    m.loewner_le(HermitianMatrix.zeros(fam.out_dim), deficit_one)
    m.loewner_le(deficit_one, m4 - m1)
    return m, payload


_NORM_POOL = (_SQUARE, _INV, _NEG_LOG)


def _chk_thm3_8_norm(rng, trial, cfg, tol, f_over):
    """Scalar perspective of Ky Fan norms vs Ky Fan norms of the perspective."""
    f = _pick(_NORM_POOL, trial, f_over)
    a = _draw_b(rng, cfg)
    b = _draw_b(rng, cfg)
    g = perspective(f, a.base, b)
    sa = np.cumsum(singular_values(a.entries).values)
    sb = np.cumsum(singular_values(b.entries).values)
    sg = np.cumsum(singular_values(g.entries).values)
    m = _Margins(tol)
    for k in range(cfg.dim):
        x, y = float(sa[k]), float(sb[k])
        m.scalar_le(y * f.eval_scalar(x / y), float(sg[k]))
    return m, lambda: {"f": f.id, "A": _rows(a), "B": _rows(b)}


def _chk_lemma_jadjit(rng, trial, cfg, tol, f_over):
    """Separately convex two-variable calculus vs tensor quadratic forms."""
    a = _draw_b(rng, cfg)
    b = _draw_b(rng, cfg)
    mat = bivariate_calculus(_X_SQ_OVER_Y, a.base, b.base)
    m = _Margins(tol)
    pairs = []
    for _ in range(3):
        u = _unit_vector(rng, cfg.dim)
        v = _unit_vector(rng, cfg.dim)
        pairs.append((u, v))
        au = float((u.conj() @ a.entries @ u).real)
        bv = float((v.conj() @ b.entries @ v).real)
        w = np.kron(u, v)
        rhs = float((w.conj() @ mat.entries @ w).real)
        m.scalar_le(au * au / bv, rhs)
    payload = lambda: {
        "A": _rows(a),
        "B": _rows(b),
        "uv": [[_rows(u.reshape(1, -1)), _rows(v.reshape(1, -1))] for u, v in pairs],
    }
    return m, payload


def _chk_kl_suite(rng, trial, cfg, tol, f_over):
    """Operator relative-entropy bounds.

    (a) The combined-field term never exceeds the sum of per-entry terms
        (joint convexity plus homogeneity). (b, c) Tangent-line bounds for
        the two entropy generators, each cross-checked against the direct
        sandwich formula it equals analytically.
    """
    n = 2
    ls = [_draw_b(rng, cfg) for _ in range(n)]
    rs = [_draw_b(rng, cfg) for _ in range(n)]
    field = WeightedOperatorField([(1.0, l.base, r) for l, r in zip(ls, rs)])
    sum_l = field.weighted_sum_a()
    sum_r = field.weighted_sum_b()
    m = _Margins(tol)

    theta_log = theta_divergence(_NEG_LOG, field)
    direct_log = HermitianMatrix.zeros(cfg.dim)
    for l, r in zip(ls, rs):
        half, _ = r.sqrt_pair()
        l_inv = l.decomposition.rebuild(1.0 / l.decomposition.eigenvalues)
        inner = PositiveDefiniteMatrix(hermitian_part(half.entries @ l_inv.entries @ half.entries))
        log_inner = apply_function(_LOG, inner.base)
        direct_log = direct_log + hermitian_part(half.entries @ log_inner.entries @ half.entries)
    m.relative_close(theta_log, direct_log, 1e-9)
    m.loewner_le(perspective(_NEG_LOG, sum_l, PositiveDefiniteMatrix(sum_r)), theta_log)
    m.loewner_le(sum_r, theta_log + sum_l)

    theta_tlt = theta_divergence(_T_LOG_T, field)
    direct_tlt = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for l, r in zip(ls, rs):
        half, inv_half = r.sqrt_pair()
        inner = hermitian_part(inv_half.entries @ l.entries @ inv_half.entries)
        log_inner = apply_function(_LOG, inner)
        direct_tlt = direct_tlt + l.entries @ inv_half.entries @ log_inner.entries @ half.entries
    m.relative_close(theta_tlt, hermitian_part(direct_tlt), 1e-9)
    m.loewner_le(sum_l - sum_r, theta_tlt)
    payload = lambda: {"L": [_rows(x) for x in ls], "R": [_rows(x) for x in rs]}
    return m, payload


def _chk_scalar_csiszar(rng, trial, cfg, tol, f_over):
    """Dimension-one reduction to the scalar divergence sum and its bound."""
    f = _pick(_CONVEX_POOL, trial, f_over)
    n = int(rng.integers(2, 7))
    p = rng.uniform(0.1, 4.0, n)
    q = rng.uniform(0.1, 4.0, n)
    scalar_sum = float(np.sum(q * f.eval_array(p / q)))
    field = WeightedOperatorField(
        [(1.0, HermitianMatrix([[pi]]), PositiveDefiniteMatrix([[qi]])) for pi, qi in zip(p, q)]
    )
    theta = theta_divergence(f, field)
    theta_val = float(theta.entries[0, 0].real)
    m = _Margins(tol)
    if abs(theta_val - scalar_sum) > 1e-12 * max(1.0, abs(scalar_sum)):
        m.violated = True
    m.scalar_le(float(q.sum()) * f.eval_scalar(float(p.sum()) / float(q.sum())), scalar_sum)
    return m, lambda: {"f": f.id, "p": p.tolist(), "q": q.tolist()}


_CHAIN_LABELS = (
    "f_at_sum",
    "two_block_refinement",
    "per_map_perspective_sum",
    "sum_of_mapped_f",
)


def _example_chain():
    """The fixture's four chain matrices, computed, and their stored values."""
    ex = example_33()
    chain, _, _ = _jensen_chain(_SQUARE, ex.maps, ex.operators, *ex.partition)
    return chain, ex.expected_chain


def _chk_ex3_3_exact(rng, trial, cfg, tol, f_over):
    """Exact fixture: entrywise match plus strictly positive chain gaps."""
    computed, expected = _example_chain()
    m = _Margins(tol)
    for got, want in zip(computed, expected):
        m.entrywise_close(got, want, 1e-9)
    _chain_le(m, computed)
    return m, lambda: {"fixture": "compression_example", "labels": list(_CHAIN_LABELS)}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    """A registered check.

    `fn(rng, trial, cfg, tol, f_over)` returns the trial's `_Margins` and a
    thunk that builds its instance payload. `fixed` marks a check that
    reads none of its arguments, so every trial has the same outcome.
    """

    fn: Callable
    description: str
    fixed: bool = False


_REGISTRY: dict[str, _Check] = {
    "THM2_1": _Check(
        _chk_thm2_1,
        "perspective of the field's weighted sums <= weighted sum of perspectives",
    ),
    "COR2_2_SUBADD": _Check(
        partial(_chk_thm2_1, unit_weights=True),
        "perspective is subadditive over entrywise sums",
    ),
    "COR2_2_II": _Check(
        _chk_cor2_2_ii, "f(sum of left slots) <= perspective sum when right slots add to I"
    ),
    "COR2_3_SPLIT": _Check(
        _chk_cor2_3_split, "two-block split refines perspective <= divergence"
    ),
    "THM2_4_MIXTURE": _Check(
        _chk_thm2_4_mixture, "row perspectives of a mixed grid <= mixed grid perspectives"
    ),
    "THM2_6_CDJ_DELTA": _Check(
        _chk_thm2_6_delta,
        "generalized perspective Jensen bound under a subunital map family",
    ),
    "COR2_7_SINGLE": _Check(
        _chk_cor2_7_single, "single subunital map bound for both perspective forms"
    ),
    "EX2_8_POWER": _Check(
        _chk_ex2_8_power, "power-function single-map bounds in valid exponent regimes"
    ),
    "COR2_9_VECTOR": _Check(
        _chk_cor2_9_vector, "scalar generalized perspective of quadratic forms"
    ),
    "THM2_10_DOM": _Check(
        _chk_thm2_10_dom, "pointwise dominance f1 <= f2 transfers to mapped bounds"
    ),
    "THM_DELTA_NABLA": _Check(
        _chk_delta_nabla, "generalized perspective of mixtures <= mixture functional"
    ),
    "THM2_12_GRAD": _Check(
        _chk_thm2_12_grad, "tangent-line lower bound for the divergence functional"
    ),
    "THM3_1_CHAIN": _Check(
        _chk_thm3_1_chain, "four-term refinement chain of the mapped Jensen inequality"
    ),
    "THM3_1_II": _Check(
        _chk_thm3_1_ii, "block deficit lower bound for the mapped Jensen gap"
    ),
    "COR3_4_ISOM": _Check(
        partial(_chk_thm3_1_chain, unit_weights=True),
        "refinement chain for congruences summing to the identity",
    ),
    "THM3_8_NORM": _Check(
        _chk_thm3_8_norm, "scalar perspective of Ky Fan norms <= Ky Fan norms of perspective"
    ),
    "LEMMA_JADJIT": _Check(
        _chk_lemma_jadjit, "separately convex bivariate calculus vs tensor quadratic forms"
    ),
    "KL_SUITE": _Check(
        _chk_kl_suite, "operator relative-entropy sum bound and tangent bounds"
    ),
    "SCALAR_CSISZAR": _Check(
        _chk_scalar_csiszar, "dimension-one reduction to the scalar divergence sum"
    ),
    "EX3_3_EXACT": _Check(
        _chk_ex3_3_exact,
        "exact compression-example fixture with strict chain gaps",
        fixed=True,
    ),
}


def check_ids() -> list[str]:
    """Registered check ids in registry order."""
    return list(_REGISTRY)


def _check(check_id: str) -> _Check:
    try:
        return _REGISTRY[check_id]
    except KeyError:
        raise UnknownCheck(f"no check named {check_id!r}") from None


def check_description(check_id: str) -> str:
    return _check(check_id).description


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_check(
    check_id: str,
    gen: GenConfig,
    tol: ToleranceConfig = ToleranceConfig(),
    function: Optional[ScalarOperatorFunction] = None,
) -> CheckResult:
    """Run one registered check over gen.trials independent instances.

    `function` substitutes the sampled catalog function in checks that
    quantify over operator convex f, which is how non-operator-convex
    candidates are falsified.
    """
    check = _check(check_id)
    # A fixed check gives the same outcome on every trial: run it once.
    runs = 1 if check.fixed else gen.trials
    violations = 0
    worst_margin, worst_payload = math.inf, None
    for trial in range(runs):
        rng = _trial_rng(gen.seed, check_id, trial)
        margins, payload = check.fn(rng, trial, gen, tol, function)
        violations += margins.violated
        # Strict `<` keeps the first trial among equal margins; only the
        # worst trial's payload is ever built.
        if worst_payload is None or margins.worst < worst_margin:
            worst_margin, worst_payload = margins.worst, payload
    if check.fixed:
        violations *= gen.trials
    return CheckResult(
        check_id=check_id,
        trials=gen.trials,
        violations=violations,
        worst_margin=worst_margin,
        instance_digest_of_worst=_digest(worst_payload()),
    )


def _config_echo(ids, gen: GenConfig, tol: ToleranceConfig, function) -> dict:
    return {
        "suite": list(ids),
        "dim": gen.dim,
        "trials": gen.trials,
        "seed": gen.seed,
        "spectrum_range": list(gen.spectrum_range),
        "condition_cap": gen.condition_cap,
        "tol_abs": tol.abs,
        "tol_rel": tol.rel,
        "function": None if function is None else function.id,
    }


def run_suite(
    check_ids_arg: Sequence[str],
    gen: GenConfig,
    tol: ToleranceConfig = ToleranceConfig(),
    function: Optional[ScalarOperatorFunction] = None,
) -> SuiteReport:
    """Run several checks and aggregate a deterministic report."""
    ids = list(check_ids_arg)
    for cid in ids:
        _check(cid)
    start = time.perf_counter()
    results = tuple(run_check(cid, gen, tol, function) for cid in ids)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SuiteReport(_config_echo(ids, gen, tol, function), results, wall_ms)


@dataclass(frozen=True)
class ExampleReproduction:
    labels: tuple
    computed: tuple
    expected: tuple
    max_devs: tuple
    gaps: tuple

    @property
    def ok(self) -> bool:
        return max(self.max_devs) <= 1e-9 and min(self.gaps) > 0

    def to_json_dict(self) -> dict:
        return {
            "matrices": [
                {
                    "label": label,
                    "computed": array_to_rows(got.entries),
                    "expected": array_to_rows(want.entries),
                    "max_abs_dev": dev,
                }
                for label, got, want, dev in zip(
                    self.labels, self.computed, self.expected, self.max_devs
                )
            ],
            "gaps": list(self.gaps),
            "ok": self.ok,
        }


def reproduce_example(perturbation: float = 0.0) -> ExampleReproduction:
    """Recompute the exact fixture chain and compare with the stored values.

    `perturbation` shifts the first computed matrix and exists so the
    failure path can be exercised in tests.
    """
    computed, expected = _example_chain()
    if perturbation:
        computed = (
            computed[0] + perturbation * HermitianMatrix.identity(computed[0].dim),
        ) + computed[1:]
    devs = tuple(
        float(np.max(np.abs(got.entries - want.entries)))
        for got, want in zip(computed, expected)
    )
    gaps = tuple(
        float(np.linalg.eigvalsh(rhs.entries - lhs.entries)[0])
        for lhs, rhs in zip(computed, computed[1:])
    )
    return ExampleReproduction(_CHAIN_LABELS, computed, expected, devs, gaps)

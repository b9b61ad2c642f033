"""The inequality check registry and the trial loop that runs it.

Every registered check draws random instances from a per-trial RNG stream
keyed by (seed, check id, trial index), builds both sides of one operator
inequality, and records the worst Loewner margin. A violation is a margin
below the combined abs+rel tolerance; near-zero margins count as equality
because several of the inequalities degenerate to equalities for affine f.

A check is a `draw`, run serially per trial, and an `evaluate` over the
list of draws. The checks in `batched` draw only and evaluate every trial
at once on stacked arrays; the ones here still build and compare one
trial at a time, and plug in with a draw that holds the whole trial for
an evaluate that runs it.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import kernels as K
from .batched import (
    _by_shape,
    _draw_cor2_2_ii,
    _draw_cor2_3_split,
    _draw_jensen,
    _draw_thm2_1,
    _draw_thm2_4_mixture,
    _draw_thm2_12_grad,
    _eval_cor2_2_ii,
    _eval_cor2_3_split,
    _eval_jensen,
    _eval_thm2_1,
    _eval_thm2_4_mixture,
    _eval_thm2_12_grad,
    _jensen_chain,
)
from .errors import BadRange, UnknownCheck
from .funcatalog import ScalarOperatorFunction, builtin
from .hermitian import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    ToleranceConfig,
    apply_function,
    array_to_rows,
    hermitian_from_rng,
    hermitian_part,
    loewner_compare,
)
from .norms import singular_values
from .perspective import (
    WeightedOperatorField,
    bivariate_calculus,
    f_delta_h,
    f_nabla_h,
    perspective,
    theta_divergence,
)
from .posmap import MapField, example_33
from .sampling import (
    _CONVEX_POOL,
    _DOM_PAIRS,
    _LOG,
    _NEG_LOG,
    _NORM_POOL,
    _SQUARE,
    _T_LOG_T,
    _X_SQ_OVER_Y,
    _a_window,
    _b_window,
    _congruence_family,
    _draw_b,
    _pd_from,
    _pick,
    _pick_fh,
    _prob_vector,
    _single_subunital_map,
    _trial_rng,
    _unit_vector,
)

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
# Check implementations
# ---------------------------------------------------------------------------


def _rows(m) -> list:
    if isinstance(m, PositiveDefiniteMatrix):
        m = m.base
    if isinstance(m, HermitianMatrix):
        return array_to_rows(m.entries)
    return array_to_rows(np.asarray(m))


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
    ops = np.stack([a.entries for a in ex.operators])[None]
    t1 = np.array([[i in ex.partition[0] for i in range(len(ex.operators))]])

    def mapped(x):
        return np.stack(
            [(w * phi.apply(HermitianMatrix._wrap(xi))).entries for (w, phi), xi in zip(ex.maps, x[0])]
        )[None]

    chain, _, _ = _jensen_chain([_SQUARE], mapped, ops, t1)
    return tuple(HermitianMatrix._wrap(m[0]) for m in chain), ex.expected_chain


def _chain_le(m: _Margins, chain) -> None:
    """Record every link of a Loewner chain, left to right."""
    for lhs, rhs in zip(chain, chain[1:]):
        m.loewner_le(lhs, rhs)


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


class _Outcome(NamedTuple):
    worst: float
    violated: bool


def _hold(fn, rng, trial, cfg, f_over):
    """The draw of a check that still builds and compares one trial at a
    time: the whole trial, held until evaluate supplies the tolerance."""
    return partial(fn, rng, trial, cfg, f_over=f_over)


def _run_held(records, tol):
    """Run held trials in order, keeping only the payload thunk of the
    worst trial so far (by run_check's rule), so that one trial's objects
    at most outlive it."""
    worst = np.empty(len(records))
    violated = np.empty(len(records), dtype=bool)
    payloads = [None] * len(records)
    keep = 0
    for i, record in enumerate(records):
        margins, payload = record(tol)
        worst[i], violated[i] = margins.worst, margins.violated
        if i == 0 or margins.worst < worst[keep]:
            payloads[keep], payloads[i], keep = None, payload, i
    return worst, violated, payloads


@dataclass(frozen=True)
class _Check:
    """A registered check.

    `draw(rng, trial, cfg, f_over)` makes one trial's RNG calls and
    returns its record. `evaluate(records, tol)` returns the per-trial
    worst margins, violation flags and payload thunks of a list of
    records. `fixed` marks a check that reads none of its arguments, so
    every trial has the same outcome.
    """

    draw: Callable
    evaluate: Callable
    description: str
    fixed: bool = False

    def fn(self, rng, trial, cfg, tol, f_over):
        """One trial, as a batch of one: its margins and payload thunk."""
        worst, violated, payloads = self.evaluate([self.draw(rng, trial, cfg, f_over)], tol)
        return _Outcome(float(worst[0]), bool(violated[0])), payloads[0]


def _held(fn, description: str, fixed: bool = False) -> _Check:
    """A check whose `fn(rng, trial, cfg, tol, f_over)` runs one whole trial."""
    return _Check(partial(_hold, fn), _run_held, description, fixed)


_REGISTRY: dict[str, _Check] = {
    "THM2_1": _Check(
        _draw_thm2_1,
        _by_shape(_eval_thm2_1),
        "perspective of the field's weighted sums <= weighted sum of perspectives",
    ),
    "COR2_2_SUBADD": _Check(
        partial(_draw_thm2_1, unit_weights=True),
        _by_shape(_eval_thm2_1),
        "perspective is subadditive over entrywise sums",
    ),
    "COR2_2_II": _Check(
        _draw_cor2_2_ii,
        _by_shape(_eval_cor2_2_ii),
        "f(sum of left slots) <= perspective sum when right slots add to I",
    ),
    "COR2_3_SPLIT": _Check(
        _draw_cor2_3_split,
        _by_shape(_eval_cor2_3_split),
        "two-block split refines perspective <= divergence",
    ),
    "THM2_4_MIXTURE": _Check(
        _draw_thm2_4_mixture,
        _by_shape(_eval_thm2_4_mixture),
        "row perspectives of a mixed grid <= mixed grid perspectives",
    ),
    "THM2_6_CDJ_DELTA": _held(
        _chk_thm2_6_delta,
        "generalized perspective Jensen bound under a subunital map family",
    ),
    "COR2_7_SINGLE": _held(
        _chk_cor2_7_single, "single subunital map bound for both perspective forms"
    ),
    "EX2_8_POWER": _held(
        _chk_ex2_8_power, "power-function single-map bounds in valid exponent regimes"
    ),
    "COR2_9_VECTOR": _held(
        _chk_cor2_9_vector, "scalar generalized perspective of quadratic forms"
    ),
    "THM2_10_DOM": _held(
        _chk_thm2_10_dom, "pointwise dominance f1 <= f2 transfers to mapped bounds"
    ),
    "THM_DELTA_NABLA": _held(
        _chk_delta_nabla, "generalized perspective of mixtures <= mixture functional"
    ),
    "THM2_12_GRAD": _Check(
        _draw_thm2_12_grad,
        _by_shape(_eval_thm2_12_grad),
        "tangent-line lower bound for the divergence functional",
    ),
    "THM3_1_CHAIN": _Check(
        _draw_jensen,
        _by_shape(_eval_jensen),
        "four-term refinement chain of the mapped Jensen inequality",
    ),
    "THM3_1_II": _Check(
        _draw_jensen,
        _by_shape(partial(_eval_jensen, full=False)),
        "block deficit lower bound for the mapped Jensen gap",
    ),
    "COR3_4_ISOM": _Check(
        partial(_draw_jensen, unit_weights=True),
        _by_shape(partial(_eval_jensen, unit_weights=True)),
        "refinement chain for congruences summing to the identity",
    ),
    "THM3_8_NORM": _held(
        _chk_thm3_8_norm, "scalar perspective of Ky Fan norms <= Ky Fan norms of perspective"
    ),
    "LEMMA_JADJIT": _held(
        _chk_lemma_jadjit, "separately convex bivariate calculus vs tensor quadratic forms"
    ),
    "KL_SUITE": _held(_chk_kl_suite, "operator relative-entropy sum bound and tangent bounds"),
    "SCALAR_CSISZAR": _held(
        _chk_scalar_csiszar, "dimension-one reduction to the scalar divergence sum"
    ),
    "EX3_3_EXACT": _held(
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
    # Trials are drawn and evaluated in chunks that one stacked call takes,
    # so memory stays bounded however many trials run.
    for chunk in K.chunks(runs, gen.dim):
        records = [
            check.draw(_trial_rng(gen.seed, check_id, trial), trial, gen, function)
            for trial in chunk
        ]
        worst, violated, payloads = check.evaluate(records, tol)
        violations += int(np.count_nonzero(violated))
        if chunk.start == 0:
            worst_payload = payloads[0]
        # Strict `<` from inf keeps the first trial among equal margins, and
        # trial 0 stands until one is smaller; only the worst trial's
        # payload is ever built.
        for margin, payload in zip(worst.tolist(), payloads):
            if margin < worst_margin:
                worst_margin, worst_payload = margin, payload
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

"""The inequality check registry and the runner of its checks.

Every registered check draws random instances from a per-trial RNG stream
keyed by (seed, check id, trial index), builds both sides of one operator
inequality, and records the worst Loewner (or scalar) margin. A violation
is a margin below the combined abs+rel tolerance; near-zero margins count
as equality because several of the inequalities degenerate to equalities
for affine f.

`records` and `evaluate` are the one way into a check: `records` draws
the given trials' records, each from its own stream (a check's `draw`, in
`batched`, runs serially per trial), and `evaluate` takes any list of
records at once, so a single trial replays as a batch of one. The trial
loop (`kernels.run_trials`) drives both a chunk at a time for
`run_check`. The convexity falsifier is THM2_1 on two-entry fields with
identity right sides (`convexity_falsifier`): its records come from its
own streams, and it runs through the same `evaluate` and trial loop.
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

from . import batched as B
from . import kernels as K
from .errors import BadRange, UnknownCheck
from .funcatalog import ScalarOperatorFunction, sampling_window
from .hermitian import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    ToleranceConfig,
    array_to_rows,
    raw_spectrum,
)

__all__ = [
    "GenConfig",
    "CheckResult",
    "FalsifierReport",
    "SuiteReport",
    "ExampleReproduction",
    "check_ids",
    "check_description",
    "convexity_falsifier",
    "evaluate",
    "random_hermitian",
    "random_pd",
    "records",
    "run_check",
    "run_suite",
    "reproduce_example",
]


# The most trials one check may run. `registry_sweep` traffic (20 checks
# at dims 2-5, 100 trials each) ran 4,550 trials per second of CPU time on
# one core of a 2-vCPU machine, so 2 cores run 4,550 * 2 * 86,400 = 7.9e8
# trials in a day; the bound is that, rounded down.
MAX_TRIALS = 500_000_000


def _real(name: str, value):
    """`value`, a real number that is not a bool, with a numpy number
    stored as a Python one so that the report echoes it as JSON; BadRange
    otherwise. A bool would run as 0 or 1 while the report echoed it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise BadRange(f"{name} must be a real number, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def _integer(name: str, value, error=BadRange) -> int:
    """`value`, an integer that is not a bool, as a Python int, so that a
    numpy integer echoes as JSON; `error` otherwise. A bool is an int to
    Python, and a float seed would run its integer part's draws while the
    report echoed the float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GenConfig:
    """Instance generator settings; fully determines every random draw."""

    dim: int = 3
    spectrum_range: tuple = (0.1, 4.0)
    condition_cap: float = 1e4
    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        for name in ("dim", "seed", "trials"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 2 <= self.dim <= 8:
            raise BadRange(f"dim must be within 2..8, got {self.dim}")
        try:
            lo, hi = self.spectrum_range
        except (TypeError, ValueError):
            raise BadRange(f"spectrum_range must be a pair, got {self.spectrum_range!r}") from None
        lo, hi = _real("spectrum_range lo", lo), _real("spectrum_range hi", hi)
        object.__setattr__(self, "spectrum_range", (lo, hi))
        object.__setattr__(self, "condition_cap", _real("condition_cap", self.condition_cap))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise BadRange(f"spectrum_range must be finite, got {self.spectrum_range}")
        # lo == hi is allowed, but only `random_hermitian` and `random_pd`
        # honour it; every check that reads a window refuses it with BadRange.
        if not lo <= hi:
            raise BadRange(f"spectrum_range needs lo <= hi, got {self.spectrum_range}")
        if not self.condition_cap >= 1:
            raise BadRange(f"condition_cap must be >= 1, got {self.condition_cap}")
        if self.seed < 0:
            raise BadRange("seed must be nonnegative")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise BadRange(f"trials must be within 1..{MAX_TRIALS}, got {self.trials}")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    trials: int
    violations: int
    worst_margin: float
    instance_digest_of_worst: str

    def to_json_dict(self) -> dict:
        """The check's report entry. A worst margin that is not finite (inf
        when every margin was NaN) is null: JSON has no number for it."""
        return {
            "id": self.check_id,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin if math.isfinite(self.worst_margin) else None,
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
    """The RNG stream of one trial of a registered check."""
    key = zlib.crc32(check_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), key, int(trial)]))


def _random_matrix(cfg: GenConfig, trial: int, cond_cap=None) -> HermitianMatrix:
    """`raw_spectrum` in cfg.spectrum_range, capped at `cond_cap` if
    given, built by `K.build`.

    Fully determined by (cfg.seed, trial) and the draw order inside.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), int(trial)]))
    (built,) = K.build((cond_cap, [raw_spectrum(rng, cfg.dim, *cfg.spectrum_range)]))
    return HermitianMatrix._wrap(built[0])


def random_hermitian(cfg: GenConfig, trial: int) -> HermitianMatrix:
    """Random Hermitian matrix with spectrum inside cfg.spectrum_range."""
    return _random_matrix(cfg, trial)


def random_pd(cfg: GenConfig, trial: int) -> PositiveDefiniteMatrix:
    """Random strictly positive matrix; condition number capped by rescaling."""
    lo = cfg.spectrum_range[0]
    if lo <= 0:
        raise BadRange(f"random_pd needs spectrum_range.lo > 0, got {lo}")
    return PositiveDefiniteMatrix(_random_matrix(cfg, trial, cfg.condition_cap))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    """A registered check.

    `draw(rng, trial, cfg, f)` makes one trial's RNG calls and returns
    its record, for the trial's function f. `evaluate(records, tol)`
    returns the (T, L) link margins and tolerances of T records, which
    `kernels.run_trials` folds, and `payload(i)`, which builds record i's
    payload when called. Both are reached only through `records` and
    `evaluate`. `pool` is the function pool the check cycles by trial
    index, and None for a check whose functions are fixed by the check
    itself: it ignores an override, and its draw gets f = None. Every
    check runs all of its trials, including EX3_3_EXACT, whose fixture
    reads no draw.
    """

    draw: Callable
    evaluate: Callable
    description: str
    pool: Optional[tuple]


_REGISTRY: dict[str, _Check] = {
    check_id: _Check(draw, evaluate, description, pool)
    for check_id, pool, draw, evaluate, description in (
        ("THM2_1", B._CONVEX_POOL, B._draw_thm2_1, B._eval_thm2_1,
         "perspective of the field's weighted sums <= weighted sum of perspectives"),
        ("COR2_2_SUBADD", B._CONVEX_POOL, partial(B._draw_thm2_1, unit_weights=True),
         B._eval_thm2_1, "perspective is subadditive over entrywise sums"),
        ("COR2_2_II", B._CONVEX_POOL, B._draw_cor2_2_ii, B._eval_cor2_2_ii,
         "f(sum of left slots) <= perspective sum when right slots add to I"),
        ("COR2_3_SPLIT", B._CONVEX_POOL, partial(B._draw_thm2_1, split=True),
         partial(B._eval_thm2_1, split=True), "two-block split refines perspective <= divergence"),
        ("THM2_4_MIXTURE", B._CONVEX_POOL, B._draw_thm2_4_mixture, B._eval_thm2_4_mixture,
         "row perspectives of a mixed grid <= mixed grid perspectives"),
        ("THM2_6_CDJ_DELTA", B._F0_POOL, B._draw_thm2_6, B._eval_thm2_6,
         "generalized perspective Jensen bound under a subunital map family"),
        ("COR2_7_SINGLE", B._F0_POOL, B._draw_cor2_7, B._eval_single_map,
         "single subunital map bound for both perspective forms"),
        ("EX2_8_POWER", None, B._draw_ex2_8, partial(B._eval_single_map, perspective=False),
         "power-function single-map bounds in valid exponent regimes"),
        ("COR2_9_VECTOR", B._F0_POOL, B._draw_cor2_9, B._eval_cor2_9,
         "scalar generalized perspective of quadratic forms"),
        ("THM2_10_DOM", None, B._draw_thm2_10, B._eval_thm2_10,
         "pointwise dominance f1 <= f2 transfers to mapped bounds"),
        ("THM_DELTA_NABLA", B._F0_POOL, B._draw_delta_nabla, B._eval_delta_nabla,
         "generalized perspective of mixtures <= mixture functional"),
        ("THM2_12_GRAD", B._DIFF_POOL, B._draw_thm2_12_grad, B._eval_thm2_12_grad,
         "tangent-line lower bound for the divergence functional"),
        ("THM3_1_CHAIN", B._CONVEX_POOL, B._draw_jensen, B._eval_jensen,
         "four-term refinement chain of the mapped Jensen inequality"),
        ("THM3_1_II", B._CONVEX_POOL, B._draw_jensen, partial(B._eval_jensen, full=False),
         "block deficit lower bound for the mapped Jensen gap"),
        ("COR3_4_ISOM", B._CONVEX_POOL, partial(B._draw_jensen, unit_weights=True),
         partial(B._eval_jensen, unit_weights=True),
         "refinement chain for congruences summing to the identity"),
        ("THM3_8_NORM", B._NORM_POOL, B._draw_thm3_8, B._eval_thm3_8,
         "scalar perspective of Ky Fan norms <= Ky Fan norms of perspective"),
        ("LEMMA_JADJIT", None, B._draw_lemma_jadjit, B._eval_lemma_jadjit,
         "separately convex bivariate calculus vs tensor quadratic forms"),
        ("KL_SUITE", None, B._draw_kl, B._eval_kl,
         "operator relative-entropy sum bound and tangent bounds"),
        ("SCALAR_CSISZAR", B._CONVEX_POOL, B._draw_scalar_csiszar, B._eval_scalar_csiszar,
         "dimension-one reduction to the scalar divergence sum"),
        ("EX3_3_EXACT", None, B._draw_example, B._eval_example,
         "exact compression-example fixture with strict chain gaps"),
    )
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


def records(check_id: str, gen: GenConfig, function=None, trials=None) -> list:
    """The draw records of a check's trials `trials`, an iterable of trial
    indices, all of range(gen.trials) by default, in order. Trial t is
    drawn from its own stream (seed, check id, t), so any trial can be
    drawn alone; an index that is not an integer (a bool or a float
    included) or lies outside range(gen.trials) raises BadRange.
    Trial t samples `function` if one is given and entry t of the check's
    pool if not, which consumes no RNG output; a check with no pool gets
    None (`_Check`)."""
    check = _check(check_id)
    trials = range(gen.trials) if trials is None else [_integer("trial", t) for t in trials]
    for t in trials:
        if t not in range(gen.trials):
            raise BadRange(f"trial {t!r} is outside the run's {gen.trials} trials")
    fs = (None,) if check.pool is None else check.pool if function is None else (function,)
    return [
        check.draw(_trial_rng(gen.seed, check_id, t), t, gen, fs[t % len(fs)]) for t in trials
    ]


def evaluate(check_id: str, records: list, tol: ToleranceConfig = ToleranceConfig()) -> tuple:
    """(margins, used, payload) of a check's records: the (T, L) link
    margins and tolerances, which the trial loop folds
    (`kernels.run_trials`), and `payload(i)`, which builds the payload of
    record i when called. An empty list raises BadRange: it has no margin
    to fold."""
    check = _check(check_id)
    if not records:
        raise BadRange("evaluate needs at least one record")
    return check.evaluate(records, tol)


def run_check(
    check_id: str,
    gen: GenConfig,
    tol: ToleranceConfig = ToleranceConfig(),
    function: Optional[ScalarOperatorFunction] = None,
) -> CheckResult:
    """Run one registered check over gen.trials independent instances.

    `function` substitutes the sampled catalog function in checks that
    quantify over operator convex f, the checks that declare a pool
    (`_Check`), which is how non-operator-convex candidates are falsified.
    """
    draw = partial(records, check_id, gen, function)
    # The trial loop binds the worst trial's index to its chunk's payload
    # function; only that payload is ever built.
    violations, worst_margin, _, worst_payload = K.run_trials(
        gen.trials, gen.dim, draw, partial(evaluate, check_id), tol
    )
    return CheckResult(
        check_id=check_id,
        trials=gen.trials,
        violations=violations,
        worst_margin=worst_margin,
        instance_digest_of_worst=_digest(worst_payload()),
    )


@dataclass(frozen=True)
class FalsifierReport:
    function_id: str
    dim: int
    trials: int
    violations: int
    worst_margin: float
    worst_trial: int


def convexity_falsifier(
    f: ScalarOperatorFunction,
    dim: int,
    trials: int,
    seed: int,
    tol: ToleranceConfig = ToleranceConfig(),
) -> FalsifierReport:
    """Hunt for Loewner violations of f(tA + (1 - t)B) <= t f(A) + (1 - t) f(B),
    Jensen's operator inequality, which holds for every t in [0, 1] and
    all A, B with spectra in dom(f) exactly when f is operator convex.

    Samples Hermitian pairs with spectra inside dom(f) and mixing ratios t;
    a reported violation refutes the convexity claim, while a clean report
    proves nothing. Each trial is THM2_1 on the field (A, I), (B, I) with
    weights (t, 1 - t) (`_convexity_records`), run through the lab's trial
    loop, so a NaN margin is a violation and never the worst, and
    worst_trial is 0 unless a margin is below inf.

    `dim`, `trials` and `seed` are integers, not bools, as for
    `GenConfig`, with dim >= 2, seed >= 0 and 1 <= trials <= MAX_TRIALS;
    ValueError otherwise.
    """
    dim, trials, seed = (
        _integer(name, value, ValueError)
        for name, value in (("dim", dim), ("trials", trials), ("seed", seed))
    )
    if dim < 2:
        raise ValueError("falsifier needs dim >= 2")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"falsifier needs trials within 1..{MAX_TRIALS}, got {trials}")
    if seed < 0:
        raise ValueError(f"falsifier needs seed >= 0, got {seed}")
    violations, worst, worst_trial, _ = K.run_trials(
        trials, dim, partial(_convexity_records, f, seed, dim), partial(evaluate, "THM2_1"), tol
    )
    return FalsifierReport(f.id, dim, trials, violations, worst, worst_trial)


def _convexity_records(f, seed: int, dim: int, trials) -> list:
    """The falsifier's trials `trials` as THM2_1 records: the spectra of A
    and B (`raw_spectrum` in f's `sampling_window`) and the mixing ratio t
    of each trial, drawn from its stream (seed, trial), as the field
    (A, I), (B, I) with weights (t, 1 - t). A spectrum of ones with a zero
    Gaussian builds I exactly (`kernels.from_spectrum`)."""
    lo, hi = sampling_window(f.domain)
    one = np.ones(dim), np.zeros((2, dim, dim))
    out = []
    for trial in trials:
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        a, b = raw_spectrum(rng, dim, lo, hi), raw_spectrum(rng, dim, lo, hi)
        t = float(rng.uniform(0.0, 1.0))
        out.append(B._Draw(f, np.array([t, 1.0 - t]), (None, [a, b]), (None, [one, one])))
    return out


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
        return max(self.max_devs) <= B._EXAMPLE_TOL and min(self.gaps) > 0

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


def reproduce_example() -> ExampleReproduction:
    """Recompute the exact fixture chain and compare with the stored values.

    The gaps are the chain's Loewner margins, as the EX3_3_EXACT check
    computes them.
    """
    computed, expected, devs, gaps, _ = B._example(ToleranceConfig())
    return ExampleReproduction(
        B._CHAIN_LABELS,
        tuple(HermitianMatrix._wrap(m) for m in computed),
        tuple(HermitianMatrix._wrap(m) for m in expected),
        tuple(devs.tolist()),
        tuple(gaps.tolist()),
    )

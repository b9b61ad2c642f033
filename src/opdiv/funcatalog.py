"""Catalog of scalar operator convex/concave functions.

Each entry carries its domain, an optional derivative, and convexity
metadata. Operator convexity of user-supplied functions cannot be
decided from a black box, so the flags are claims; the sampling-based
falsifier below can refute them but never certify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import DomainViolation, ParamOutOfRange, UnknownFunction
from . import kernels
from .hermitian import ToleranceConfig, raw_spectrum


@dataclass(frozen=True)
class Interval:
    """A real interval with open/closed endpoint flags."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    @classmethod
    def real_line(cls) -> "Interval":
        return cls(-math.inf, math.inf, False, False)

    @classmethod
    def positive(cls) -> "Interval":
        return cls(0.0, math.inf, False, False)

    @classmethod
    def nonnegative(cls) -> "Interval":
        return cls(0.0, math.inf, True, False)

    def contains(self, x: float) -> bool:
        above = x >= self.lo if self.lo_closed else x > self.lo
        below = x <= self.hi if self.hi_closed else x < self.hi
        return above and below

    def clamp_spectrum(self, values: np.ndarray, tol) -> np.ndarray:
        """Clamp eigenvalues within `tol` of a closed endpoint onto it.

        Values farther outside, or on the wrong side of an open endpoint,
        raise DomainViolation for the first such value in index order. NaN
        passes through. `tol` is a scalar or an array that broadcasts
        against `values`, such as one tolerance per row of a stack.
        """
        out = np.array(values, dtype=float)
        # Past a closed endpoint, or at or past an open one.
        low = out < self.lo if self.lo_closed else out <= self.lo
        high = out > self.hi if self.hi_closed else out >= self.hi
        if low.any() or high.any():
            with np.errstate(invalid="ignore"):
                bad = (low & ~(self.lo_closed & (self.lo - out <= tol))) | (
                    high & ~(self.hi_closed & (out - self.hi <= tol))
                )
            if bad.any():
                raise DomainViolation(out.flat[np.flatnonzero(bad)[0]], self)
            out[low] = self.lo
            out[high] = self.hi
        return out

    def __repr__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class FunctionFlags:
    claims_operator_convex: bool = False
    claims_operator_concave: bool = False
    value_at_zero_nonpositive: bool = False
    strictly_positive: bool = False


@dataclass(frozen=True)
class ScalarOperatorFunction:
    """Scalar function with domain, optional derivative and convexity claims.

    `eval` must accept numpy arrays elementwise. `strictly_positive` means
    the function maps strictly positive inputs to strictly positive values,
    which is what the generalized-perspective machinery requires of h.
    """

    id: str
    domain: Interval
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    flags: FunctionFlags = field(default_factory=FunctionFlags)

    def eval_array(self, x) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(x, dtype=float)), dtype=float)

    def eval_scalar(self, x: float) -> float:
        return float(self.eval(np.asarray(x, dtype=float)))

    def deriv_scalar(self, x: float) -> float:
        return float(self.deriv(np.asarray(x, dtype=float)))


def _t_log_t(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
    return out


def _power_domain(beta: float) -> Interval:
    return Interval.positive() if beta < 0 else Interval.nonnegative()


def _power_factory(beta: float) -> ScalarOperatorFunction:
    if not -1.0 <= beta <= 2.0:
        raise ParamOutOfRange(
            f"power exponent {beta} outside [-1, 2]; operator convexity/concavity "
            "claims are only valid for beta in [-1, 0] u [0, 1] u [1, 2]"
        )
    domain = _power_domain(beta)
    flags = FunctionFlags(
        claims_operator_convex=(-1.0 <= beta <= 0.0) or (1.0 <= beta <= 2.0),
        claims_operator_concave=0.0 <= beta <= 1.0,
        value_at_zero_nonpositive=beta > 0,
        strictly_positive=True,
    )
    return ScalarOperatorFunction(
        id=f"power({beta:g})",
        domain=domain,
        eval=lambda t, b=beta: np.asarray(t, dtype=float) ** b,
        deriv=lambda t, b=beta: b * np.asarray(t, dtype=float) ** (b - 1.0),
        flags=flags,
    )


# numpy computes x ** b for these scalar exponents with other ufuncs
# (reciprocal, sqrt, square), whose results differ from pow's in the last bit.
_FAST_EXPONENTS = (-1.0, 0.5, 2.0)


@dataclass(frozen=True, eq=False)  # identity comparison: the exponents are an array
class PowerFamily:
    """power(beta) with one exponent per row: for the stacked kernels,
    row t of a stack of eigenvalues is raised to exponents[t].

    Each row gets the domain, clamping and bits of its own
    `builtin("power", [beta])`, so a stack needs no function object per
    row and evaluates in one call. A family of one row has that
    function's id. Every power is strictly positive, the one flag the
    generalized perspective reads of h.
    """

    exponents: np.ndarray
    flags: ClassVar[FunctionFlags] = FunctionFlags(strictly_positive=True)

    @property
    def id(self) -> str:
        return "power(" + ",".join(f"{b:g}" for b in self.exponents.tolist()) + ")"

    @property
    def domain(self) -> "PowerFamily":
        """The family clamps each row onto its own power's domain."""
        return self

    def __getitem__(self, rows) -> "PowerFamily":
        return PowerFamily(self.exponents[rows])

    def clamp_spectrum(self, values: np.ndarray, tol) -> np.ndarray:
        """`Interval.clamp_spectrum` of each row onto its power's domain;
        `tol` holds one tolerance per row."""
        out = np.array(values, dtype=float)
        negative = self.exponents < 0
        for rows in (negative, ~negative):
            if rows.any():
                domain = _power_domain(self.exponents[rows][0])
                out[rows] = domain.clamp_spectrum(out[rows], tol[rows])
        return out

    def eval_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = x ** self.exponents.reshape((-1,) + (1,) * (x.ndim - 1))
        for beta in _FAST_EXPONENTS:
            rows = self.exponents == beta
            if rows.any():
                out[rows] = x[rows] ** beta
        return out


def _affine_factory(a: float, b: float) -> ScalarOperatorFunction:
    flags = FunctionFlags(
        claims_operator_convex=True,
        claims_operator_concave=True,
        value_at_zero_nonpositive=b <= 0,
        strictly_positive=(a >= 0 and b > 0) or (a > 0 and b >= 0),
    )
    return ScalarOperatorFunction(
        id=f"affine({a:g},{b:g})",
        domain=Interval.real_line(),
        eval=lambda t, a=a, b=b: a * np.asarray(t, dtype=float) + b,
        deriv=lambda t, a=a: np.full_like(np.asarray(t, dtype=float), a),
        flags=flags,
    )


_SIMPLE_BUILTINS = {
    "neg_log": lambda: ScalarOperatorFunction(
        id="neg_log",
        domain=Interval.positive(),
        eval=lambda t: -np.log(t),
        deriv=lambda t: -1.0 / np.asarray(t, dtype=float),
        flags=FunctionFlags(claims_operator_convex=True),
    ),
    "t_log_t": lambda: ScalarOperatorFunction(
        id="t_log_t",
        domain=Interval.nonnegative(),
        eval=_t_log_t,
        deriv=lambda t: np.log(t) + 1.0,
        flags=FunctionFlags(claims_operator_convex=True, value_at_zero_nonpositive=True),
    ),
    "square": lambda: ScalarOperatorFunction(
        id="square",
        domain=Interval.real_line(),
        eval=lambda t: np.asarray(t, dtype=float) ** 2,
        deriv=lambda t: 2.0 * np.asarray(t, dtype=float),
        flags=FunctionFlags(
            claims_operator_convex=True,
            value_at_zero_nonpositive=True,
            strictly_positive=True,
        ),
    ),
    "identity": lambda: ScalarOperatorFunction(
        id="identity",
        domain=Interval.real_line(),
        eval=lambda t: np.asarray(t, dtype=float),
        deriv=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        flags=FunctionFlags(
            claims_operator_convex=True,
            claims_operator_concave=True,
            value_at_zero_nonpositive=True,
            strictly_positive=True,
        ),
    ),
}


def builtin(func_id: str, params: Sequence[float] = ()) -> ScalarOperatorFunction:
    """Construct a catalog function by id.

    Supported: power(beta) for beta in [-1, 2], neg_log, t_log_t, square,
    identity, affine(a, b).
    """
    params = [float(p) for p in params]
    if func_id == "power":
        if len(params) != 1:
            raise ParamOutOfRange("power expects exactly one exponent parameter")
        return _power_factory(params[0])
    if func_id == "affine":
        if len(params) != 2:
            raise ParamOutOfRange("affine expects parameters (a, b)")
        return _affine_factory(params[0], params[1])
    maker = _SIMPLE_BUILTINS.get(func_id)
    if maker is None:
        raise UnknownFunction(f"no catalog function named {func_id!r}")
    if params:
        raise ParamOutOfRange(f"{func_id} takes no parameters")
    return maker()


def quartic() -> ScalarOperatorFunction:
    """t^4: scalar convex but not operator convex. Falsification fodder."""
    return ScalarOperatorFunction(
        id="quartic",
        domain=Interval.real_line(),
        eval=lambda t: np.asarray(t, dtype=float) ** 4,
        deriv=lambda t: 4.0 * np.asarray(t, dtype=float) ** 3,
        flags=FunctionFlags(),
    )


def from_spec(spec: dict) -> ScalarOperatorFunction:
    """Build a function from {"id": ..., "params": [...]} JSON."""
    if not isinstance(spec, dict):
        raise UnknownFunction(f"function spec must be a JSON object, got {spec!r}")
    func_id = spec.get("id")
    if not isinstance(func_id, str):
        raise UnknownFunction(f"function spec needs a string id, got {spec!r}")
    params = spec.get("params", [])
    if not isinstance(params, list) or not all(
        isinstance(p, (int, float)) and not isinstance(p, bool) and math.isfinite(p)
        for p in params
    ):
        raise ParamOutOfRange(f"function params must be a list of finite numbers, got {params!r}")
    if func_id == "quartic":
        if params:
            raise ParamOutOfRange("quartic takes no parameters")
        return quartic()
    return builtin(func_id, params)


def sampling_window(
    domain: Interval,
    lo_default: float = -2.0,
    hi_default: float = 4.0,
    inset: float = 0.1,
) -> tuple[float, float]:
    """A finite spectrum window inside `domain` suitable for sampling."""
    lo = domain.lo if math.isfinite(domain.lo) else lo_default
    if not domain.lo_closed:
        lo += inset
    hi = domain.hi if math.isfinite(domain.hi) else hi_default
    if not domain.hi_closed:
        hi -= inset
    if not lo < hi:
        raise ValueError(f"degenerate sampling window for domain {domain!r}")
    return lo, hi


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
    """Hunt for Loewner violations of midpoint-style operator convexity.

    Samples Hermitian pairs with spectra inside dom(f) and random mixing
    ratios; a reported violation refutes the convexity claim, while a clean
    report proves nothing. The trials run through the verification lab's
    trial loop (`kernels.run_trials`), so a NaN margin is a violation and
    never the worst, and worst_trial is 0 unless a margin is below inf.
    """
    if dim < 2:
        raise ValueError("falsifier needs dim >= 2")
    if trials < 1:
        raise ValueError("falsifier needs trials >= 1")
    lo, hi = sampling_window(f.domain)
    violations, worst, worst_trial, _ = kernels.run_trials(
        trials,
        dim,
        lambda trial: _convexity_draw(seed, trial, dim, lo, hi),
        _convexity_margins,
        f,
        tol,
    )
    return FalsifierReport(f.id, dim, trials, violations, worst, worst_trial)


def _convexity_draw(seed, trial, dim, lo, hi):
    """Trial `trial`'s spectra of A and B (`raw_spectrum`) and mixing
    ratio t."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    a = raw_spectrum(rng, dim, lo, hi)
    b = raw_spectrum(rng, dim, lo, hi)
    return a, b, float(rng.uniform(0.0, 1.0))


def _convexity_margins(draws, f, tol):
    """Margins of f(t A + (1 - t) B) <= t f(A) + (1 - t) f(B), stacked over
    the drawn (A, B, t) triples and folded (`kernels.fold`) into each
    trial's margin and violation flag, with the draws as extras."""
    a, b = kernels.build((None, [draw[0] for draw in draws]), (None, [draw[1] for draw in draws]))
    t = np.array([t for _, _, t in draws])[:, None, None]
    f_a, f_b, lhs = kernels.apply_function(f, np.stack([a, b, a * t + b * (1.0 - t)]))
    low, _, used = kernels.loewner(lhs, f_a * t + f_b * (1.0 - t), tol)
    return *kernels.fold(low[:, None], used[:, None]), draws

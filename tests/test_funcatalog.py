import math

import numpy as np
import pytest

from opdiv import kernels
from opdiv.errors import DomainViolation, NumericalFailure, ParamOutOfRange, UnknownFunction
from opdiv.funcatalog import (
    FalsifierReport,
    Interval,
    PowerFamily,
    builtin,
    convexity_falsifier,
    from_spec,
    quartic,
    sampling_window,
)


def test_neg_log_fixture():
    f = builtin("neg_log")
    assert f.eval_scalar(1.0) == pytest.approx(0.0)
    assert f.deriv_scalar(1.0) == pytest.approx(-1.0)
    assert f.flags.claims_operator_convex
    assert not f.flags.value_at_zero_nonpositive
    assert not f.domain.contains(0.0)


def test_t_log_t_fixture():
    f = builtin("t_log_t")
    assert f.eval_scalar(1.0) == pytest.approx(0.0)
    assert f.deriv_scalar(1.0) == pytest.approx(1.0)
    assert f.eval_scalar(0.0) == 0.0  # 0 log 0 := 0
    assert f.flags.claims_operator_convex
    assert f.flags.value_at_zero_nonpositive


def test_power_fixtures_and_flags():
    sq = builtin("power", [2])
    assert sq.eval_scalar(3.0) == pytest.approx(9.0)
    assert sq.flags.claims_operator_convex
    inv = builtin("power", [-1])
    assert inv.flags.claims_operator_convex
    assert not inv.flags.claims_operator_concave
    assert not inv.domain.contains(0.0)
    root = builtin("power", [0.5])
    assert root.flags.claims_operator_concave
    assert not root.flags.claims_operator_convex
    both = builtin("power", [1.0])
    assert both.flags.claims_operator_convex and both.flags.claims_operator_concave


def test_power_rejects_out_of_range():
    with pytest.raises(ParamOutOfRange):
        builtin("power", [3])
    with pytest.raises(ParamOutOfRange):
        builtin("power", [-1.5])
    with pytest.raises(ParamOutOfRange):
        builtin("power", [])


def test_affine_flags():
    f = builtin("affine", [2.0, -1.0])
    assert f.eval_scalar(3.0) == pytest.approx(5.0)
    assert f.flags.value_at_zero_nonpositive
    assert not f.flags.strictly_positive
    h = builtin("affine", [0.5, 0.25])
    assert h.flags.strictly_positive


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        builtin("cube")
    with pytest.raises(ParamOutOfRange):
        builtin("square", [1.0])


def test_from_spec():
    assert from_spec({"id": "power", "params": [2]}).eval_scalar(3.0) == 9.0
    assert from_spec({"id": "quartic"}).eval_scalar(2.0) == 16.0
    with pytest.raises(UnknownFunction):
        from_spec({"id": 7})


def test_derivatives_match_finite_differences():
    functions = [
        builtin("square"),
        builtin("neg_log"),
        builtin("t_log_t"),
        builtin("identity"),
        builtin("power", [-1]),
        builtin("power", [0.5]),
        builtin("power", [1.7]),
        builtin("affine", [0.3, 1.2]),
        quartic(),
    ]
    for f in functions:
        lo, hi = sampling_window(f.domain)
        xs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 9)
        step = 1e-6 * max(1.0, hi - lo)
        fd = (f.eval_array(xs + step) - f.eval_array(xs - step)) / (2 * step)
        exact = np.array([f.deriv_scalar(x) for x in xs])
        assert np.allclose(fd, exact, rtol=1e-6, atol=1e-6), f.id


def test_interval_clamp_behaviour():
    nonneg = Interval.nonnegative()
    assert np.allclose(nonneg.clamp_spectrum(np.array([-1e-12, 1.0]), 1e-9), [0.0, 1.0])
    positive = Interval.positive()
    got = positive.clamp_spectrum(np.array([0.5, 2.0]), 1e-9)
    assert np.allclose(got, [0.5, 2.0])
    bounded = Interval(0.0, 1.0, True, True)
    assert np.allclose(bounded.clamp_spectrum(np.array([1.0 + 1e-12]), 1e-9), [1.0])


def test_power_family_rows_match_their_own_power_functions():
    """A PowerFamily row has the bits of `builtin("power", [beta])`,
    including at -1, 0.5 and 2, where numpy computes a scalar power with
    another ufunc, and the domain, clamping and errors of that function."""
    betas = np.array([-1.0, -0.7, 0.0, 0.5, 0.3, 1.0, 1.5, 2.0, 1.2345])
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.01, 9.0, (len(betas), 4))
    # Where numpy's scalar power and pow differ on some value, each row
    # holds one such value.
    pool = rng.uniform(0.01, 9.0, 4000)
    for row, beta in enumerate(betas):
        differs = np.flatnonzero(pool**beta != pool ** np.full_like(pool, beta))
        if differs.size:
            vals[row, 0] = pool[differs[0]]
    vals = np.sort(vals, axis=-1)[:, ::-1].copy()
    vecs = np.linalg.eigh(rng.standard_normal((len(betas), 4, 4)) + 0j)[1]
    own = [builtin("power", [b]) for b in betas]
    family = PowerFamily(betas)
    got = kernels.calculus(family, (vals, vecs))
    assert np.array_equal(got.view(np.int64), kernels.calculus(own, (vals, vecs)).view(np.int64))
    assert family[[0]].id == own[0].id == "power(-1)"
    assert family.flags.strictly_positive

    # A value just below 0 clamps onto 0 for beta >= 0; for beta < 0 the
    # domain is open at 0 and the value is refused.
    low = vals.copy()
    low[:, -1] = -1e-12
    rows = betas >= 0
    got = kernels.calculus(family[rows], (low[rows], vecs[rows]))
    want = kernels.calculus([f for f, r in zip(own, rows) if r], (low[rows], vecs[rows]))
    assert np.array_equal(got, want)
    with pytest.raises(DomainViolation):
        kernels.calculus(family[[1]], (low[[1]], vecs[[1]]))

    # A non-finite value names the row's own function.
    zero = vals[[0]].copy()
    zero[0, -1] = 0.0
    with pytest.raises(DomainViolation):
        kernels.calculus(family[[0]], (zero, vecs[[0]]))
    with pytest.raises(NumericalFailure, match=r"power\(1.5\)"), np.errstate(over="ignore"):
        kernels.calculus(family[[6]], (np.full((1, 4), 1e300), vecs[[6]]))


def test_falsifier_clears_operator_convex_catalog():
    flagged = [
        builtin("square"),
        builtin("neg_log"),
        builtin("t_log_t"),
        builtin("identity"),
        builtin("power", [-1]),
        builtin("power", [-0.5]),
        builtin("power", [1.5]),
    ]
    for f in flagged:
        assert f.flags.claims_operator_convex
        for dim in (2, 3, 4):
            for seed in (0, 1):
                report = convexity_falsifier(f, dim=dim, trials=500, seed=seed)
                assert report.violations == 0, (f.id, dim, seed, report.worst_margin)


def test_falsifier_clears_operator_concave_catalog():
    from opdiv.funcatalog import FunctionFlags, ScalarOperatorFunction

    for alpha in (0.3, 0.5, 0.8):
        h = builtin("power", [alpha])
        assert h.flags.claims_operator_concave
        negated = ScalarOperatorFunction(
            id=f"neg_{h.id}",
            domain=h.domain,
            eval=lambda t, h=h: -h.eval(t),
            flags=FunctionFlags(claims_operator_convex=True),
        )
        report = convexity_falsifier(negated, dim=3, trials=300, seed=2)
        assert report.violations == 0


def test_falsifier_refutes_quartic():
    report = convexity_falsifier(quartic(), dim=2, trials=500, seed=0)
    assert report.violations >= 1
    assert report.worst_margin < -1e-6


def test_falsifier_identity_equality_case():
    report = convexity_falsifier(builtin("identity"), dim=3, trials=100, seed=0)
    assert report.violations == 0
    assert abs(report.worst_margin) <= 1e-12


def test_falsifier_square_is_clean():
    report = convexity_falsifier(builtin("square"), dim=3, trials=200, seed=0)
    assert report.violations == 0


# Reports of the serial per-trial falsifier loop: any rewrite of
# convexity_falsifier must reproduce them exactly, margins included.
_PINNED_FALSIFIER_REPORTS = [
    ("quartic", (), 2, 39, -1.327511563884448, 138),
    ("quartic", (), 4, 91, -2.3800053815357605, 186),
    ("square", (), 2, 0, 2.8669952896187567e-06, 240),
    ("square", (), 4, 0, 9.301390977163119e-08, 103),
    ("neg_log", (), 2, 0, 4.3031576627359375e-06, 39),
    ("neg_log", (), 4, 0, 4.120886379093232e-06, 138),
    ("power", (-0.5,), 2, 0, 1.6038555005109048e-06, 39),
    ("power", (-0.5,), 4, 0, 1.208659255935654e-06, 138),
    ("t_log_t", (), 2, 0, 1.5791950470508964e-05, 39),
    ("t_log_t", (), 4, 0, 1.2320311478487375e-05, 138),
]


@pytest.mark.parametrize("func_id, params, dim, violations, worst, worst_trial", _PINNED_FALSIFIER_REPORTS)
def test_falsifier_reports_are_pinned(func_id, params, dim, violations, worst, worst_trial):
    f = quartic() if func_id == "quartic" else builtin(func_id, params)
    report = convexity_falsifier(f, dim=dim, trials=300, seed=3)
    assert report == FalsifierReport(f.id, dim, 300, violations, worst, worst_trial)


def test_falsifier_counts_a_nan_margin_as_a_violation_and_never_the_worst(monkeypatch):
    """The falsifier folds its trials as the lab does: a NaN margin on the
    clean run's worst trial makes that trial a violation, and the worst
    trial becomes another one."""
    clean = convexity_falsifier(builtin("square"), dim=2, trials=300, seed=3)
    assert clean.violations == 0
    real = kernels.loewner
    seen = []

    def nan_on_worst_trial(lhs, rhs, tol):
        low, high, used = real(lhs, rhs, tol)
        trials = np.arange(len(seen), len(seen) + len(low))
        seen.extend(trials)
        return np.where(trials == clean.worst_trial, math.nan, low), high, used

    monkeypatch.setattr(kernels, "loewner", nan_on_worst_trial)
    report = convexity_falsifier(builtin("square"), dim=2, trials=300, seed=3)
    assert len(seen) == 300
    assert report.violations == 1
    assert report.worst_trial != clean.worst_trial
    assert clean.worst_margin < report.worst_margin < math.inf


def test_falsifier_evaluates_in_bounded_chunks(monkeypatch):
    """With room for 7 pairs per stacked call, no call builds more than
    their 14 matrices, and the report is the one of a single stack."""
    whole = convexity_falsifier(quartic(), dim=2, trials=300, seed=3)
    stacks = []
    real = kernels.from_spectrum

    def counted(lam, gaussian):
        stacks.append(len(lam))
        return real(lam, gaussian)

    monkeypatch.setattr(kernels, "STACK_ELEMENTS", 7 * 2**2)
    monkeypatch.setattr(kernels, "from_spectrum", counted)
    assert convexity_falsifier(quartic(), dim=2, trials=300, seed=3) == whole
    assert max(stacks) == 14 and sum(stacks) == 600

import math

import numpy as np
import pytest

from opdiv import kernels
from opdiv.errors import DomainViolation, ParamOutOfRange, UnknownFunction
from opdiv.funcatalog import Interval, builtin, from_spec, quartic, sampling_window
from opdiv.lab import MAX_TRIALS, FalsifierReport, convexity_falsifier


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


def test_builtin_takes_numpy_numbers_and_tuples():
    """`builtin` holds params to one rule, for the library and for JSON
    (`from_spec`) alike: a list or tuple of finite real numbers, numpy's
    counted as numbers, as `lab._real` counts them."""
    assert builtin("power", [np.int64(2)]).id == "power(2)"
    assert builtin("affine", (np.float32(0.5), 1)).id == "affine(0.5,1)"
    assert builtin("power", (1.5,)).eval_scalar(4.0) == 8.0
    with pytest.raises(ParamOutOfRange, match="finite numbers"):
        builtin("power", [np.bool_(True)])


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


@pytest.mark.parametrize("beta", [-1.0, -0.7, 0.0, 0.5, 1.0, 1.5, 2.0])
def test_power_domain_at_zero_is_closed_only_for_nonnegative_exponents(beta):
    """power(beta) holds 0 for beta >= 0, so an eigenvalue just below it
    clamps onto it; for beta < 0 the domain is open at 0, and both that
    eigenvalue and 0 itself are refused."""
    f = builtin("power", [beta])
    assert f.domain.contains(0.0) == (beta >= 0)
    vecs = np.eye(3)[None] + 0j
    for low in (-1e-12, 0.0):
        vals = np.array([[2.0, 1.0, low]])
        if beta >= 0:
            got = kernels.calculus([f], (vals, vecs))
            assert np.array_equal(np.diag(got[0]).real, [2.0**beta, 1.0, 0.0**beta])
        else:
            with pytest.raises(DomainViolation):
                kernels.calculus([f], (vals, vecs))


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
# convexity_falsifier must reproduce them exactly, margins included. The
# falsifier's own Loewner path gave them; THM2_1's evaluate, which
# replaced it, gives them to the bit.
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": True}, "trials must be an integer"),
        ({"dim": True}, "dim must be an integer"),
        ({"seed": False}, "seed must be an integer"),
        ({"dim": 3.0}, "dim must be an integer"),
        ({"trials": 10.0}, "trials must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": np.float64(0.0)}, "seed must be an integer"),
        ({"seed": -1}, "seed >= 0"),
        ({"dim": 1}, "dim >= 2"),
        ({"trials": 0}, "trials within"),
        ({"trials": -3}, "trials within"),
        ({"trials": MAX_TRIALS + 1}, "trials within"),
    ],
    ids=str,
)
def test_falsifier_refuses_a_count_that_is_not_a_valid_integer(kwargs, message):
    """A bool ran as 0 or 1 trials while the report echoed it, a negative
    seed reached numpy's "expected non-negative integer" and a float
    dim, trials or seed a bare TypeError; each is a ValueError now, as
    dim < 2 was, and the bounds on trials are GenConfig's."""
    args = {"dim": 3, "trials": 10, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=message):
        convexity_falsifier(quartic(), **args)


def test_falsifier_takes_numpy_integers_as_python_ints():
    got = convexity_falsifier(quartic(), dim=np.int64(2), trials=np.uint16(20), seed=np.int8(3))
    assert got == convexity_falsifier(quartic(), dim=2, trials=20, seed=3)
    assert [type(x) for x in (got.dim, got.trials)] == [int, int]


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
        return np.where((trials == clean.worst_trial)[:, None], math.nan, low), high, used

    monkeypatch.setattr(kernels, "loewner", nan_on_worst_trial)
    report = convexity_falsifier(builtin("square"), dim=2, trials=300, seed=3)
    assert len(seen) == 300
    assert report.violations == 1
    assert report.worst_trial != clean.worst_trial
    assert clean.worst_margin < report.worst_margin < math.inf


def test_falsifier_evaluates_in_bounded_chunks(monkeypatch):
    """With room for 7 pairs per stacked call, no call builds more than
    their 28 matrices (A, B and the two identities of each THM2_1 field),
    and the report is the one of a single stack."""
    whole = convexity_falsifier(quartic(), dim=2, trials=300, seed=3)
    stacks = []
    real = kernels.from_spectrum

    def counted(lam, gaussian):
        stacks.append(len(lam))
        return real(lam, gaussian)

    monkeypatch.setattr(kernels, "STACK_ELEMENTS", 7 * 2**2)
    monkeypatch.setattr(kernels, "from_spectrum", counted)
    assert convexity_falsifier(quartic(), dim=2, trials=300, seed=3) == whole
    assert max(stacks) == 28 and sum(stacks) == 1200

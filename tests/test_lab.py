import hashlib
import json
import math

import numpy as np
import pytest

from opdiv import batched, kernels, lab
from opdiv.errors import BadRange, NumericalFailure, UnknownCheck
from opdiv.funcatalog import builtin, quartic
from opdiv.hermitian import ToleranceConfig
from opdiv.lab import (
    GenConfig,
    check_description,
    check_ids,
    random_hermitian,
    random_pd,
    reproduce_example,
    run_check,
    run_suite,
)
from opdiv.posmap import Compression, Congruence, MapSum, ScaledMap


def test_gen_config_validation():
    with pytest.raises(BadRange):
        GenConfig(dim=1)
    with pytest.raises(BadRange):
        GenConfig(dim=9)
    with pytest.raises(BadRange):
        GenConfig(spectrum_range=(2.0, 1.0))
    with pytest.raises(BadRange):
        GenConfig(condition_cap=0.5)
    with pytest.raises(BadRange):
        GenConfig(trials=0)


def test_gen_config_bounds_the_trial_count():
    """A count above a day's work on two cores is refused; the bound
    itself is accepted. Nothing here runs a trial."""
    assert GenConfig(trials=lab.MAX_TRIALS).trials == lab.MAX_TRIALS
    with pytest.raises(BadRange, match=str(lab.MAX_TRIALS)):
        GenConfig(trials=lab.MAX_TRIALS + 1)


@pytest.mark.parametrize("spectrum_range", [(0.1, math.inf), (-math.inf, 4.0)])
def test_gen_config_refuses_an_infinite_spectrum_range(spectrum_range):
    """An infinite end reached numpy's uniform draw and ended in its
    OverflowError, in a check and in random_pd alike."""
    with pytest.raises(BadRange, match="finite"):
        run_check("THM2_1", GenConfig(spectrum_range=spectrum_range, trials=5))
    with pytest.raises(BadRange, match="finite"):
        random_pd(GenConfig(spectrum_range=spectrum_range), 0)


def test_gen_config_refuses_a_nan_condition_cap_and_keeps_inf():
    """`nan < 1` is false, so a NaN cap was accepted and the check failed in
    the eigensolver; an infinite cap means no cap and still runs."""
    with pytest.raises(BadRange):
        GenConfig(condition_cap=math.nan)
    assert run_check("THM2_1", GenConfig(condition_cap=math.inf, trials=5)).trials == 5


def test_random_hermitian_degenerate_range_is_identity():
    cfg = GenConfig(dim=3, spectrum_range=(1.0, 1.0), seed=0)
    h = random_hermitian(cfg, 0)
    assert np.array_equal(h.entries, np.eye(3))


def test_random_hermitian_determinism_and_range():
    cfg = GenConfig(dim=3, spectrum_range=(0.5, 2.0), seed=123)
    h1 = random_hermitian(cfg, 4)
    h2 = random_hermitian(cfg, 4)
    assert np.array_equal(h1.entries, h2.entries)
    h3 = random_hermitian(cfg, 5)
    assert not np.array_equal(h1.entries, h3.entries)
    eigs = np.linalg.eigvalsh(h1.entries)
    assert eigs.min() >= 0.5 - 1e-9 and eigs.max() <= 2.0 + 1e-9


# sha256 over entries.tobytes() of trials 0-2 at dims 2-8, seed 5, with
# condition_cap 10 (which binds only random_pd's (0.1, 4) spectra).
_GENERATOR_BITS = [
    (random_hermitian, (0.1, 4.0), "fe2b9e9d9e69e9d09a9dc8148758b06ac46cde93820e5ff37e523902f61f01de"),
    (random_hermitian, (-1.0, 0.2), "e71d32a2bd883c2a6516315ea2869c40a8a1e259ac3b91d574de1ce550cf3684"),
    (random_hermitian, (1.0, 1.0), "b387a746b7f6e540ee3d1d59fa8f76460bb5e5d3be80ac3cdcb578e4cb2faefc"),
    (random_hermitian, (-2.0, -0.5), "654b18e8f84e79b0d910268e9e4acd50d450120706fb75af887690d8890c0412"),
    (random_pd, (0.1, 4.0), "dbb6adba66e6c71392e0661e45376af9e41fa1f3df3efef544c1ba612dc36281"),
    (random_pd, (1.0, 1.0), "b387a746b7f6e540ee3d1d59fa8f76460bb5e5d3be80ac3cdcb578e4cb2faefc"),
]


@pytest.mark.parametrize(
    "generator, spectrum_range, want",
    _GENERATOR_BITS,
    ids=[f"{g.__name__}{r}" for g, r, _ in _GENERATOR_BITS],
)
def test_generators_are_pinned_to_the_bit(generator, spectrum_range, want):
    digest = hashlib.sha256()
    for dim in range(2, 9):
        cfg = GenConfig(dim=dim, spectrum_range=spectrum_range, seed=5, condition_cap=10.0)
        for trial in range(3):
            digest.update(generator(cfg, trial).entries.tobytes())
    assert digest.hexdigest() == want


def test_random_pd_condition_cap_and_range_guard():
    cfg = GenConfig(dim=4, spectrum_range=(1e-6, 4.0), seed=7, condition_cap=10.0)
    pd = random_pd(cfg, 0)
    assert pd.condition_number <= 10.0 + 1e-6
    bad = GenConfig(dim=3, spectrum_range=(-1.0, 2.0), seed=7)
    with pytest.raises(BadRange):
        random_pd(bad, 0)


def test_run_check_baseline_green():
    result = run_check("THM2_1", GenConfig(dim=3, seed=7, trials=200))
    assert result.violations == 0
    assert result.trials == 200
    assert len(result.instance_digest_of_worst) == 16


def test_run_check_identity_equality_case():
    result = run_check("THM2_1", GenConfig(dim=3, seed=7, trials=50), function=builtin("identity"))
    assert result.violations == 0
    assert abs(result.worst_margin) <= 1e-10


def test_run_check_unknown_id():
    with pytest.raises(UnknownCheck):
        run_check("NOPE", GenConfig())
    with pytest.raises(UnknownCheck):
        check_description("NOPE")


def test_quartic_falsification_detected():
    result = run_check("THM2_1", GenConfig(dim=2, seed=1, trials=300), function=quartic())
    assert result.violations >= 1
    assert result.worst_margin < -1e-4


def test_exact_fixture_margins():
    result = run_check("EX3_3_EXACT", GenConfig(dim=3, seed=0, trials=2))
    assert result.violations == 0
    assert result.worst_margin >= 0.1


@pytest.mark.parametrize("trials", [1, 1000])
def test_exact_fixture_violates_on_every_trial_when_perturbed(trials, monkeypatch):
    """EX3_3_EXACT runs every trial like the other checks: a perturbed
    fixture violates on each of them, and trial 0 is the worst."""
    real = batched._example
    monkeypatch.setattr(batched, "_example", lambda tol: real(tol, perturbation=1.0))
    gen = GenConfig(dim=3, seed=0, trials=trials)
    worst, violated, payload = _one_trial("EX3_3_EXACT", 0, gen, ToleranceConfig(), None)
    assert violated and worst < 0
    result = run_check("EX3_3_EXACT", gen)
    assert (result.violations, result.worst_margin) == (trials, worst)
    assert result.instance_digest_of_worst == lab._digest(payload())


def test_registry_covers_expected_ids():
    ids = check_ids()
    assert len(ids) == 20
    assert ids[0] == "THM2_1"
    assert "KL_SUITE" in ids and "EX3_3_EXACT" in ids
    for cid in ids:
        assert check_description(cid)


def test_run_suite_empty_and_order():
    report = run_suite([], GenConfig(dim=2, seed=0, trials=1))
    assert report.checks == ()
    assert report.total_violations == 0
    report = run_suite(["KL_SUITE", "THM2_1"], GenConfig(dim=2, seed=3, trials=5))
    assert [c.check_id for c in report.checks] == ["KL_SUITE", "THM2_1"]


def test_run_suite_unknown_id():
    with pytest.raises(UnknownCheck):
        run_suite(["THM2_1", "NOPE"], GenConfig())


def test_suite_determinism_modulo_wall_time():
    cfg = GenConfig(dim=2, seed=42, trials=25)
    a = run_suite(check_ids(), cfg).to_json_dict()
    b = run_suite(check_ids(), cfg).to_json_dict()
    a.pop("wall_ms")
    b.pop("wall_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_small_baseline_sweep_all_green():
    for dim in (2, 4):
        report = run_suite(check_ids(), GenConfig(dim=dim, seed=1, trials=40))
        assert report.total_violations == 0, [
            (c.check_id, c.violations) for c in report.checks if c.violations
        ]


def test_custom_tolerance_is_threaded_through():
    tight = ToleranceConfig(abs=1e-15, rel=0.0)
    result = run_check("THM2_1", GenConfig(dim=2, seed=5, trials=40), tight)
    # the worst margins sit near -2e-14, inside the default tolerance but
    # below the tightened one, so only the tightened run flags them
    assert result.violations >= 1
    loose = run_check("THM2_1", GenConfig(dim=2, seed=5, trials=40))
    assert loose.violations == 0


def test_reproduce_example_matches_and_perturbation_fails():
    result = reproduce_example()
    assert result.ok
    assert max(result.max_devs) <= 1e-9
    assert min(result.gaps) > 0.1
    broken = reproduce_example(perturbation=1e-3)
    assert not broken.ok
    blob = result.to_json_dict()
    assert blob["ok"] is True
    assert [m["label"] for m in blob["matrices"]] == [
        "f_at_sum",
        "two_block_refinement",
        "per_map_perspective_sum",
        "sum_of_mapped_f",
    ]


def _one_trial(check_id, trial, gen, tol, function):
    """One trial, drawn and evaluated as a batch of one: its worst margin,
    violation flag and payload thunk."""
    check = lab._REGISTRY[check_id]
    record = check.draw(lab._trial_rng(gen.seed, check_id, trial), trial, gen, function)
    worst, violated, payloads = check.evaluate([record], tol)
    return float(worst[0]), bool(violated[0]), payloads[0]


def _reference_check(check_id, gen, function=None):
    """Every trial run, every payload built, the first minimum taken."""
    outcomes = []
    for trial in range(gen.trials):
        worst, violated, payload = _one_trial(check_id, trial, gen, ToleranceConfig(), function)
        outcomes.append((worst, violated, payload()))
    worst = min(range(len(outcomes)), key=lambda i: outcomes[i][0])
    violations = sum(1 for _, violated, _ in outcomes if violated)
    return violations, outcomes[worst][0], lab._digest(outcomes[worst][2])


@pytest.mark.parametrize(
    "check_id, gen, function",
    [
        ("COR2_3_SPLIT", GenConfig(dim=2, seed=11, trials=40), quartic()),
        ("EX3_3_EXACT", GenConfig(dim=3, seed=0, trials=5), None),
    ],
)
def test_run_check_matches_eager_reference_loop(check_id, gen, function):
    want = _reference_check(check_id, gen, function)
    if function is not None:
        assert want[0] >= 1  # the worst trial is chosen among violating ones
    got = run_check(check_id, gen, function=function)
    assert got.trials == gen.trials
    assert (got.violations, got.worst_margin, got.instance_digest_of_worst) == want


def test_stacked_nan_margin_counts_as_violation_and_is_never_the_worst(monkeypatch):
    """Loewner and scalar links fold with a strict `<` from inf: a NaN
    margin flags its trial as violated but is never its worst margin."""
    low = np.array(
        [
            [0.5, math.nan, 0.25],
            [math.nan, math.nan, math.nan],
            [math.nan, -1.0, 2.0],
            [0.5, 0.25, 1.0],
            [0.0, -0.0, 1.0],
        ]
    )
    want_worst = [0.25, math.inf, -1.0, 0.25, 0.0]
    want_violated = [True, True, True, False, False]
    used = np.full_like(low, 1e-8)
    monkeypatch.setattr(kernels, "loewner", lambda lhs, rhs, tol: (low, -low, used))
    link = (np.zeros((5, 2, 2)), np.zeros((5, 2, 2)))
    worst, violated = batched._links(ToleranceConfig(), link, link, link)
    assert worst.tolist() == want_worst
    assert math.copysign(1, worst[4]) == 1  # the first of equal margins
    assert violated.tolist() == want_violated

    # Scalar links: margin rhs - lhs, so lhs = 0 gives the margins above.
    worst, violated = batched._scalar_links(ToleranceConfig(), np.zeros_like(low), low)
    assert worst.tolist() == want_worst
    assert violated.tolist() == want_violated

    # The trial loop folds the trials by the same rule, across chunks of
    # two trials: the first of equal margins is the worst, a NaN margin is
    # a violation and never the worst, and trial 0 stands when no margin
    # is below inf.
    monkeypatch.setattr(kernels, "STACK_ELEMENTS", 2 * 2**2)

    def run(margins):
        def evaluate(records):
            worst = np.array([margins[t] for t in records])
            return worst, ~(worst >= -1e-8), [f"extra {t}" for t in records]

        return kernels.run_trials(len(margins), 2, lambda trial: trial, evaluate)

    assert run([math.nan, 0.5, -1.0, math.nan, -1.0]) == (4, -1.0, 2, "extra 2")
    assert run([0.0, 0.5, -0.0]) == (0, 0.0, 0, "extra 0")
    assert run([math.nan, math.inf, math.nan]) == (2, math.inf, 0, "extra 0")
    assert run([math.inf, math.inf, 3.0]) == (0, 3.0, 2, "extra 2")


def test_nan_margin_counts_as_violation(monkeypatch):
    """A single NaN margin, scalar or Loewner, flags its trial as violated."""
    lhs = np.array([[0.0, math.nan]])
    worst, violated = batched._scalar_links(ToleranceConfig(), lhs, np.ones((1, 2)))
    assert (worst.tolist(), violated.tolist()) == ([1.0], [True])

    nan = np.full((1, 1), math.nan)
    used = np.full_like(nan, 1e-8)
    monkeypatch.setattr(kernels, "loewner", lambda lhs, rhs, tol: (nan, nan, used))
    eye = np.eye(2)[None]
    worst, violated = batched._links(ToleranceConfig(), (eye, eye))
    assert violated.tolist() == [True]


def test_stacked_check_raises_the_first_failing_trials_error(monkeypatch):
    """A check whose stacked evaluation raises mid-chunk raises what the
    loop over single trials raises: the first failing trial's own error."""
    real = kernels.perspective

    def refusing(f, left, right, *args, **kwargs):
        corner = left[..., 0, 0].real
        if np.any(corner > 3.0):
            raise NumericalFailure(f"perspective refused L[0, 0] = {corner[corner > 3.0][0]!r}")
        return real(f, left, right, *args, **kwargs)

    monkeypatch.setattr(kernels, "perspective", refusing)
    gen = GenConfig(dim=2, seed=5, trials=40)
    with pytest.raises(NumericalFailure) as want:
        _reference_check("COR2_7_SINGLE", gen)
    with pytest.raises(NumericalFailure) as got:
        run_check("COR2_7_SINGLE", gen)
    assert str(got.value) == str(want.value)


# Checks whose trials all draw one shape: no field size, family size, map
# variant or output dimension varies between their trials.
_ONE_SHAPE = {"COR2_9_VECTOR", "THM3_8_NORM", "LEMMA_JADJIT", "KL_SUITE", "EX3_3_EXACT"}


def _draw_shape(record):
    """The shapes of everything a draw record holds, through its tuples and
    lists: trials differ in it when they draw another field or family
    size, map variant, compression size or output dimension."""
    return tuple(np.shape(leaf) for leaf in _leaves(record))


@pytest.mark.parametrize("check_id", check_ids())
@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("function", [None, quartic()], ids=["pool", "quartic"])
def test_stacked_evaluate_matches_one_trial_at_a_time(check_id, dim, function):
    """Every trial's margin, violation flag and payload digest is the same
    whether its check evaluates all trials at once or one at a time."""
    gen = GenConfig(dim=dim, seed=3, trials=14)
    tol = ToleranceConfig()
    check = lab._REGISTRY[check_id]
    records = [
        check.draw(lab._trial_rng(gen.seed, check_id, t), t, gen, function)
        for t in range(gen.trials)
    ]
    # The stack mixes field sizes, map variants or output dimensions.
    shapes = len({_draw_shape(r) for r in records})
    assert (shapes > 1) == (check_id not in _ONE_SHAPE)
    worst, violated, payloads = check.evaluate(records, tol)
    for t in range(gen.trials):
        one_worst, one_violated, payload = _one_trial(check_id, t, gen, tol, function)
        assert math.copysign(1, worst[t]) == math.copysign(1, one_worst)
        assert (worst[t], violated[t]) == (one_worst, one_violated)
        assert lab._digest(payloads[t]()) == lab._digest(payload())


def _leaves(value):
    """The values in a draw record, through its tuples and lists."""
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


@pytest.mark.parametrize("check_id", check_ids())
@pytest.mark.parametrize("function", [None, quartic()], ids=["pool", "quartic"])
def test_draw_records_hold_only_real_rng_output(check_id, function):
    """A draw keeps what the RNG returns: every array in its record is real
    or integer, and no number is complex, so assembling complex Gaussians
    (and every other float transform) stays in the stacked evaluate. The
    one exception is the unit vectors `x`, normalized per trial."""
    check = lab._REGISTRY[check_id]
    for dim in (2, 8):
        gen = GenConfig(dim=dim, seed=3, trials=14)
        for t in range(gen.trials):
            record = check.draw(lab._trial_rng(gen.seed, check_id, t), t, gen, function)
            for leaf in _leaves(record._replace(x=None)):
                assert not isinstance(leaf, complex)
                if isinstance(leaf, np.ndarray):
                    assert leaf.dtype.kind in "biuf", (check_id, leaf.dtype)


# The checks with a stage that splits by drawn size: the output dimension
# of a subunital family, or the variant and output size of a single map.
_SPLIT_BY_SIZE = {"THM2_6_CDJ_DELTA", "COR2_7_SINGLE", "EX2_8_POWER"}


def test_ragged_fields_evaluate_in_one_stack(monkeypatch):
    """Trials draw fields and families of 2 to 4 entries (THM2_1's, for
    one), yet in every check whose stages do not split by drawn size a
    chunk of 100 trials makes as many eigensolver dispatches as one trial:
    each stage runs once over the whole chunk, however the sizes mix."""
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def dispatches(check_id, trials):
        calls.clear()
        run_check(check_id, GenConfig(dim=3, trials=trials))
        return sorted(calls)

    for check_id in check_ids():
        if check_id not in _SPLIT_BY_SIZE:
            assert dispatches(check_id, 100) == dispatches(check_id, 1), check_id


@pytest.mark.parametrize("check_id", ["COR2_3_SPLIT", "THM3_1_II", "KL_SUITE", "EX3_3_EXACT"])
def test_trial_chunks_do_not_change_the_result(check_id, monkeypatch):
    """Chunks of 7 trials give the report of one chunk holding all 40."""
    gen = GenConfig(dim=2, seed=11, trials=40)
    whole = run_check(check_id, gen, function=quartic() if check_id == "COR2_3_SPLIT" else None)
    monkeypatch.setattr(kernels, "STACK_ELEMENTS", 7 * gen.dim**2)
    chunked = run_check(check_id, gen, function=quartic() if check_id == "COR2_3_SPLIT" else None)
    assert chunked == whole


@pytest.mark.parametrize("check_id", ["COR2_7_SINGLE", "EX2_8_POWER"])
def test_only_the_worst_trials_map_is_built(check_id, monkeypatch):
    """The maps of a chunk apply as stacks; a map object is built only for
    the worst trial's payload, so 100 trials build the objects of one map:
    a contraction, a compression, or a scaled sum of two congruences."""
    built = []
    for cls in (Congruence, Compression, MapSum, ScaledMap):

        def counted(self, *args, _real=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    run_check(check_id, GenConfig(dim=3, seed=1, trials=100))
    one_map = (["Congruence"], ["Compression"], ["Congruence", "Congruence", "MapSum", "ScaledMap"])
    assert built in one_map, len(built)

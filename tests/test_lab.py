import hashlib
import json
import math
import re
from functools import partial

import numpy as np
import pytest

from conftest import perturb_example_chain
from opdiv import batched, kernels, lab
from opdiv.errors import BadRange, DerivativeRequired, NonPositiveH, NumericalFailure, UnknownCheck
from opdiv.funcatalog import FunctionFlags, Interval, ScalarOperatorFunction, builtin, quartic
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


@pytest.mark.parametrize(
    "field, value",
    [("dim", 3.5), ("trials", 10.5), ("seed", 1.5), ("seed", True), ("dim", True),
     ("trials", True), ("seed", np.float64(1.0)), ("dim", "3")],
)
def test_gen_config_refuses_a_count_that_is_not_an_integer(field, value):
    """A float dim or trial count ended in a bare TypeError inside the draw,
    and a float or bool seed ran the draws of its integer part while the
    report echoed the value given."""
    with pytest.raises(BadRange, match=f"{field} must be an integer"):
        GenConfig(**{field: value})


def test_gen_config_takes_numpy_integers_as_python_ints():
    gen = GenConfig(dim=np.int64(3), seed=np.int32(1), trials=np.uint8(5))
    assert [type(x) for x in (gen.dim, gen.seed, gen.trials)] == [int] * 3
    got = run_suite(["THM2_1"], gen).to_json_dict()
    want = run_suite(["THM2_1"], GenConfig(dim=3, seed=1, trials=5)).to_json_dict()
    assert json.dumps({**got, "wall_ms": 0}) == json.dumps({**want, "wall_ms": 0})


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"condition_cap": True, "spectrum_range": (True, 4)}, "spectrum_range lo"),
        ({"condition_cap": True}, "condition_cap"),
        ({"condition_cap": "5"}, "condition_cap"),
        ({"spectrum_range": ("0.1", 4)}, "spectrum_range lo"),
        ({"spectrum_range": (0.1, False)}, "spectrum_range hi"),
    ],
)
def test_gen_config_refuses_a_float_field_that_is_not_a_real_number(kwargs, field):
    """A bool cap or bound ran as 0 or 1 while the report echoed `true`,
    and a string ended in a bare TypeError."""
    with pytest.raises(BadRange, match=f"{field} must be a real number"):
        GenConfig(**kwargs)


@pytest.mark.parametrize("spectrum_range", [(0.1, 2, 4), (0.1,), 4.0])
def test_gen_config_refuses_a_spectrum_range_that_is_not_a_pair(spectrum_range):
    """Three bounds ended in a bare ValueError from unpacking."""
    with pytest.raises(BadRange, match="spectrum_range must be a pair"):
        GenConfig(spectrum_range=spectrum_range)


def test_gen_config_takes_numpy_floats_as_python_floats():
    gen = GenConfig(
        spectrum_range=(np.float32(0.5), np.int64(3)), condition_cap=np.float64(10.0), trials=2
    )
    assert [type(x) for x in (*gen.spectrum_range, gen.condition_cap)] == [float, int, float]
    config = run_suite(["THM2_1"], gen).to_json_dict()["config"]
    assert json.dumps([config["spectrum_range"], config["condition_cap"]]) == "[[0.5, 3], 10.0]"


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


# The checks that quartic, scalar convex but not operator convex, refutes
# at seed 3 (ROADMAP's falsification-power table), with the violations it
# makes in 100 trials at dims 2 and 8.
_QUARTIC_REFUTES = {
    "COR2_3_SPLIT": (25, 96),
    "THM3_1_CHAIN": (17, 88),
    "COR3_4_ISOM": (14, 88),
    "COR2_7_SINGLE": (7, 63),
    "THM3_1_II": (8, 66),
    "THM2_1": (8, 32),
    "COR2_2_SUBADD": (4, 32),
    "COR2_2_II": (11, 45),
    "THM2_6_CDJ_DELTA": (7, 13),
    "THM2_4_MIXTURE": (2, 7),
}


@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("check_id", sorted(_QUARTIC_REFUTES))
def test_quartic_is_refuted_by_every_check_that_tests_operator_convexity(check_id, dim):
    """Falsification power: a refactor that stops a check from seeing
    operator convexity fail keeps it green under the pool, so a negative
    control must still make at least one violation on each of these."""
    result = run_check(check_id, GenConfig(dim=dim, seed=3, trials=100), function=quartic())
    assert result.violations >= 1, _QUARTIC_REFUTES[check_id]


# The links that quartic never violates, with the reason: (check, link
# indices or None for every link, reason). Every other link must be
# violated at least once. At seed 5, 200 trials, the fewest violations of
# an undeclared link are THM2_4_MIXTURE's 8 and THM2_6_CDJ_DELTA's 10,
# both at dim 3.
_NEVER_VIOLATED = (
    ("EX2_8_POWER", None, "--function ignored"),
    ("THM2_10_DOM", None, "--function ignored"),
    ("LEMMA_JADJIT", None, "--function ignored"),
    ("KL_SUITE", None, "--function ignored"),
    ("EX3_3_EXACT", None, "--function ignored"),
    # m3 <= m4 sits at rounding level on 197-200 of 200 quartic trials.
    ("THM3_1_CHAIN", [2], "identity for every f under square congruences"),
    ("COR3_4_ISOM", [2], "identity for every f under square congruences"),
    ("COR2_9_VECTOR", None, "quartic never refutes"),
    ("THM_DELTA_NABLA", None, "quartic never refutes"),
    ("THM2_12_GRAD", None, "quartic never refutes"),
    ("THM3_8_NORM", None, "quartic never refutes"),
    ("SCALAR_CSISZAR", [0], "quartic never refutes"),
    ("KL_SUITE", [3], "deviation flag"),
    ("SCALAR_CSISZAR", [1], "deviation flag"),
    ("EX3_3_EXACT", [3], "deviation flag"),
)


@pytest.mark.parametrize("dim", [3, 8])
def test_quartic_violates_every_link_not_declared_never_violated(dim):
    """Falsification power per link: a link that the sampler makes an
    identity is never tested, and its green means nothing. Each link of
    each check, drawn and evaluated under quartic, is violated at least
    once unless `_NEVER_VIOLATED` declares it, and then never, so a
    sampler change that makes a link vacuous fails here, and so does one
    that makes a declared link fail."""
    gen = GenConfig(dim=dim, seed=5, trials=200)
    never = set()
    for check_id in check_ids():
        margins, used, _ = lab.evaluate(check_id, lab.records(check_id, gen, quartic()))
        violated = ~(margins >= -used)
        never |= {(check_id, j) for j in np.flatnonzero(~violated.any(axis=0)).tolist()}
    declared = {
        (check_id, j)
        for check_id, links, _ in _NEVER_VIOLATED
        for j in (range(_link_count(check_id, dim)) if links is None else links)
    }
    assert never == declared


def test_exact_fixture_margins():
    result = run_check("EX3_3_EXACT", GenConfig(dim=3, seed=0, trials=2))
    assert result.violations == 0
    assert result.worst_margin >= 0.1


@pytest.mark.parametrize("trials", [1, 1000])
def test_exact_fixture_violates_on_every_trial_when_perturbed(trials, monkeypatch):
    """EX3_3_EXACT runs every trial like the other checks: a perturbed
    fixture violates on each of them, and trial 0 is the worst."""
    perturb_example_chain(monkeypatch, 1.0)
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


def test_reproduce_example_matches_and_perturbation_fails(monkeypatch):
    result = reproduce_example()
    assert result.ok
    assert max(result.max_devs) <= 1e-9
    assert min(result.gaps) > 0.1
    perturb_example_chain(monkeypatch, 1e-3)
    broken = reproduce_example()
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
    records = lab.records(check_id, gen, function, trials=[trial])
    margins, used, payload = lab.evaluate(check_id, records, tol)
    worst, violated = kernels.fold(margins, used)
    return float(worst[0]), bool(violated[0]), partial(payload, 0)


@pytest.mark.parametrize("function", [None, quartic()], ids=["pool", "quartic"])
@pytest.mark.parametrize("dim", [3, 8])
@pytest.mark.parametrize("check_id", check_ids())
def test_the_worst_trial_replays_alone(check_id, dim, function):
    """The trial loop over `lab.records` names the worst trial K. Drawn
    alone, `lab.records(..., trials=[K])`, and evaluated as a batch of one,
    it gives `run_check`'s worst margin, to the bit, and its digest, so a
    report's worst trial can be replayed from its index."""
    gen, tol = GenConfig(dim=dim, seed=42, trials=100), ToleranceConfig()
    records = partial(lab.records, check_id, gen, function)
    _, _, k, _ = kernels.run_trials(gen.trials, dim, records, partial(lab.evaluate, check_id), tol)
    worst, _, payload = _one_trial(check_id, k, gen, tol, function)
    result = run_check(check_id, gen, tol, function)
    assert worst.hex() == result.worst_margin.hex()
    assert lab._digest(payload()) == result.instance_digest_of_worst


@pytest.mark.parametrize("trial", [-1, 5])
def test_records_refuse_a_trial_outside_the_run(trial):
    """A trial index outside range(gen.trials) is refused by name, not
    drawn as a trial the run never had or failed on in numpy."""
    with pytest.raises(BadRange, match=f"trial {trial} is outside the run's 5 trials"):
        lab.records("THM2_1", GenConfig(trials=5), trials=[0, trial])


@pytest.mark.parametrize("trial", [1.0, np.float64(2.0), True, "1", None])
def test_records_refuse_a_trial_index_that_is_not_an_integer(trial):
    """A float index ended in a bare TypeError inside the draw, and True
    drew trial 1; each is refused by name before any draw."""
    with pytest.raises(BadRange, match=f"^trial must be an integer, got {re.escape(repr(trial))}$"):
        lab.records("THM2_1", GenConfig(trials=5), trials=[0, trial])


def test_records_take_numpy_integer_indices_as_python_ints():
    """A numpy integer index draws the trial of its Python int: the same
    function, h and map variant, which the index picks, and margins."""
    gen = GenConfig(seed=3, trials=5)
    got, want = (lab.records("COR2_7_SINGLE", gen, trials=[t])[0] for t in (np.int64(4), 4))
    assert (got.f, got.h, got.m.variant) == (want.f, want.h, want.m.variant)
    margins = [lab.evaluate("COR2_7_SINGLE", [r])[0] for r in (got, want)]
    assert np.array_equal(*margins)


def test_evaluate_refuses_an_empty_list_of_records():
    """No record has no margin to fold; numpy's reduction error is not
    what the caller should see."""
    with pytest.raises(BadRange, match="^evaluate needs at least one record$"):
        lab.evaluate("THM2_1", [])


# The checks that read nothing of the spectrum window: SCALAR_CSISZAR
# reads nothing of the generation config, and EX3_3_EXACT no draw.
_READ_NO_WINDOW = {"SCALAR_CSISZAR", "EX3_3_EXACT"}


@pytest.mark.parametrize("spectrum_range", [(1.0, 1.0), (0.0, 0.05)])
def test_a_window_no_check_can_draw_from_raises_bad_range(spectrum_range):
    """GenConfig allows lo == hi, yet at (1.0, 1.0) THM2_1 raised
    `sampling_window`'s bare ValueError. Every check that reads the window
    raises a BadRange naming spectrum_range, and the two that read none
    run."""
    gen = GenConfig(spectrum_range=spectrum_range, trials=3)
    ran = set()
    for check_id in check_ids():
        try:
            run_check(check_id, gen)
        except BadRange as exc:
            assert str(exc).startswith(f"spectrum_range {spectrum_range} "), check_id
        else:
            ran.add(check_id)
    assert ran == _READ_NO_WINDOW


@pytest.mark.parametrize(
    "spectrum_range, f_id", [((1.0, 1.0), "t_log_t"), ((-3.0, -1.0), "neg_log")]
)
def test_a_window_outside_dom_f_raises_bad_range(spectrum_range, f_id):
    """An override whose domain leaves no window raises one BadRange,
    whether the inset at an open end of dom(f) or the window itself
    empties it."""
    gen = GenConfig(spectrum_range=spectrum_range, trials=3)
    want = f"^spectrum_range {re.escape(str(spectrum_range))} incompatible with dom "
    with pytest.raises(BadRange, match=want):
        run_check("THM2_1", gen, function=builtin(f_id))


def test_an_override_changes_exactly_the_checks_that_declare_a_pool():
    """A check that declares a pool samples the override in its place; a
    check that declares none ignores it. So under quartic the run differs
    from the pool run for the 15 checks with a pool, and equals it for
    the other five (dim 3, seed 0, 20 trials). A wrong declaration fails
    here: a pool on a check that ignores f changes nothing, and no pool on
    a check that reads f leaves its draw without one."""
    gen = GenConfig(dim=3, seed=0, trials=20)
    declared = {c for c in check_ids() if lab._REGISTRY[c].pool is not None}
    moved = {c for c in check_ids() if run_check(c, gen, function=quartic()) != run_check(c, gen)}
    assert moved == declared
    assert len(declared) == 15


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


def _folded(margins, used) -> list:
    """Each trial's worst margin and violation flag, from the trial loop
    (`kernels.run_trials`) over that trial's (L,) margins and tolerances
    alone, the one place that folds links."""
    out = []
    for t in range(len(margins)):
        violations, worst, _, _ = kernels.run_trials(
            1,
            2,
            lambda chunk: [t],
            lambda records, tol: (margins[records], used[records], lambda i: {}),
            None,
        )
        out.append((worst, bool(violations)))
    return out


def test_stacked_nan_margin_counts_as_violation_and_is_never_the_worst(monkeypatch):
    """Loewner and scalar links fold in the trial loop with a strict `<`
    from inf: a NaN margin flags its trial as violated but is never its
    worst margin. A failed deviation test is one more link, NaN, so its
    trial counts as violated and keeps the worst of its other links."""
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
    links = batched._links(ToleranceConfig(), link, link, link)
    assert _folded(*links) == list(zip(want_worst, want_violated))
    assert math.copysign(1, _folded(*links)[4][0]) == 1  # the first of equal margins

    # Scalar links: margin rhs - lhs, so lhs = 0 gives the margins above.
    links = batched._scalar_links(ToleranceConfig(), np.zeros_like(low), low)
    assert _folded(*links) == list(zip(want_worst, want_violated))

    # The deviation link: a flagged trial is violated and keeps its worst
    # margin, inf when every other margin is NaN; an unflagged one is as
    # it was.
    far = np.array([False, True, True, True, False])
    margins, used = batched._flagged(links, far)
    assert margins.shape == used.shape == (5, 4) and not used[:, 3].any()
    assert _folded(margins, used) == list(zip(want_worst, [True, True, True, True, False]))

    # The trial loop folds the trials by the same rule, across chunks of
    # two trials: the first of equal margins is the worst, a NaN margin is
    # a violation and never the worst, and trial 0 stands when no margin
    # is below inf.
    monkeypatch.setattr(kernels, "STACK_ELEMENTS", 2 * 2**2)

    def run(margins):
        def evaluate(records, tol):
            links = np.array([[margins[t]] for t in records])
            return links, np.full_like(links, 1e-8), lambda i: f"extra {records[i]}"

        *folded, payload = kernels.run_trials(len(margins), 2, list, evaluate, None)
        return *folded, payload()

    assert run([math.nan, 0.5, -1.0, math.nan, -1.0]) == (4, -1.0, 2, "extra 2")
    assert run([0.0, 0.5, -0.0]) == (0, 0.0, 0, "extra 0")
    assert run([math.nan, math.inf, math.nan]) == (2, math.inf, 0, "extra 0")
    assert run([math.inf, math.inf, 3.0]) == (0, 3.0, 2, "extra 2")


def test_nan_margin_counts_as_violation(monkeypatch):
    """A single NaN margin, scalar or Loewner, flags its trial as violated
    in the trial loop."""
    lhs = np.array([[0.0, math.nan]])
    links = batched._scalar_links(ToleranceConfig(), lhs, np.ones((1, 2)))
    assert _folded(*links) == [(1.0, True)]

    nan = np.full((1, 1), math.nan)
    used = np.full_like(nan, 1e-8)
    monkeypatch.setattr(kernels, "loewner", lambda lhs, rhs, tol: (nan, nan, used))
    eye = np.eye(2)[None]
    assert _folded(*batched._links(ToleranceConfig(), (eye, eye))) == [(math.inf, True)]


def test_stacked_check_raises_the_first_failing_trials_error(monkeypatch):
    """A check whose stacked evaluation raises mid-chunk raises what the
    loop over single trials raises: the first failing trial's own error.
    The error is injected in `kernels.sandwich`, the last step of every
    perspective, fused or not."""
    real = kernels.sandwich

    def refusing(f, half, inner):
        out = real(f, half, inner)
        corner = out[..., 0, 0].real
        if np.any(corner > 3.0):
            raise NumericalFailure(f"perspective refused P[0, 0] = {corner[corner > 3.0][0]!r}")
        return out

    monkeypatch.setattr(kernels, "sandwich", refusing)
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
    """Every trial's link margins and tolerances, to the bit, and so its
    worst margin and violation flag, and its payload digest are the same
    whether its check evaluates all trials at once or one at a time."""
    gen = GenConfig(dim=dim, seed=3, trials=14)
    records = lab.records(check_id, gen, function)
    # The stack mixes field sizes, map variants or output dimensions.
    shapes = len({_draw_shape(r) for r in records})
    assert (shapes > 1) == (check_id not in _ONE_SHAPE)
    margins, used, payload = lab.evaluate(check_id, records)
    worst, violated = kernels.fold(margins, used)
    for t, record in enumerate(records):
        one_margins, one_used, one_payload = lab.evaluate(check_id, [record])
        assert margins[t].tobytes() == one_margins[0].tobytes()
        assert used[t].tobytes() == one_used[0].tobytes()
        one_worst, one_violated = kernels.fold(one_margins, one_used)
        assert math.copysign(1, worst[t]) == math.copysign(1, one_worst[0])
        assert (worst[t], violated[t]) == (one_worst[0], one_violated[0])
        assert lab._digest(payload(t)) == lab._digest(one_payload(0))


# The links of each check's chain, L of its (T, L) margins: THM3_8_NORM
# has one per Ky Fan k-norm, k = 1 .. n, and KL_SUITE, SCALAR_CSISZAR and
# EX3_3_EXACT count their deviation test as one more.
_LINKS = {
    "THM2_1": 1,
    "COR2_2_SUBADD": 1,
    "COR2_2_II": 1,
    "COR2_3_SPLIT": 2,
    "THM2_4_MIXTURE": 1,
    "THM2_6_CDJ_DELTA": 1,
    "COR2_7_SINGLE": 2,
    "EX2_8_POWER": 1,
    "COR2_9_VECTOR": 3,
    "THM2_10_DOM": 2,
    "THM_DELTA_NABLA": 1,
    "THM2_12_GRAD": 1,
    "THM3_1_CHAIN": 3,
    "THM3_1_II": 2,
    "COR3_4_ISOM": 3,
    "THM3_8_NORM": "n",
    "LEMMA_JADJIT": 3,
    "KL_SUITE": 4,
    "SCALAR_CSISZAR": 2,
    "EX3_3_EXACT": 4,
}


def _link_count(check_id, dim):
    return dim if _LINKS[check_id] == "n" else _LINKS[check_id]


@pytest.mark.parametrize("check_id", check_ids())
@pytest.mark.parametrize("dim", [2, 8])
def test_evaluate_returns_every_link_margin(check_id, dim):
    """An evaluate folds nothing: it returns each trial's margin and
    tolerance on every link of its chain, (T, L) each, and the tolerances
    are finite and never negative; it builds the payload of every trial."""
    gen = GenConfig(dim=dim, seed=3, trials=14)
    margins, used, payload = lab.evaluate(check_id, lab.records(check_id, gen))
    assert margins.shape == used.shape == (gen.trials, _link_count(check_id, dim))
    assert np.isfinite(used).all() and (used >= 0).all()
    assert all(isinstance(payload(t), dict) for t in range(gen.trials))


@pytest.mark.parametrize("check_id", check_ids())
def test_a_run_builds_one_payload(check_id, monkeypatch):
    """A run builds only its worst trial's payload: over 200 trials at
    dim 8, four chunks, `run_check` calls `batched._payload` once. A
    payload built eagerly, per trial or per chunk, calls it more often."""
    real, calls = batched._payload, []

    def counted(**parts):
        calls.append(parts)
        return real(**parts)

    monkeypatch.setattr(batched, "_payload", counted)
    gen = GenConfig(dim=8, seed=0, trials=200)
    assert len(list(kernels.chunks(gen.trials, gen.dim))) == 4
    run_check(check_id, gen)
    assert len(calls) == 1


def test_thm2_12_grad_takes_each_tangent_point_once_per_function(monkeypatch):
    """THM2_12_GRAD takes (f(1), f'(1)) once per function of a chunk, not
    once per trial: 100 trials at dim 3, one chunk, take at most one per
    function of its pool. A function with no derivative raises the
    tangent point's own error."""
    real, calls = batched.tangent_point, []

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(batched, "tangent_point", counted)
    gen = GenConfig(dim=3, seed=0, trials=100)
    run_check("THM2_12_GRAD", gen)
    assert 0 < len(calls) <= len(batched._DIFF_POOL)
    no_deriv = ScalarOperatorFunction(
        id="no_deriv", domain=Interval.real_line(), eval=lambda t: np.asarray(t, dtype=float) ** 2
    )
    with pytest.raises(DerivativeRequired) as got:
        run_check("THM2_12_GRAD", gen, function=no_deriv)
    assert type(got.value) is DerivativeRequired
    assert str(got.value) == "function 'no_deriv' carries no derivative"


# The links that are equalities for affine f = at + b, whose perspective
# aA + bB is linear: (check, link indices or None for every link, the
# functions of `_EQUALITY_FUNCTIONS` they hold for). Through a subunital
# map or a scalar reduction a generalized perspective keeps b h(.), so
# those links are equalities only for f(0) = 0, and a Ky Fan norm is
# linear only in the identity. Deviation-flag links are left out.
_AFFINE = ("affine(1,-2)", "affine(-1,0)", "identity")
_F_ZERO_AT_ZERO = ("affine(-1,0)", "identity")
_EQUALITIES = (
    ("THM2_1", None, _AFFINE),
    ("COR2_2_SUBADD", None, _AFFINE),
    ("COR2_2_II", None, _AFFINE),
    ("COR2_3_SPLIT", None, _AFFINE),
    ("THM2_4_MIXTURE", None, _AFFINE),
    ("THM2_12_GRAD", None, _AFFINE),
    ("THM3_1_CHAIN", None, _AFFINE),
    ("THM3_1_II", None, _AFFINE),
    ("COR3_4_ISOM", None, _AFFINE),
    ("SCALAR_CSISZAR", [0], _AFFINE),
    ("COR2_7_SINGLE", [1], _AFFINE),
    ("THM2_6_CDJ_DELTA", None, _F_ZERO_AT_ZERO),
    ("COR2_9_VECTOR", None, _F_ZERO_AT_ZERO),
    ("THM_DELTA_NABLA", None, _F_ZERO_AT_ZERO),
    ("COR2_7_SINGLE", [0], _F_ZERO_AT_ZERO),
    ("THM3_8_NORM", None, ("identity",)),
)
_EQUALITY_FUNCTIONS = {
    f.id: f for f in (builtin("affine", [1, -2]), builtin("affine", [-1, 0]), builtin("identity"))
}


def _within_equality_bound(check_id, f, dim, trials=40):
    """The records of `check_id` under f at `dim`, seed 5, and whether
    each (trial, link) margin is within 1e3 eps * (1 + scale), the scale
    the link's tolerance was taken at."""
    tol = ToleranceConfig()
    records = lab.records(check_id, GenConfig(dim=dim, seed=5, trials=trials), f)
    margins, used, _ = lab.evaluate(check_id, records, tol)
    scale = (used - tol.abs) / tol.rel
    return records, np.abs(margins) <= 1e3 * np.finfo(float).eps * (1.0 + scale)


@pytest.mark.parametrize(
    "check_id, links, f_id",
    [
        pytest.param(check_id, links, f_id, id=f"{check_id}{links or ''}-{f_id}")
        for check_id, links, ids in _EQUALITIES
        for f_id in ids
    ],
)
def test_equality_cases_pin_both_sides(check_id, links, f_id):
    """Where a link is an equality, its margin stays within 1e3 eps of its
    sides' scale on every trial, so a side that came out too large (a
    missing weight, a map on one side only), which every golden would
    keep, fails here. The scale is the one the tolerance was taken at.
    The largest margin measured here is 0.1 of this bound (THM3_1_II)."""
    for dim in (2, 5, 8):
        _, within = _within_equality_bound(check_id, _EQUALITY_FUNCTIONS[f_id], dim)
        assert within[:, slice(None) if links is None else links].all(), dim


# The h of `_H_POOL` under which every link of an `_F0_POOL` check is an
# equality for f = affine(1,-0.5), whose f(0) != 0. For f = at + b the
# generalized perspective is aA + b h(B), so a link through a map Phi is
# an equality when h(Phi(B)) = Phi(h(B)): for the identity always, and
# for an affine h when Phi is unital, as COR2_9_VECTOR's <x, . x> is at
# a unit x. THM2_6_CDJ_DELTA's and COR2_7_SINGLE's maps are subunital.
# No h makes THM_DELTA_NABLA an equality.
_EQUALITY_HS = {
    "COR2_9_VECTOR": ("identity", "affine(0.7,0.3)"),
    "THM2_6_CDJ_DELTA": ("identity",),
    "COR2_7_SINGLE": ("identity",),
    "THM_DELTA_NABLA": (),
}


@pytest.mark.parametrize("check_id", sorted(_EQUALITY_HS))
def test_equality_cases_keyed_by_f_and_h(check_id):
    """For f = affine(1,-0.5), every link of each trial whose h is in
    `_EQUALITY_HS` stays within the bound of
    `test_equality_cases_pin_both_sides`, and under every other h some
    trial misses it. The worst measured at seed 5, 200 trials, dims 2, 3,
    5 and 8 are 22.2 (COR2_9_VECTOR), 27.6 (THM2_6_CDJ_DELTA) and 32.5
    (COR2_7_SINGLE) eps * (1 + scale); every other pair misses the bound
    by about 1e14."""
    assert _keyed_equality_misses(check_id, (2, 3, 5, 8)) == []


def _keyed_equality_misses(check_id, dims) -> list:
    """The (dim, h) pairs of `check_id` under f = affine(1,-0.5), 200 trials,
    where whether every link of h's trials is within the equality bound
    (`_within_equality_bound`) is not whether `_EQUALITY_HS` lists h."""
    f, misses = builtin("affine", [1.0, -0.5]), []
    for dim in dims:
        records, within = _within_equality_bound(check_id, f, dim, trials=200)
        hs = np.array([r.h.id for r in records])
        for h in sorted(set(hs.tolist())):
            if within[hs == h].all() != (h in _EQUALITY_HS[check_id]):
                misses.append((dim, h))
    return misses


def test_the_keyed_equality_bound_sees_a_perspective_with_its_sides_swapped(monkeypatch):
    """Self-test: COR2_9_VECTOR's generalized perspective taken at (B, A)
    in place of (A, B) breaks the equality that h = identity and
    h = affine(0.7,0.3) make of every link, so the bound check of
    `test_equality_cases_keyed_by_f_and_h` fails."""
    real = kernels.f_delta_h

    def swapped(f, h, left, right):
        return real(f, h, kernels.rebuild(*right), kernels.positive(left))

    assert _keyed_equality_misses("COR2_9_VECTOR", (3,)) == []
    monkeypatch.setattr(kernels, "f_delta_h", swapped)
    misses = _keyed_equality_misses("COR2_9_VECTOR", (3,))
    assert {(3, "identity"), (3, "affine(0.7,0.3)")} <= set(misses)


def test_the_equality_bound_sees_a_scaled_side_and_an_unweighted_theta(monkeypatch):
    """Self-test: THM2_1 is an equality for affine f, and each planted
    fault breaks it. A rolled weight, each weight paired with another
    entry, is out of reach here, since both sides read the same weights;
    tests/test_metamorphic.py catches that one."""
    f = _EQUALITY_FUNCTIONS["affine(1,-2)"]
    assert _within_equality_bound("THM2_1", f, 3)[1].all()
    links = batched._links

    def scaled(tol, *pairs):
        (lhs, rhs), *rest = pairs
        return links(tol, (lhs, rhs * (1.0 + 1e-9)), *rest)

    with monkeypatch.context() as m:
        m.setattr(batched, "_links", scaled)
        assert not _within_equality_bound("THM2_1", f, 3)[1].all()

    # Theta, the weighted sum of the entries' perspectives, summed without
    # its weights; the weighted sums of A and B keep theirs.
    perspectives, total, theta = batched._perspectives, batched._total, []

    def keep_theta(*parts):
        out = perspectives(*parts)
        theta.append(out[-1])
        return out

    def unweighted_theta(flat, mask, w=None):
        return total(flat, mask, None if any(flat is t for t in theta) else w)

    monkeypatch.setattr(batched, "_perspectives", keep_theta)
    monkeypatch.setattr(batched, "_total", unweighted_theta)
    assert not _within_equality_bound("THM2_1", f, 3)[1].all()
    assert theta


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
    for dim in (2, 8):
        for record in lab.records(check_id, GenConfig(dim=dim, seed=3, trials=14), function):
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


@pytest.mark.parametrize("check_id", ["THM2_6_CDJ_DELTA", "COR2_7_SINGLE"])
def test_the_unmapped_side_raises_before_the_mapped_side(check_id, monkeypatch):
    """These checks take h(B) and the perspectives of (A, B) before h of
    each mapped B. With an h, flagged strictly positive, that is negative
    on every B and every mapped B, both sides fail; the run raises trial
    0's NonPositiveH for its unmapped h(B)."""
    minus_five = ScalarOperatorFunction(
        id="minus_five",
        domain=Interval.real_line(),
        eval=lambda t: np.asarray(t, dtype=float) - 5.0,
        flags=FunctionFlags(strictly_positive=True),
    )
    monkeypatch.setattr(batched, "_H_POOL", (minus_five,))
    gen = GenConfig(dim=3, seed=4, trials=30)
    _, b = batched._build(lab.records(check_id, gen, trials=[0]), "a", "b")
    with pytest.raises(NonPositiveH) as want:
        kernels.f_delta_h(minus_five, minus_five, b, kernels.positive(b))
    with pytest.raises(NonPositiveH) as got:
        run_check(check_id, gen)
    assert str(got.value) == str(want.value)


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


# A THM2_1 margin may fall short of the sum of COR2_3_SPLIT's two link
# margins on the same records by at most this many eps times (1 + the
# largest scale of the three links). The worst measured over the cases
# below was 0.54.
_BOUND = 1e3


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("f", [None, quartic()], ids=str)
def test_theorem_2_1_margin_is_at_least_the_split_chain_margins(f, dim, seed):
    """COR2_3_SPLIT refines THM2_1's link whole <= Theta through the split:
    Theta - whole = (Theta - split) + (split - whole), and by Weyl's
    inequality lambda_min(X + Y) >= lambda_min(X) + lambda_min(Y), so on
    the same records THM2_1's margin is at least the sum of the two link
    margins of COR2_3_SPLIT, up to rounding, whether or not they hold."""
    tol = ToleranceConfig()
    records = lab.records("COR2_3_SPLIT", GenConfig(dim=dim, seed=seed, trials=40), f)
    links, used, _ = lab.evaluate("COR2_3_SPLIT", records, tol)
    whole, whole_used, _ = lab.evaluate("THM2_1", records, tol)
    scale = (np.max(np.hstack([used, whole_used]), axis=1) - tol.abs) / tol.rel
    shortfall = links.sum(axis=1) - whole[:, 0]
    assert np.all(shortfall <= _BOUND * np.finfo(float).eps * (1.0 + scale))

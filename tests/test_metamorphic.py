"""Metamorphic relations of the checks: transformations of a trial's
draw under which the inequality's two sides are equal in exact
arithmetic, so every link margin may move only by rounding.

The entries of a weighted field are an unordered collection: Theta, the
weighted sums of A and B and the tangent-line bound are all sums over
the entries. Permuting a record's entries together with their weights
therefore leaves every link of THM2_1, COR2_2_SUBADD and THM2_12_GRAD
as it was, up to the rounding of sums in another order. Bit pins fix
the order of each sum but cannot tell a weight paired with the wrong
entry from a right one, as long as no verdict changes; this relation
can.

A congruence family is unordered in the same way: its Gram sum
G = sum_j w_j C_j* C_j, the mapped sums and each block of a bipartition
are sums over its members. Permuting the members together with their
weights, Gaussians, operators and shrinks, and renaming the first block
to match, leaves every link of THM2_6_CDJ_DELTA, THM2_10_DOM,
THM3_1_CHAIN, THM3_1_II and COR3_4_ISOM as it was, up to rounding.

A bipartition is unordered too. COR2_3_SPLIT's split and the chains'
m2 are the sum of the two blocks' perspectives, and every other side
reads the whole field or family, so naming the second block first adds
the same two matrices in the other order; float addition commutes, so
every margin and tolerance of COR2_3_SPLIT, THM3_1_CHAIN and COR3_4_ISOM
keeps its bits. THM3_1_II is left out: its deficit reads the first block
alone, so the swap changes the link, not just its rounding (it moved by
up to 1.6e16 eps * (1 + scale)).

The perspective is jointly homogeneous, so on the checks built from
perspectives and weighted sums alone, scaling every A and B by 4 scales
every margin by 4, and exactly, since 4 is a power of two.

The perspective's transpose, P_f(A, B) = P_{f*}(B, A) with
f*(t) = t f(1/t), is a relation between two facade calls; the catalog
is closed under f -> f* for neg_log and t_log_t, power(p) and
power(1 - p), and affine(a, b) and affine(b, a).

The perspective is unitarily covariant, P_f(U* A U, U* B U) =
U* P_f(A, B) U for unitary U, and so is every weighted sum: with every A
and B of a field replaced by U* X U, Theta becomes U* Theta U, and
Theorem 2.1's verdict (`loewner_compare`) keeps its margins, which are
eigenvalues, unchanged by a unitary similarity, up to rounding.

It is covariant under every invertible congruence too,
P_f(C* A C, C* B C) = C* P_f(A, B) C, and so is Theta. Drawn with its
condition number capped, C moves both only by rounding; a perspective
whose roots of B are wrong but unitarily covariant fails this relation
alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_field, make_pd
from opdiv import batched, kernels, lab
from opdiv.funcatalog import builtin, quartic
from opdiv.hermitian import (
    PositiveDefiniteMatrix,
    ToleranceConfig,
    congruence,
    loewner_compare,
    unitary_from_rng,
)
from opdiv.lab import GenConfig
from opdiv.perspective import WeightedOperatorField, perspective, theta_divergence

_EPS = np.finfo(float).eps
# A margin may move by at most this many eps times (1 + the link's
# scale), the larger spectral norm of its two sides. The worst moves
# measured over the cases below were 15.3 (THM2_1), 11.1 (COR2_2_SUBADD)
# and 1.5 (THM2_12_GRAD).
_BOUND = 1e2
# The family checks moved by at most 14.0 (THM2_6_CDJ_DELTA), 13.9
# (THM2_10_DOM) and 38.7 (THM3_1_II) at dims 2-8, but the two chains by
# 653.6 (THM3_1_CHAIN) and 137.8 (COR3_4_ISOM) at dim 7, both on the link
# m3 <= m4. Their per-map perspectives take w_i Phi_i(I) as the right
# side, whose condition number is about cond(C_i)^2: 1.4e5 and 2.5e4 on
# those two trials, the worst of each run, while no Gram sum there has a
# condition number above 16. So the moves come from the ill-conditioned
# Gaussians, not from G.
_CHAIN_BOUND = 1e3


def _permuted(record, perm):
    """`record` with its entries or family members in the order `perm`:
    each one's weight, A, B, Gaussian and shrink alike, and the first
    block of a bipartition renamed to match."""
    moved = {}
    for name in ("w", "q"):
        if getattr(record, name) is not None:
            moved[name] = getattr(record, name)[perm]
    for name in ("a", "b"):
        if getattr(record, name) is not None:
            cap, slots = getattr(record, name)
            moved[name] = (cap, [slots[i] for i in perm])
    if record.c is not None:
        moved["c"] = [record.c[i] for i in perm]
    if record.t1 is not None:
        moved["t1"] = sorted(np.argsort(perm)[record.t1].tolist())
    return record._replace(**moved)


def _worst_move(check_id, dim, trials=40, seed=3):
    """The largest move of a link margin, in eps * (1 + scale), when each
    trial's field entries or family members are permuted (a seeded
    permutation per trial), and the violation count of the unpermuted
    trials."""
    tol = ToleranceConfig()
    records = lab.records(check_id, GenConfig(dim=dim, seed=seed, trials=trials))
    perms = [np.random.default_rng(t).permutation(len(r.w)) for t, r in enumerate(records)]
    margins, used, _ = lab.evaluate(check_id, records, tol)
    moved, _, _ = lab.evaluate(check_id, [_permuted(r, p) for r, p in zip(records, perms)], tol)
    scale = (used - tol.abs) / tol.rel
    violations = int(np.count_nonzero(~np.all(margins >= -used, axis=1)))
    return float(np.max(np.abs(moved - margins) / (_EPS * (1.0 + scale)))), violations


@pytest.mark.parametrize("dim", [2, 5, 8])
@pytest.mark.parametrize("check_id", ["THM2_1", "COR2_2_SUBADD", "THM2_12_GRAD"])
def test_permuting_field_entries_moves_margins_only_by_rounding(check_id, dim):
    move, _ = _worst_move(check_id, dim)
    assert move <= _BOUND


def test_the_relation_sees_weights_paired_with_the_wrong_entries(monkeypatch):
    """Self-test: each trial's weights rolled by one within its own
    entries leave THM2_1's verdicts clean, yet pair each weight with
    another entry, which a permutation of the entries exposes."""
    padded = batched._padded

    def rolled(group, name, mask):
        out = padded(group, name, mask)
        for t, count in enumerate(mask.sum(axis=1).tolist()):
            out[t, :count] = np.roll(out[t, :count], 1)
        return out

    monkeypatch.setattr(batched, "_padded", rolled)
    move, violations = _worst_move("THM2_1", 3)
    assert violations == 0
    assert move > _BOUND


@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize(
    "check_id, bound",
    [
        ("THM2_6_CDJ_DELTA", _BOUND),
        ("THM2_10_DOM", _BOUND),
        ("THM3_1_CHAIN", _CHAIN_BOUND),
        ("THM3_1_II", _BOUND),
        ("COR3_4_ISOM", _CHAIN_BOUND),
    ],
)
def test_permuting_family_members_moves_margins_only_by_rounding(check_id, bound, dim):
    move, _ = _worst_move(check_id, dim)
    assert move <= bound


def test_the_relation_sees_shrinks_paired_with_the_wrong_maps(monkeypatch):
    """Self-test: each trial's shrinks rolled by one within its own family
    leave THM2_6_CDJ_DELTA's verdicts clean, yet shrink each map by
    another member's factor, which a permutation of the members exposes."""
    padded = batched._padded

    def rolled(group, name, mask):
        out = padded(group, name, mask)
        if name == "q":
            for t, count in enumerate(mask.sum(axis=1).tolist()):
                out[t, :count] = np.roll(out[t, :count], 1)
        return out

    monkeypatch.setattr(batched, "_padded", rolled)
    for dim in (2, 3, 5, 8):
        move, violations = _worst_move("THM2_6_CDJ_DELTA", dim)
        assert violations == 0
        assert move > _CHAIN_BOUND


def _swapped(record):
    """`record` with its first block replaced by the other block of the
    bipartition: its complement among the record's entries."""
    return record._replace(t1=sorted(set(range(len(record.w))) - set(record.t1)))


def _swap_evaluations(check_id, dim, f, trials=40, seed=3):
    """The (margins, tolerances) of the drawn trials and of the same
    trials with their blocks swapped, and the drawn trials' violation
    count."""
    records = lab.records(check_id, GenConfig(dim=dim, seed=seed, trials=trials), f)
    margins, used, _ = lab.evaluate(check_id, records)
    moved, moved_used, _ = lab.evaluate(check_id, [_swapped(r) for r in records])
    violations = int(np.count_nonzero(~np.all(margins >= -used, axis=1)))
    return (margins, used), (moved, moved_used), violations


@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize("f", [None, quartic()], ids=str)
@pytest.mark.parametrize("check_id", ["COR2_3_SPLIT", "THM3_1_CHAIN", "COR3_4_ISOM"])
def test_swapping_the_blocks_keeps_every_bit(check_id, f, dim):
    drawn, swapped, _ = _swap_evaluations(check_id, dim, f)
    assert all(np.array_equal(x, y) for x, y in zip(drawn, swapped))


def test_the_swap_relation_sees_a_member_dropped_from_the_first_block(monkeypatch):
    """Self-test: the last member of every first block of two or more
    dropped leaves these checks' verdicts clean at dim 3, yet the block
    sums then miss a member only when it is named first, which swapping
    the blocks exposes."""
    first_block = batched._first_block

    def dropped(group, present):
        t1 = first_block(group, present)
        for t, r in enumerate(group):
            if len(r.t1) > 1:
                t1[t, r.t1[-1]] = False
        return t1

    monkeypatch.setattr(batched, "_first_block", dropped)
    for check_id in ("COR2_3_SPLIT", "THM3_1_CHAIN", "COR3_4_ISOM"):
        (margins, _), (moved, _), violations = _swap_evaluations(check_id, 3, None)
        assert violations == 0
        assert not np.array_equal(margins, moved)


def _times_four(record):
    """`record` with the eigenvalues of every A and B slot times 4."""
    (a_cap, a), (b_cap, b) = record.a, record.b
    return record._replace(
        a=(a_cap, [(4.0 * lam, g) for lam, g in a]), b=(b_cap, [(4.0 * lam, g) for lam, g in b])
    )


def _scaled_margins(check_id, dim, f, trials=40, seed=3):
    """The link margins of the drawn trials and of the same trials with
    every A and B slot's eigenvalues times 4, and the violation count of
    the drawn trials."""
    records = lab.records(check_id, GenConfig(dim=dim, seed=seed, trials=trials), f)
    margins, used, _ = lab.evaluate(check_id, records)
    moved, _, _ = lab.evaluate(check_id, [_times_four(r) for r in records])
    violations = int(np.count_nonzero(~np.all(margins >= -used, axis=1)))
    return margins, moved, violations


@pytest.mark.parametrize("dim", [2, 5, 8])
@pytest.mark.parametrize("f", [None, builtin("power", [1.5]), builtin("neg_log")], ids=str)
@pytest.mark.parametrize(
    "check_id", ["THM2_1", "COR2_2_SUBADD", "COR2_3_SPLIT", "THM2_4_MIXTURE", "THM2_12_GRAD"]
)
def test_scaling_a_and_b_by_four_scales_margins_by_four_to_the_bit(check_id, f, dim):
    """A bipartition is unordered too. COR2_3_SPLIT's split and the chains'
m2 are the sum of the two blocks' perspectives, and every other side
reads the whole field or family, so naming the second block first adds
the same two matrices in the other order; float addition commutes, so
every margin and tolerance of COR2_3_SPLIT, THM3_1_CHAIN and COR3_4_ISOM
keeps its bits. THM3_1_II is left out: its deficit reads the first block
alone, so the swap changes the link, not just its rounding (it moved by
up to 1.6e16 eps * (1 + scale)).

The perspective is jointly homogeneous, P_f(tA, tB) = t P_f(A, B)
    for t > 0, and sums and weighted sums are linear. Every side of these
    checks is built from perspectives and weighted sums of the drawn A and
    B alone (THM2_12_GRAD's tangent-line bound f(1) sum w B -
    f'(1) sum w (B - A) is linear in them too), so scaling every A and B
    by 4 scales every link by 4. Checks that normalize a sum to I
    (COR2_2_II), map through a family normalized by its Gram sum or take
    a generalized perspective's h of B are not homogeneous and are left
    out. A power of two scales every float exactly, and the condition cap
    is relative to the largest eigenvalue, so the margins are 4 times the
    drawn ones bit for bit."""
    margins, moved, _ = _scaled_margins(check_id, dim, f)
    assert np.array_equal(moved, 4.0 * margins)


def test_the_scaling_relation_sees_an_absolute_eigenvalue_floor(monkeypatch):
    """Self-test: an absolute floor in place of the relative condition cap
    leaves THM2_1's verdicts clean, yet the floor does not scale with B,
    which the ×4 relation exposes."""
    monkeypatch.setattr(kernels, "capped", lambda vals, cap: np.maximum(vals, 0.5))
    margins, moved, violations = _scaled_margins("THM2_1", 3, None)
    assert violations == 0
    assert not np.array_equal(moved, 4.0 * margins)


def _transpose_error(f, f_star, dim, seed):
    """The relative Frobenius distance between P_f(A, B) and
    P_{f*}(B, A), in eps, for A and B with spectra in [0.1, 4]."""
    rng = np.random.default_rng(seed)
    a, b = make_pd(rng, dim), make_pd(rng, dim)
    p, q = perspective(f, a, b).entries, perspective(f_star, b, a).entries
    return np.linalg.norm(p - q) / np.linalg.norm(p) / _EPS


_COEFFICIENT = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
_TRANSPOSE_PAIRS = st.one_of(
    st.just((builtin("neg_log"), builtin("t_log_t"))),
    st.floats(-1.0, 2.0).map(lambda p: (builtin("power", [p]), builtin("power", [1.0 - p]))),
    st.tuples(_COEFFICIENT, _COEFFICIENT).map(
        lambda ab: (builtin("affine", list(ab)), builtin("affine", list(ab[::-1])))
    ),
)


@settings(max_examples=200, deadline=None)
@given(_TRANSPOSE_PAIRS, st.integers(2, 8), st.integers(0, 10_000))
def test_the_perspective_transposes_into_the_transpose_function(pair, dim, seed):
    """P_f(A, B) = P_{f*}(B, A) within 1e3 eps. The worst measured over
    40 seeds at dims 2-8 was 202 eps, at f = power(-1)."""
    assert _transpose_error(*pair, dim, seed) <= 1e3


def test_the_transpose_relation_sees_a_function_that_is_not_the_transpose():
    """Self-test: power(2) is not neg_log's transpose, t log t."""
    for dim in (2, 5, 8):
        assert _transpose_error(builtin("neg_log"), builtin("power", [2]), dim, 0) > 1e3


def _theorem_2_1(f, field):
    """Theta of the field and Theorem 2.1's verdict, P_f(sum w A, sum w B)
    against Theta, through the facades."""
    theta = theta_divergence(f, field)
    lhs = perspective(f, field.weighted_sum_a(), PositiveDefiniteMatrix(field.weighted_sum_b()))
    return theta, loewner_compare(lhs, theta)


def _unitary_moves(f, dim, seed):
    """The moves, in eps * (1 + scale), when every A and B of a drawn field
    of 2 to 4 entries becomes U* X U: of Theta against U* Theta U, at the
    spectral norm of that, and of the verdict's two margins against the
    drawn ones, at the scale its tolerance was taken at; and whether the
    verdict's relation is the drawn one."""
    rng = np.random.default_rng(seed)
    field = make_field(rng, dim, int(rng.integers(2, 5)))
    u = unitary_from_rng(rng, dim)
    moved = WeightedOperatorField([(w, congruence(u, a), congruence(u, b)) for w, a, b in field])
    (theta, verdict), (theta_u, verdict_u) = (_theorem_2_1(f, x) for x in (field, moved))
    want = congruence(u, theta).entries
    theta_move = np.linalg.norm(theta_u.entries - want, 2) / (1.0 + np.linalg.norm(want, 2))
    tol = ToleranceConfig()
    scale = (verdict.tolerance_used - tol.abs) / tol.rel
    margin_move = max(
        abs(getattr(verdict_u, name) - getattr(verdict, name)) / (1.0 + scale)
        for name in ("margin_low", "margin_high")
    )
    return theta_move / _EPS, margin_move / _EPS, verdict_u.relation == verdict.relation


@pytest.mark.parametrize(
    "f",
    [builtin("square"), builtin("neg_log"), builtin("t_log_t"), builtin("power", [-1]),
     builtin("power", [-0.5]), builtin("power", [1.5]), builtin("identity")],
    ids=lambda f: f.id,
)
def test_theta_and_its_verdict_are_unitarily_covariant(f):
    """Theta moves to U* Theta U, and Theorem 2.1's margins stay, within
    _CHAIN_BOUND eps * (1 + scale), and the verdict keeps its relation, at
    dims 2-8 over seeds 0-4. The worst measured over seeds 0-19 were 187
    (Theta) and 182 (margins), both at power(-1)."""
    for dim in range(2, 9):
        for seed in range(5):
            theta_move, margin_move, same = _unitary_moves(f, dim, seed)
            assert theta_move <= _CHAIN_BOUND and margin_move <= _CHAIN_BOUND, (dim, seed)
            assert same, (dim, seed)


def test_the_unitary_relation_sees_a_dropped_imaginary_part(monkeypatch):
    """Self-test: the perspective's inner matrix built from the real part
    of L, a complex matrix cast to real, keeps Theorem 2.1's verdicts, yet
    the real part of U* A U is not U* Re(A) U, which the unitary relation
    exposes."""
    inner = kernels.inner

    def real_inner(left, right, condition_cap=kernels.CONDITION_CAP):
        return inner(left.real + 0j, right, condition_cap)

    monkeypatch.setattr(kernels, "inner", real_inner)
    for dim in (2, 5, 8):
        theta_move, margin_move, same = _unitary_moves(builtin("square"), dim, 0)
        assert same
        assert theta_move > _CHAIN_BOUND and margin_move > _CHAIN_BOUND


def _capped_congruence(rng, dim, cap=10.0):
    """An invertible C = U diag(s) V* with Haar-random unitaries U and V
    and singular values s drawn from [1, cap], so that cond(C) <= cap."""
    u, v = unitary_from_rng(rng, dim), unitary_from_rng(rng, dim)
    return (u * rng.uniform(1.0, cap, dim)) @ v.conj().T


def _congruence_moves(f, dim, seed):
    """The moves, in eps * (1 + scale), when every A and B of a drawn field
    of 2 to 4 entries becomes C* X C for a C of condition number at most
    10 (`_capped_congruence`): of P_f(L, R) against C* P_f(L, R) C, for
    the field's first (A, B) as (L, R), and of Theta against C* Theta C,
    each at the spectral norm of the latter."""
    rng = np.random.default_rng(seed)
    field = make_field(rng, dim, int(rng.integers(2, 5)))
    c = _capped_congruence(rng, dim)
    moved = WeightedOperatorField([(w, congruence(c, a), congruence(c, b)) for w, a, b in field])
    (_, left, right), (_, left_c, right_c) = field.entries[0], moved.entries[0]
    pairs = (
        (perspective(f, left, right), perspective(f, left_c, right_c)),
        (theta_divergence(f, field), theta_divergence(f, moved)),
    )
    moves = []
    for drawn, got in pairs:
        want = congruence(c, drawn).entries
        moves.append(np.linalg.norm(got.entries - want, 2) / (1.0 + np.linalg.norm(want, 2)) / _EPS)
    return moves


# Over the convex pool at dims 2-8, seeds 0-59, the worst congruence moves
# measured 202 eps * (1 + scale) for P_f (neg_log) and 185 for Theta
# (power(-1)), with cond(C) <= 10.
_CONGRUENCE_BOUND = 5e2


@pytest.mark.parametrize("f", batched._CONVEX_POOL, ids=lambda f: f.id)
def test_the_perspective_and_theta_are_congruence_covariant(f):
    """P_f(C* L C, C* R C) = C* P_f(L, R) C and
    Theta(C* A C, C* B C) = C* Theta(A, B) C for every invertible C, within
    _CONGRUENCE_BOUND eps * (1 + scale) at dims 2-8 over seeds 0-4."""
    for dim in range(2, 9):
        for seed in range(5):
            assert max(_congruence_moves(f, dim, seed)) <= _CONGRUENCE_BOUND, (dim, seed)


def test_the_congruence_relation_sees_the_roots_replaced_by_r(monkeypatch):
    """Self-test: R and R^{-1} in place of R^{1/2} and R^{-1/2} make the
    perspective R f(R^{-1} L R^{-1}) R, which is still unitarily covariant,
    so the unitary relation passes it, but not congruence covariant."""
    rebuild = kernels.rebuild
    monkeypatch.setattr(
        kernels, "sqrt_pair", lambda vals, vecs: (rebuild(vals, vecs), rebuild(1.0 / vals, vecs))
    )
    for dim in (2, 5, 8):
        theta_move, margin_move, _ = _unitary_moves(builtin("square"), dim, 0)
        assert theta_move <= _CHAIN_BOUND and margin_move <= _CHAIN_BOUND
        assert min(_congruence_moves(builtin("square"), dim, 0)) > _CONGRUENCE_BOUND

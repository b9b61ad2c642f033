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
"""

import numpy as np
import pytest

from opdiv import batched, lab
from opdiv.hermitian import ToleranceConfig
from opdiv.lab import GenConfig

_EPS = np.finfo(float).eps
# A margin may move by at most this many eps times (1 + the link's
# scale), the larger spectral norm of its two sides. The worst moves
# measured over the cases below were 15.3 (THM2_1), 11.1 (COR2_2_SUBADD)
# and 1.5 (THM2_12_GRAD).
_BOUND = 1e2


def _permuted(record, perm):
    """`record` with its field entries, A, B and weight alike, in the
    order `perm`."""
    (a_cap, a), (b_cap, b) = record.a, record.b
    return record._replace(
        w=record.w[perm],
        a=(a_cap, [a[i] for i in perm]),
        b=(b_cap, [b[i] for i in perm]),
    )


def _worst_move(check_id, dim, trials=40, seed=3):
    """The largest move of a link margin, in eps * (1 + scale), when each
    trial's field entries are permuted (a seeded permutation per trial),
    and the violation count of the unpermuted trials."""
    check = lab._REGISTRY[check_id]
    gen = GenConfig(dim=dim, seed=seed, trials=trials)
    tol = ToleranceConfig()
    records = [
        check.draw(lab._trial_rng(gen.seed, check_id, t), t, gen, None) for t in range(trials)
    ]
    perms = [np.random.default_rng(t).permutation(len(r.w)) for t, r in enumerate(records)]
    margins, used, _ = check.evaluate(records, tol)
    moved, _, _ = check.evaluate([_permuted(r, p) for r, p in zip(records, perms)], tol)
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

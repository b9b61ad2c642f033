"""The weighted-sum facades of `perspective`, pinned to the bit.

`weighted_sum_a`, `weighted_sum_b`, `theta_divergence` (square and
neg_log), `f_nabla_h` and `gradient_lower_bound` on three seeded fields
of each of 2, 4, 8 and 16 entries at dims 1, 2, 3, 5, 8 and 48, and
`bivariate_calculus` of x^2/y on three seeded pairs of each pair of
dims, equal and unequal, up to tensor dim 64. Dim 1 is
pinned on its own: numpy reduces 1 x 1 matrices over the entry axis
pairwise, not in entry order, so it is where an order-changing sum
shows first. At dim 48 each perspective is a stack of its own
(`kernels.chunks`), so the sum runs across stacks. Each case is the
sha256 (first 32 hex digits) of the bytes of its outputs.
"""

import hashlib

import numpy as np
import pytest

from conftest import make_herm, make_pd
from opdiv.funcatalog import Interval, builtin
from opdiv.perspective import (
    BivariateSpec,
    WeightedOperatorField,
    bivariate_calculus,
    f_nabla_h,
    gradient_lower_bound,
    theta_divergence,
)

SIZES = (2, 4, 8, 16)
_SQUARE, _NEG_LOG = builtin("square"), builtin("neg_log")
_SQRT = builtin("power", [0.5])


def _field(dim: int, size: int, copy: int) -> WeightedOperatorField:
    rng = np.random.default_rng([13, dim, size, copy])
    weights = rng.uniform(0.2, 2.0, size)
    return WeightedOperatorField(
        [(w, make_herm(rng, dim, 0.1, 4.0), make_pd(rng, dim)) for w in weights]
    )


def _mixture(size: int) -> tuple:
    """Probability vectors p and q; p vanishes on entry 1 from 4 entries on,
    so that term is skipped."""
    rng = np.random.default_rng([14, size])
    p, q = rng.uniform(0.1, 1.0, (2, size))
    if size >= 4:
        p[1] = 0.0
    return p / p.sum(), q / q.sum()


_FACADES = {
    "weighted_sum_a": lambda field: field.weighted_sum_a(),
    "weighted_sum_b": lambda field: field.weighted_sum_b(),
    "theta_square": lambda field: theta_divergence(_SQUARE, field),
    "theta_neg_log": lambda field: theta_divergence(_NEG_LOG, field),
    "f_nabla_h": lambda field: f_nabla_h(_SQUARE, _SQRT, field, *_mixture(field.size)),
    "gradient_lower_bound": lambda field: gradient_lower_bound(_NEG_LOG, field),
}


def _digest(facade: str, dims) -> str:
    digest = hashlib.sha256()
    for dim in dims:
        for size in SIZES:
            for copy in range(3):
                out = _FACADES[facade](_field(dim, size, copy)).entries
                digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()[:32]


_PINS = {
    "f_nabla_h": {
        "dim 1": "66034e73b55a0462854b0795be8c4382",
        "dims 2-48": "e1919dbf54f3ab0757fabca5fddb815e",
    },
    "gradient_lower_bound": {
        "dim 1": "3de23035957f43e0c674e755a85892cf",
        "dims 2-48": "8fa3b9b651e60b0f4ede308771e0e7f3",
    },
    "theta_neg_log": {
        "dim 1": "bf36933fc73305b3bc658a1a9c4d2dd0",
        "dims 2-48": "7b18fea8e28721be223fde1c28ffbeed",
    },
    "theta_square": {
        "dim 1": "2d66d4b723fcaafca235579f4e7ad5f9",
        "dims 2-48": "02cb73abb5ddf4f393d2b2735db605ff",
    },
    "weighted_sum_a": {
        "dim 1": "a5ff6c2aa718eba6d5065b638449b882",
        "dims 2-48": "a26ec031dd3b4812b5922eb05116947d",
    },
    "weighted_sum_b": {
        "dim 1": "3f9095e7f0f0cb7d86f7baf1221324d4",
        "dims 2-48": "82538e541933867751a34f27bff04b2c",
    },
}


@pytest.mark.parametrize("facade", sorted(_FACADES))
def test_facade_sums_are_pinned_to_the_bit(facade):
    got = {"dim 1": _digest(facade, (1,)), "dims 2-48": _digest(facade, (2, 3, 5, 8, 48))}
    assert got == _PINS[facade]


_X_SQ_OVER_Y = BivariateSpec(lambda x, y: x * x / y, Interval.nonnegative(), Interval.positive())
_BIVARIATE_DIMS = ((1, 1), (1, 3), (2, 2), (3, 2), (5, 5), (7, 7), (7, 8), (8, 7), (8, 8))


def test_bivariate_calculus_is_pinned_to_the_bit():
    digest = hashlib.sha256()
    for da, db in _BIVARIATE_DIMS:
        for copy in range(3):
            rng = np.random.default_rng([15, da, db, copy])
            a, b = make_herm(rng, da, 0.1, 4.0), make_herm(rng, db, 0.1, 4.0)
            out = bivariate_calculus(_X_SQ_OVER_Y, a, b).entries
            digest.update(np.ascontiguousarray(out).tobytes())
    assert digest.hexdigest()[:32] == "8e4395dc7254747d42373aa139b3e511"

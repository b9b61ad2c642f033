"""The weighted-sum facades of `perspective`, pinned to the bit.

`weighted_sum_a`, `weighted_sum_b`, `theta_divergence` (square and
neg_log), the decomposition of the summed B after Theta, `f_nabla_h` and
`gradient_lower_bound` on three seeded fields of each of 2, 4, 8 and 16
entries at dims 1, 2, 3, 5, 8 and 48; Theta, the summed B and its
decomposition again on fields of 2 and 4 entries at dims 52 and 64; and
`bivariate_calculus` of x^2/y on three seeded pairs of each pair of
dims, equal and unequal, up to tensor dim 64. Dim 1 is
pinned on its own: numpy reduces 1 x 1 matrices over the entry axis
pairwise, not in entry order, so it is where an order-changing sum
shows first. From dim 46 each perspective is a stack of its own
(`kernels.chunks`), so the sum runs across stacks. Each case is the
sha256 (first 32 hex digits) of the bytes of its outputs.
"""

import hashlib

import numpy as np
import pytest

from conftest import make_herm, make_pd
from opdiv.funcatalog import Interval, builtin
from opdiv.hermitian import PositiveDefiniteMatrix, SpectralDecomposition
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


def _sum_b_after_theta(field) -> SpectralDecomposition:
    """The decomposition of the summed B once Theta has run on the field."""
    theta_divergence(_NEG_LOG, field)
    return PositiveDefiniteMatrix(field.weighted_sum_b()).decomposition


_FACADES = {
    "weighted_sum_a": lambda field: field.weighted_sum_a(),
    "weighted_sum_b": lambda field: field.weighted_sum_b(),
    "theta_square": lambda field: theta_divergence(_SQUARE, field),
    "theta_neg_log": lambda field: theta_divergence(_NEG_LOG, field),
    "f_nabla_h": lambda field: f_nabla_h(_SQUARE, _SQRT, field, *_mixture(field.size)),
    "gradient_lower_bound": lambda field: gradient_lower_bound(_NEG_LOG, field),
    "sum_b_after_theta": _sum_b_after_theta,
}


def _arrays(out) -> tuple:
    """A matrix's entries, or a decomposition's eigenvalues and unitary."""
    if isinstance(out, SpectralDecomposition):
        return out.eigenvalues, out.unitary
    return (out.entries,)


def _digest(facade: str, dims, sizes=SIZES) -> str:
    digest = hashlib.sha256()
    for dim in dims:
        for size in sizes:
            for copy in range(3):
                for out in _arrays(_FACADES[facade](_field(dim, size, copy))):
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
    "sum_b_after_theta": {
        "dim 1": "a9328cccba3d18abc5336ef6b51742e2",
        "dims 2-48": "b5828beee06be28a4fec5f8519ea4bac",
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


_LARGE_PINS = {
    "sum_b_after_theta": "08d7cba3097d35b5cc341f07bd0d62a5",
    "theta_neg_log": "07463d2179c78141b20eb80b38789896",
    "theta_square": "17899c1e52e8c221477c864030f1198c",
    "weighted_sum_b": "e4c381de228cce36d9ada9ff529d8f34",
}


@pytest.mark.parametrize("facade", sorted(_LARGE_PINS))
def test_theta_and_the_summed_b_are_pinned_at_dims_52_and_64(facade):
    assert _digest(facade, (52, 64), sizes=(2, 4)) == _LARGE_PINS[facade]


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

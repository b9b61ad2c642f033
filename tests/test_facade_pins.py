"""The weighted-sum facades of `perspective`, pinned to the bit.

`weighted_sum_a`, `weighted_sum_b`, `theta_divergence` (square and
neg_log), the decomposition of the summed B after Theta, `f_nabla_h` and
`gradient_lower_bound` on three seeded fields of each of 2, 4, 8 and 16
entries at dims 1, 2, 3, 5, 8 and 48; Theta, the summed B and its
decomposition again on fields of 2 and 4 entries at dims 52 and 64; and
`bivariate_calculus` of x^2/y on three seeded pairs of each pair of
dims, equal and unequal, up to tensor dim 64; and Theorem 2.1's whole
verdict, Theta, the perspective of the sums and `loewner_compare`'s
margins and tolerance, for each operator convex function of the
divergence benchmark on the fields of dims 1-8. Dim 1 is
pinned on its own: numpy reduces 1 x 1 matrices over the entry axis
pairwise, not in entry order, so it is where an order-changing sum
shows first. At every dim the whole field is one stack, and dims 48-64
pin that its bits are those of one matrix at a time. Each case is the
sha256 (first 32 hex digits) of the bytes of its outputs.
"""

import hashlib

import numpy as np
import pytest

from conftest import make_herm, make_pd
from opdiv.funcatalog import Interval, builtin
from opdiv.hermitian import PositiveDefiniteMatrix, SpectralDecomposition, loewner_compare
from opdiv.perspective import (
    BivariateSpec,
    WeightedOperatorField,
    bivariate_calculus,
    f_nabla_h,
    gradient_lower_bound,
    perspective,
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


# The operator convex functions of the divergence benchmark, as (id, params).
_CONVEX = (
    ("square", ()),
    ("neg_log", ()),
    ("t_log_t", ()),
    ("power", (-1.0,)),
    ("power", (-0.5,)),
    ("power", (1.5,)),
)


def _verdict_digest(f, dims) -> str:
    """Theorem 2.1's verdict P_f(sum w A, sum w B) <= Theta on each field,
    Theta first, as a user runs it: the bytes of Theta, of the perspective
    of the sums and of the margins and tolerance of the comparison."""
    digest = hashlib.sha256()
    for dim in dims:
        for size in SIZES:
            for copy in range(3):
                field = _field(dim, size, copy)
                theta = theta_divergence(f, field)
                right = PositiveDefiniteMatrix(field.weighted_sum_b())
                lhs = perspective(f, field.weighted_sum_a(), right)
                verdict = loewner_compare(lhs, theta)
                digest.update(theta.entries.tobytes())
                digest.update(lhs.entries.tobytes())
                digest.update(np.array([
                    verdict.margin_low, verdict.margin_high, verdict.tolerance_used
                ]).tobytes())
    return digest.hexdigest()[:32]


_VERDICT_PINS = {
    ("square", ()): {
        "dim 1": "9c0043f7195eec62c5075845fbfe2282",
        "dims 2-8": "7c4ebaeacf9254c9b79b9b4e704d8441",
    },
    ("neg_log", ()): {
        "dim 1": "8345e94c0cc062d18cd52eeb47f7b7f1",
        "dims 2-8": "9466350fd09201386305e86ac33f842c",
    },
    ("t_log_t", ()): {
        "dim 1": "d55450a409a5314e44d9207debc4dc8d",
        "dims 2-8": "9f0ea723badb6fdafbc8039b943b0758",
    },
    ("power", (-1.0,)): {
        "dim 1": "cfdf6a6d4979824dc1dca2fc35bcf38f",
        "dims 2-8": "edec1c65078dcce5713c04ef2c2b32d5",
    },
    ("power", (-0.5,)): {
        "dim 1": "1ce2385bd887fa761e7b381481987ec1",
        "dims 2-8": "864b362d582bdf5502a60926fb84c2cd",
    },
    ("power", (1.5,)): {
        "dim 1": "577d7db8f3daa027120ccc8cc4edc095",
        "dims 2-8": "aafdaad5b01e313aff900bcef3182ca8",
    },
}


@pytest.mark.parametrize("spec", _CONVEX, ids=lambda spec: f"{spec[0]}{list(spec[1])}")
def test_theorem_2_1_verdict_is_pinned_to_the_bit(spec):
    f = builtin(spec[0], list(spec[1]))
    got = {"dim 1": _verdict_digest(f, (1,)), "dims 2-8": _verdict_digest(f, (2, 3, 5, 8))}
    assert got == _VERDICT_PINS[spec]

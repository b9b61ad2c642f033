"""The positive-map facades, pinned to the bit.

Every map variant of `posmap` (congruences, square and rectangular;
compressions onto singletons, interior index sets and the full set; a
sum of mixed parts; scaled maps) applied to seeded Hermitian inputs at
dims 2-8, and the identity images of the Example 3.3 field and of a
seeded congruence field. Each case is the sha256 (first 32 hex digits)
of the bytes of its outputs, so any change to how a map applies that
moves one float bit fails here.
"""

import hashlib

import numpy as np
import pytest

from conftest import make_herm
from opdiv.posmap import (
    Compression,
    Congruence,
    MapField,
    MapSum,
    ScaledMap,
    example_33,
    unitality,
)

DIMS = range(2, 9)


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _maps(rng, n: int) -> dict:
    """The maps of each case at input dimension n."""
    k = n - 1
    interior = tuple(range(1, n - 1)) or (1,)
    return {
        "congruence_square": [Congruence(_gaussian(rng, n, n))],
        "congruence_rectangular": [
            Congruence(_gaussian(rng, n, k)),
            Congruence(_gaussian(rng, n, n + 1)),
        ],
        "compression_singleton": [Compression(n, (i,), 0.7) for i in range(n)],
        "compression_interior": [Compression(n, interior, 0.45), Compression(n, (0, n - 1), 1.0)],
        "compression_full": [Compression(n, range(n), 1.0 / 3.0)],
        "sum_mixed": [
            MapSum(
                [
                    Congruence(_gaussian(rng, n, k)),
                    Compression(n, range(1, n), 0.6),
                    ScaledMap(Compression(n, range(k), 0.9), 1.7),
                ]
            )
        ],
        "scaled": [
            ScaledMap(Congruence(_gaussian(rng, n, n)), 0.35),
            ScaledMap(Compression(n, (0,), 0.5), 2.5),
        ],
    }


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:32]


def _applied(case: str) -> str:
    images = []
    for n in DIMS:
        rng = np.random.default_rng([11, n])
        maps = _maps(rng, n)[case]
        for x in (make_herm(rng, n) for _ in range(3)):
            images += [phi.apply(x).entries for phi in maps]
    return _digest(images)


_APPLY_PINS = {
    "congruence_square": "b2cf86dc71889cdbb586be8d0b1f7de7",
    "congruence_rectangular": "ef9934eed67a3c18c7e106961214c6a6",
    "compression_singleton": "660ff817b2eea1706458270c4d550f56",
    "compression_interior": "009c485d1ab84adb3c921430dfaa8772",
    "compression_full": "9672eca5b08c749eb401378ff2e43e73",
    "sum_mixed": "701d24688a7c5fabe453f1c4d282314b",
    "scaled": "9075ae124ada1511a60e99dfb1a8bc42",
}


@pytest.mark.parametrize("case", sorted(_APPLY_PINS))
def test_map_apply_is_pinned_to_the_bit(case):
    assert _applied(case) == _APPLY_PINS[case]


def _congruence_field(n: int) -> MapField:
    rng = np.random.default_rng([12, n])
    weights = rng.uniform(0.2, 2.0, 3)
    return MapField([(w, Congruence(_gaussian(rng, n, n) / (2 * n))) for w in weights])


def _identity_images(field) -> list:
    report = unitality(field)
    flags = np.array([report.is_unital, report.is_subunital])
    return [field.identity_image().entries, report.sum_at_identity.entries, flags]


_FIELD_PINS = {
    "example_33": "a0628e62863c6923ee7da0628eefddd4",
    "congruence_field": "16252c3c7696f3643225f047ef76911a",
}


def test_identity_images_are_pinned_to_the_bit():
    got = {
        "example_33": _digest(_identity_images(example_33().maps)),
        "congruence_field": _digest(
            [a for n in DIMS for a in _identity_images(_congruence_field(n))]
        ),
    }
    assert got == _FIELD_PINS

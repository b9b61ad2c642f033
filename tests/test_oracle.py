"""A 40-digit reference for the perspective and the divergence functional.

mpmath's Hermitian eigensolver (`mp.eighe`) takes the same float inputs
as opdiv and computes R^{1/2} f(R^{-1/2} L R^{-1/2}) R^{1/2} at 40
significant digits. Every perspective of a check goes through the
kernels these facades call, so their error bounds what rounding can hide
from a margin.

The instances are the lab's at its defaults: L has its spectrum in
[0.1, 4] (`GenConfig.spectrum_range`), and R's spectrum runs
geometrically from 4 down to 4 / kappa for a condition number kappa up to
the `GenConfig` cap of 1e4. The error is the largest entry error over the
largest entry of the reference. It must stay at least 1000x below the
default relative tolerance of 1e-8. At these instances it measured at
most 1.8e-12 for a perspective (dim 2, kappa 1e4, neg_log) and 3.0e-13
for Theta. With L's condition number at 1e4 as well, the inner matrix's
reaches 1e8 and the error of power(-0.5) rose to 6e-11 at dim 5: that is
the float conditioning of the problem, outside what the lab samples.
"""

import numpy as np
import pytest
from mpmath import mp

from conftest import make_herm
from opdiv.funcatalog import builtin
from opdiv.hermitian import HermitianMatrix, PositiveDefiniteMatrix, unitary_from_rng
from opdiv.perspective import WeightedOperatorField, perspective, theta_divergence

DIGITS = 40
REL_BOUND = 1e-11
# Each opdiv function with the same function at 40 digits.
FUNCTIONS = (
    (builtin("neg_log"), lambda t: -mp.log(t)),
    (builtin("t_log_t"), lambda t: t * mp.log(t)),
    (builtin("power", [-0.5]), lambda t: t ** mp.mpf(-0.5)),
)


def _instance(rng, dim: int, kappa: float) -> tuple:
    """L with its spectrum drawn from [0.1, 4], and R with the spectrum
    4 * (1, ..., 1 / kappa) in a random order, both with Haar-random
    eigenvectors."""
    left = make_herm(rng, dim, 0.1, 4.0)
    lam = rng.permutation(4.0 * np.geomspace(1.0, 1.0 / kappa, dim))
    u = unitary_from_rng(rng, dim)
    return left, PositiveDefiniteMatrix((u * lam) @ u.conj().T)


def _mp(x: np.ndarray):
    return mp.matrix([[mp.mpc(complex(v)) for v in row] for row in x])


def _calculus(h, fns) -> list:
    """g(H) for each g of `fns`, from one 40-digit decomposition of H."""
    vals, vecs = mp.eighe(h)
    return [vecs * mp.diag([g(v) for v in vals]) * vecs.transpose_conj() for g in fns]


def _reference(left: HermitianMatrix, right: PositiveDefiniteMatrix) -> list:
    """The perspective of each of FUNCTIONS at (L, R), at 40 digits."""
    half, inv_half = _calculus(_mp(right.entries), (mp.sqrt, lambda t: 1 / mp.sqrt(t)))
    x = inv_half * _mp(left.entries) * inv_half
    x = (x + x.transpose_conj()) / 2
    return [half * fx * half for fx in _calculus(x, [g for _, g in FUNCTIONS])]


def _rel_error(got: np.ndarray, want) -> float:
    entries = [(i, j) for i in range(want.rows) for j in range(want.cols)]
    error = max(abs(mp.mpc(complex(got[i, j])) - want[i, j]) for i, j in entries)
    return float(error / max(abs(want[i, j]) for i, j in entries))


@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("dim", [2, 5, 8])
def test_perspective_matches_the_40_digit_reference(dim, kappa):
    rng = np.random.default_rng([21, dim, int(np.log10(kappa))])
    left, right = _instance(rng, dim, kappa)
    with mp.workdps(DIGITS):
        wants = _reference(left, right)
        errors = [
            _rel_error(perspective(f, left, right).entries, want)
            for (f, _), want in zip(FUNCTIONS, wants)
        ]
    assert max(errors) <= REL_BOUND, errors


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_theta_divergence_matches_the_40_digit_reference(dim):
    """A field of three entries whose R have condition numbers 1, 1e2 and
    1e4; at these dims Theta solves the summed B with its inner matrices."""
    rng = np.random.default_rng([22, dim])
    weights = rng.uniform(0.2, 2.0, 3)
    pairs = [_instance(rng, dim, kappa) for kappa in (1.0, 1e2, 1e4)]
    field = WeightedOperatorField([(w, a, b) for w, (a, b) in zip(weights, pairs)])
    with mp.workdps(DIGITS):
        terms = [_reference(a, b) for a, b in pairs]
        errors = []
        for k, (f, _) in enumerate(FUNCTIONS):
            want = sum((mp.mpf(float(w)) * t[k] for w, t in zip(weights, terms)), mp.zeros(dim))
            errors.append(_rel_error(theta_divergence(f, field).entries, want))
    assert max(errors) <= REL_BOUND, errors

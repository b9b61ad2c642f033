"""A 40-digit reference for the perspective, the generalized perspective,
the divergence functional, Theorem 2.1's margin, the bivariate calculus,
the functional calculus and the weighted sum.

mpmath's Hermitian eigensolver (`mp.eighe`) takes the same float inputs
as opdiv and computes R^{1/2} f(R^{-1/2} L R^{-1/2}) R^{1/2} at 40
significant digits. Every perspective of a check goes through the
kernels these facades call, so their error bounds what rounding can hide
from a margin. The margin itself, `loewner_compare`'s margin_low of the
perspective of the sums against Theta, is held to the smallest
eigenvalue of the same difference with both sides taken at 40 digits
from the field's float entries. `bivariate_calculus` is held to
(U (x) V) diag(phi(lam_i, mu_j)) (U (x) V)* from 40-digit
decompositions of A and B.

The instances are the lab's at its defaults: L has its spectrum in
[0.1, 4] (`GenConfig.spectrum_range`), and R's spectrum runs
geometrically from 4 down to 4 / kappa for a condition number kappa up to
the `GenConfig` cap of 1e4. The error is the largest entry error over the
largest entry of the reference. It must stay at least 1000x below the
default relative tolerance of 1e-8. At these instances it measured at
most 1.8e-12 for a perspective (dim 2, kappa 1e4, neg_log) and 3.0e-13
for Theta. The generalized perspective, held to the perspective at h(R)
with h(R) from a 40-digit decomposition of R, measured at most 4.1e-13
over the lab's h pool (dim 5, kappa 1e4, identity h, t log t). With L's
condition number at 1e4 as well, the inner matrix's reaches 1e8 and the error of power(-0.5) rose to 6e-11 at dim 5: that is
the float conditioning of the problem, outside what the lab samples.
The margins lie between 0.8 and 1.8 here, and their error, relative
to the margin, measured at most 3.5e-12 (dim 5, t log t). The bivariate
calculus at tensor dims up to 16 measured at most 3.4e-15, and
`kernels.calculus` of R at most 5.9e-13 (dim 5, kappa 1e4, t^-1/2).
`kernels.field_sum` is held to the classical bound of a recursive sum
instead (see its test).
"""

import functools

import numpy as np
import pytest
from mpmath import mp

from conftest import make_herm
from opdiv import batched, kernels
from opdiv.funcatalog import Interval, builtin
from opdiv.hermitian import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    loewner_compare,
    unitary_from_rng,
)
from opdiv.perspective import (
    BivariateSpec,
    WeightedOperatorField,
    bivariate_calculus,
    f_delta_h,
    perspective,
    theta_divergence,
)

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


def _reference(left, right) -> list:
    """The perspective of each of FUNCTIONS at (L, R), at 40 digits; L and
    R are matrices or 40-digit mpmath matrices."""
    if not isinstance(right, mp.matrix):
        left, right = _mp(left.entries), _mp(right.entries)
    half, inv_half = _calculus(right, (mp.sqrt, lambda t: 1 / mp.sqrt(t)))
    x = inv_half * left * inv_half
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


# Each h of the lab's h pool, by id, with the same function at 40 digits.
H_FUNCTIONS = {
    "identity": lambda t: t,
    "power(0.5)": lambda t: t ** mp.mpf(0.5),
    "power(0.8)": lambda t: t ** mp.mpf(0.8),
    "affine(0.7,0.3)": lambda t: mp.mpf(0.7) * t + mp.mpf(0.3),
}


@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("dim", [2, 5, 8])
def test_f_delta_h_matches_the_40_digit_reference(dim, kappa):
    """The generalized perspective of each of FUNCTIONS at each h of the
    lab's pool, against the 40-digit perspective at h(R)."""
    rng = np.random.default_rng([23, dim, int(np.log10(kappa))])
    left, right = _instance(rng, dim, kappa)
    errors = []
    with mp.workdps(DIGITS):
        for h in batched._H_POOL:
            (h_right,) = _calculus(_mp(right.entries), [H_FUNCTIONS[h.id]])
            wants = _reference(_mp(left.entries), h_right)
            errors += [
                _rel_error(f_delta_h(f, h, left, right).entries, want)
                for (f, _), want in zip(FUNCTIONS, wants)
            ]
    assert max(errors) <= REL_BOUND, errors


@functools.lru_cache(maxsize=None)
def _field_case(dim: int) -> tuple:
    """A field of three entries whose R have condition numbers 1, 1e2 and
    1e4, and at 40 digits, for each of FUNCTIONS, Theta and the
    perspective of the sums."""
    rng = np.random.default_rng([22, dim])
    weights = rng.uniform(0.2, 2.0, 3)
    pairs = [_instance(rng, dim, kappa) for kappa in (1.0, 1e2, 1e4)]
    field = WeightedOperatorField([(w, a, b) for w, (a, b) in zip(weights, pairs)])
    with mp.workdps(DIGITS):
        weights = [mp.mpf(float(w)) for w in weights]
        terms = [_reference(a, b) for a, b in pairs]
        thetas = [
            sum((w * t[k] for w, t in zip(weights, terms)), mp.zeros(dim))
            for k in range(len(FUNCTIONS))
        ]
        sums = [
            sum((w * _mp(x.entries) for w, x in zip(weights, side)), mp.zeros(dim))
            for side in zip(*pairs)
        ]
        return field, thetas, _reference(*sums)


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_theta_divergence_matches_the_40_digit_reference(dim):
    """At these dims Theta solves the summed B with its inner matrices."""
    field, thetas, _ = _field_case(dim)
    with mp.workdps(DIGITS):
        errors = [
            _rel_error(theta_divergence(f, field).entries, want)
            for (f, _), want in zip(FUNCTIONS, thetas)
        ]
    assert max(errors) <= REL_BOUND, errors


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_theorem_2_1_margin_matches_the_40_digit_reference(dim):
    """margin_low of P_f(sum w A, sum w B) <= Theta, the smallest
    eigenvalue of Theta - P_f, against that of the 40-digit sides; its
    error is relative to the margin."""
    field, thetas, lhss = _field_case(dim)
    errors = []
    for (f, _), theta_ref, lhs_ref in zip(FUNCTIONS, thetas, lhss):
        theta = theta_divergence(f, field)
        right = PositiveDefiniteMatrix(field.weighted_sum_b())
        lhs = perspective(f, field.weighted_sum_a(), right)
        got = loewner_compare(lhs, theta).margin_low
        with mp.workdps(DIGITS):
            gap = theta_ref - lhs_ref
            want = min(mp.eighe((gap + gap.transpose_conj()) / 2)[0])
            errors.append(float(abs(got - want) / abs(want)))
    assert max(errors) <= REL_BOUND, errors


# Each bivariate function with the same function at 40 digits.
BIVARIATE = (
    (
        BivariateSpec(lambda x, y: x * x / y, Interval.nonnegative(), Interval.positive()),
        lambda x, y: x * x / y,
    ),
    (
        BivariateSpec(lambda x, y: x * np.log(x / y), Interval.positive(), Interval.positive()),
        lambda x, y: x * mp.log(x / y),
    ),
)


@pytest.mark.parametrize("da, db", [(1, 3), (2, 2), (3, 2), (2, 8), (4, 4)])
def test_bivariate_calculus_matches_the_40_digit_reference(da, db):
    """x^2/y and x log(x/y) on A and B with spectra in [0.1, 4], at tensor
    dims up to 16, the (i, j) pair at tensor index i * dim(B) + j."""
    rng = np.random.default_rng([25, da, db])
    a, b = make_herm(rng, da, 0.1, 4.0), make_herm(rng, db, 0.1, 4.0)
    errors = []
    with mp.workdps(DIGITS):
        (lam, u), (mu, v) = mp.eighe(_mp(a.entries)), mp.eighe(_mp(b.entries))
        carrier = mp.matrix(da * db)
        for p in range(da * db):
            for q in range(da * db):
                carrier[p, q] = u[p // db, q // db] * v[p % db, q % db]
        for spec, phi in BIVARIATE:
            grid = mp.diag([phi(lam[i], mu[j]) for i in range(da) for j in range(db)])
            want = carrier * grid * carrier.transpose_conj()
            errors.append(_rel_error(bivariate_calculus(spec, a, b).entries, want))
    assert max(errors) <= REL_BOUND, errors


@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("dim", [2, 5, 8])
def test_calculus_matches_the_40_digit_reference(dim, kappa):
    """f(R) for each of FUNCTIONS from one decomposition of R
    (`kernels.calculus`), against f on R's 40-digit decomposition."""
    rng = np.random.default_rng([26, dim, int(np.log10(kappa))])
    _, right = _instance(rng, dim, kappa)
    decomposition = kernels.decompose(right.entries)
    with mp.workdps(DIGITS):
        wants = _calculus(_mp(right.entries), [g for _, g in FUNCTIONS])
        errors = [
            _rel_error(kernels.calculus(f, decomposition), want)
            for (f, _), want in zip(FUNCTIONS, wants)
        ]
    assert max(errors) <= REL_BOUND, errors


@pytest.mark.parametrize("k", range(2, 17))
def test_field_sum_matches_the_40_digit_reference(k):
    """sum_i w_i x_i over k complex 3 x 3 terms, about a fifth of them left
    out by the mask, in each of four stacks (`kernels.field_sum`), against
    the 40-digit sum of the same float terms. Each entry's error, relative
    to sum_i |w_i x_i|, stays within k * eps, the classical bound of a
    recursive sum of rounded products; it measured at most 1.9e-16."""
    rng = np.random.default_rng([27, k])
    x = rng.standard_normal((4, k, 3, 3)) + 1j * rng.standard_normal((4, k, 3, 3))
    w = rng.uniform(0.2, 2.0, (4, k))
    mask = rng.uniform(size=(4, k)) < 0.8
    got = kernels.field_sum(x, mask, w)
    errors = []
    with mp.workdps(DIGITS):
        for t, i, j in np.ndindex(4, 3, 3):
            terms = [mp.mpf(float(w[t, e])) * mp.mpc(complex(x[t, e, i, j]))
                     for e in range(k) if mask[t, e]]
            error = abs(mp.mpc(complex(got[t, i, j])) - sum(terms, mp.mpc(0)))
            errors.append(float(error / sum(abs(term) for term in terms)) if terms else float(error))
    assert max(errors) <= k * np.finfo(float).eps, max(errors)

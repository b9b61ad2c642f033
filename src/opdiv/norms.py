"""Singular values, Ky Fan k-norms and Fan dominance.

Fan dominance across every k certifies inequality in all unitarily
invariant norms, which is how the norm-level consequences of the
perspective inequalities are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadK, BadRange, ShapeMismatch
from .hermitian import HermitianMatrix, ToleranceConfig


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values in descending order."""

    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _as_array(a) -> np.ndarray:
    """The entries of `a`, a square matrix with at least one row and
    finite entries; ShapeMismatch for any other shape, as for a
    `HermitianMatrix`, and BadRange for a non-finite entry, as for a
    `Congruence`."""
    if isinstance(a, HermitianMatrix):
        return a.entries
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ShapeMismatch(f"expected a nonempty square matrix, got shape {arr.shape}")
    if not kernels.all_finite(arr):
        raise BadRange("matrix has non-finite entries")
    return arr


def singular_values(a) -> SingularSpectrum:
    """Eigenvalues of (A* A)^{1/2}, descending.

    Computed from the eigenvalues of A* A with a negative clip at zero
    before the square root; for Hermitian input this equals the sorted
    absolute eigenvalues. NumericalFailure if A* A overflows.
    """
    vals = kernels.singular_values(_as_array(a)).copy()
    vals.flags.writeable = False
    return SingularSpectrum(vals)


def ky_fan(a, k: int) -> float:
    """Sum of the k largest singular values."""
    spectrum = singular_values(a)
    if not 1 <= k <= spectrum.dim:
        raise BadK(f"k must be in 1..{spectrum.dim}, got {k}")
    return float(spectrum.values[:k].sum())


def spectral_norm(a) -> float:
    return ky_fan(a, 1)


def trace_norm(a) -> float:
    return ky_fan(a, _as_array(a).shape[0])


def ky_fan_dominates(a, b, tol: ToleranceConfig = ToleranceConfig()) -> bool:
    """True iff the Ky Fan norms of A stay below those of B for every k.

    By Fan dominance that certifies |||A||| <= |||B||| in all unitarily
    invariant norms.
    """
    arr_a = _as_array(a)
    arr_b = _as_array(b)
    if arr_a.shape != arr_b.shape:
        raise ShapeMismatch(f"shape mismatch {arr_a.shape} vs {arr_b.shape}")
    sa = singular_values(arr_a).values
    sb = singular_values(arr_b).values
    slack = tol.at_scale(max(float(sa[0]), float(sb[0])))
    return bool(np.all(np.cumsum(sa) <= np.cumsum(sb) + slack))

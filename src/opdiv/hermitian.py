"""Dense complex Hermitian matrix algebra.

Spectral decomposition, functional calculus, congruence, Kronecker
products and Loewner-order comparison. All values are immutable after
construction and all operations are pure functions, so instances can be
shared freely between threads. The constructions are validating facades
over the stacked kernels in `kernels`, called with a single matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import kernels
from .errors import BadRange, NotHermitian, ShapeMismatch, SizeLimit
from .kernels import DECOMP_TOL, DOMAIN_CLAMP_TOL, PD_FLOOR  # noqa: F401  (re-exported)

if TYPE_CHECKING:  # pragma: no cover
    from .funcatalog import ScalarOperatorFunction

SYMMETRY_TOL = 1e-12
UNITALITY_TOL = 1e-10
KRON_CAP = 64


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute plus relative slack used by every Loewner comparison."""

    abs: float = 1e-8
    rel: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.abs) and math.isfinite(self.rel)):
            raise ValueError(f"tolerances must be finite, got abs={self.abs}, rel={self.rel}")
        if self.abs < 0 or self.rel < 0:
            raise ValueError("tolerances must be nonnegative")

    def at_scale(self, scale: float) -> float:
        return self.abs + self.rel * scale


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class HermitianMatrix:
    """A dense complex square matrix with ||H - H*|| below tolerance.

    Stored entries are the symmetrized form (H + H*) / 2. Real input is
    embedded with zero imaginary parts.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeMismatch(f"expected a square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NotHermitian("matrix has non-finite entries")
        scale = max(1.0, float(np.linalg.norm(arr)))
        skew = float(np.linalg.norm(arr - arr.conj().T))
        if skew > SYMMETRY_TOL * scale:
            raise NotHermitian(
                f"matrix deviates from Hermitian symmetry by {skew:.3e} "
                f"(allowed {SYMMETRY_TOL * scale:.3e})"
            )
        self._entries = _frozen(kernels.hermitian_part(arr))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "HermitianMatrix":
        """Trusted constructor: `arr` must already be exactly Hermitian."""
        out = object.__new__(cls)
        out._entries = _frozen(np.asarray(arr, dtype=complex))
        return out

    @classmethod
    def identity(cls, dim: int) -> "HermitianMatrix":
        return cls._wrap(np.eye(dim, dtype=complex))

    @classmethod
    def zeros(cls, dim: int) -> "HermitianMatrix":
        return cls._wrap(np.zeros((dim, dim), dtype=complex))

    @classmethod
    def diagonal(cls, values: Iterable[float]) -> "HermitianMatrix":
        return cls._wrap(np.diag(np.asarray(list(values), dtype=float)).astype(complex))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def norm_fro(self) -> float:
        return float(np.linalg.norm(self._entries))

    def norm_two(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self._entries))))

    def trace(self) -> float:
        return float(np.trace(self._entries).real)

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ShapeMismatch("dimension mismatch in matrix sum")
        return HermitianMatrix._wrap(self._entries + other._entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ShapeMismatch("dimension mismatch in matrix difference")
        return HermitianMatrix._wrap(self._entries - other._entries)

    def __mul__(self, c: float) -> "HermitianMatrix":
        """The matrix times c; BadRange if the product is not finite, for
        a NaN or infinite c or one under which an entry overflows."""
        c = float(c)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._entries * c
        if not np.isfinite(out).all():
            raise BadRange(f"scalar factor {c} gives a non-finite matrix")
        return HermitianMatrix._wrap(out)

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianMatrix":
        return HermitianMatrix._wrap(-self._entries)

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def hermitian_part(arr: np.ndarray) -> HermitianMatrix:
    """Symmetrize an almost-Hermitian product (A + A*) / 2."""
    return HermitianMatrix._wrap(kernels.hermitian_part(arr))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order plus the diagonalizing unitary."""

    eigenvalues: np.ndarray
    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def rebuild(self, values: np.ndarray) -> HermitianMatrix:
        """U diag(values) U*, symmetrized."""
        return HermitianMatrix._wrap(kernels.rebuild(values, self.unitary))


class PositiveDefiniteMatrix:
    """Hermitian matrix whose smallest eigenvalue clears the strict floor."""

    __slots__ = ("_base", "_decomp", "_min_eigenvalue", "_condition_number")

    def __init__(self, base):
        if not isinstance(base, HermitianMatrix):
            base = HermitianMatrix(base)
        vals, vecs = kernels.positive(base.entries)
        lam_min = float(vals[-1])
        lam_max = float(vals[0])
        self._base = base
        self._decomp = SpectralDecomposition(_frozen(vals), _frozen(vecs))
        self._min_eigenvalue = lam_min
        self._condition_number = lam_max / lam_min

    @property
    def base(self) -> HermitianMatrix:
        return self._base

    @property
    def entries(self) -> np.ndarray:
        return self._base.entries

    @property
    def dim(self) -> int:
        return self._base.dim

    @property
    def min_eigenvalue(self) -> float:
        return self._min_eigenvalue

    @property
    def condition_number(self) -> float:
        return self._condition_number

    @property
    def decomposition(self) -> SpectralDecomposition:
        return self._decomp

    def sqrt_pair(self) -> tuple[HermitianMatrix, HermitianMatrix]:
        """(R^{1/2}, R^{-1/2}) from one shared spectral decomposition."""
        d = self._decomp
        half, inv_half = kernels.sqrt_pair(d.eigenvalues, d.unitary)
        return HermitianMatrix._wrap(half), HermitianMatrix._wrap(inv_half)

    def __repr__(self) -> str:
        return (
            f"PositiveDefiniteMatrix(dim={self.dim}, "
            f"min_eig={self._min_eigenvalue:.3e}, cond={self._condition_number:.3e})"
        )


class LoewnerRelation(Enum):
    LESS_OR_EQUAL = "LessOrEqual"
    GREATER_OR_EQUAL = "GreaterOrEqual"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of comparing A against B in the Loewner order.

    margin_low is the smallest eigenvalue of B - A (how far A <= B holds),
    margin_high the smallest eigenvalue of A - B. Margins are reported
    exactly as computed; the relation applies `tolerance_used` slack.
    """

    relation: LoewnerRelation
    margin_low: float
    margin_high: float
    tolerance_used: float

    @property
    def holds_le(self) -> bool:
        return self.margin_low >= -self.tolerance_used

    @property
    def holds_ge(self) -> bool:
        return self.margin_high >= -self.tolerance_used


def spectral_decompose(h: HermitianMatrix) -> SpectralDecomposition:
    """Eigendecomposition with eigenvalues sorted in descending order.

    Raises NumericalFailure if the solver does not converge or the
    reconstruction/unitarity residuals exceed their bounds.
    """
    vals, vecs = kernels.decompose(h.entries)
    return SpectralDecomposition(_frozen(vals), _frozen(vecs))


def apply_function(f: "ScalarOperatorFunction", h: HermitianMatrix) -> HermitianMatrix:
    """Functional calculus f(H) = U f(diag lambda) U*.

    Eigenvalues within 1e-9 * max(1, ||H||_2) of a closed domain endpoint
    are clamped onto it; anything farther outside raises DomainViolation.
    """
    return HermitianMatrix._wrap(kernels.apply_function(f, h.entries))


def congruence(c: np.ndarray, x: HermitianMatrix) -> HermitianMatrix:
    """C* X C, symmetrized. C may be rectangular (dim(X) by out_dim)."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[0] != x.dim:
        raise ShapeMismatch(
            f"congruence matrix of shape {c.shape} cannot act on dimension {x.dim}"
        )
    return HermitianMatrix._wrap(kernels.congruence(c, x.entries))


def loewner_compare(
    a: HermitianMatrix, b: HermitianMatrix, tol: ToleranceConfig = ToleranceConfig()
) -> LoewnerVerdict:
    """Compare A and B in the Loewner order under abs+rel tolerance."""
    if a.dim != b.dim:
        raise ShapeMismatch(f"cannot compare dimensions {a.dim} and {b.dim}")
    low, high, used = kernels.loewner(a.entries, b.entries, tol)
    margin_low, margin_high, tolerance_used = float(low), float(high), float(used)
    le = margin_low >= -tolerance_used
    ge = margin_high >= -tolerance_used
    if le and ge:
        relation = LoewnerRelation.EQUAL
    elif le:
        relation = LoewnerRelation.LESS_OR_EQUAL
    elif ge:
        relation = LoewnerRelation.GREATER_OR_EQUAL
    else:
        relation = LoewnerRelation.INCOMPARABLE
    return LoewnerVerdict(relation, margin_low, margin_high, tolerance_used)


def kronecker(
    a: HermitianMatrix, b: HermitianMatrix, size_cap: int = KRON_CAP
) -> HermitianMatrix:
    """Kronecker product A (x) B with the row-major (i, j) index order."""
    total = a.dim * b.dim
    if not total <= size_cap:
        raise SizeLimit(f"tensor dimension {total} exceeds cap {size_cap}")
    return HermitianMatrix._wrap(np.kron(a.entries, b.entries))


def raw_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """The real and the imaginary parts of a standard complex Gaussian
    matrix, side by side with shape (2, rows, cols), from one RNG call:
    the same stream as drawing the real parts first, then the imaginary
    ones. `kernels.complex_pair` assembles the matrix."""
    return rng.standard_normal((2, rows, cols))


def unitary_from_rng(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unitary factor of a random Gaussian Hermitian matrix."""
    gaussian = kernels.complex_pair(raw_gaussian(rng, dim, dim))
    _, vecs = np.linalg.eigh(kernels.hermitian_part(gaussian))
    return vecs


def raw_spectrum(rng: np.random.Generator, dim: int, lo: float, hi: float) -> tuple:
    """The RNG output behind a random Hermitian matrix with spectrum in
    [lo, hi]: uniform eigenvalues, then the `raw_gaussian` whose Hermitian
    part carries the eigenvectors. `kernels.from_spectrum` builds a whole
    stack of them with one eigendecomposition call.

    For lo == hi nothing is drawn: the spectrum is (lo, ..., lo) and the
    Gaussian is zero, which carries the identity as eigenvectors, so
    `kernels.from_spectrum` builds lo * I exactly."""
    if lo == hi:
        return np.full(dim, float(lo)), np.zeros((2, dim, dim))
    return rng.uniform(lo, hi, dim), raw_gaussian(rng, dim, dim)


# ---------------------------------------------------------------------------
# Matrix JSON format: {"dim": n, "rows": [[[re, im], ...], ...]}
# Real matrices may use bare numbers in place of [re, im].
# ---------------------------------------------------------------------------


def array_to_rows(arr: np.ndarray) -> list:
    """Encode a complex 2-D array as nested JSON rows."""
    arr = np.asarray(arr, dtype=complex)
    if np.all(arr.imag == 0):
        return [[float(v.real) for v in row] for row in arr]
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def rows_to_array(rows: Sequence) -> np.ndarray:
    """Decode nested JSON rows into a complex 2-D array."""
    def scan(entry):
        if isinstance(entry, (int, float)):
            return complex(entry)
        if isinstance(entry, (list, tuple)) and len(entry) == 2:
            return complex(float(entry[0]), float(entry[1]))
        raise ValueError(f"bad matrix entry {entry!r}")

    return np.array([[scan(v) for v in row] for row in rows], dtype=complex)


def matrix_to_json(h: HermitianMatrix) -> dict:
    return {"dim": h.dim, "rows": array_to_rows(h.entries)}


def matrix_from_json(obj: dict) -> HermitianMatrix:
    arr = rows_to_array(obj["rows"])
    if "dim" in obj and int(obj["dim"]) != arr.shape[0]:
        raise ValueError(f"declared dim {obj['dim']} does not match rows {arr.shape}")
    return HermitianMatrix(arr)

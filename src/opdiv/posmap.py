"""Positive linear maps and weighted map fields.

Maps form a closed variant union (congruence, scaled principal-submatrix
compression, sum, scaling), so positivity holds by construction and a
failed inequality check indicts the theorem encoding rather than a
user-supplied map. A congruence and a compression apply through the
stacked kernels (`kernels.congruence`, `kernels.compress`) on its one
matrix, so a map object gives the bits of the stacked maps that the
verification lab applies. Includes exact constructors for the worked
three-map compression example used as the library's sharpness fixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import BadRange, NotUnital, ShapeMismatch
from .hermitian import (
    UNITALITY_TOL,
    HermitianMatrix,
    ToleranceConfig,
    array_to_rows,
    loewner_compare,
    rows_to_array,
)


class PositiveLinearMap:
    """Base of the closed map union; subclasses implement `apply`."""

    in_dim: int
    out_dim: int

    def apply(self, x: HermitianMatrix) -> HermitianMatrix:
        raise NotImplementedError

    def _check_input(self, x: HermitianMatrix) -> None:
        if x.dim != self.in_dim:
            raise ShapeMismatch(f"map expects dimension {self.in_dim}, got {x.dim}")

    def to_json(self) -> dict:
        raise NotImplementedError


class Congruence(PositiveLinearMap):
    """X -> C* X C for a dense (possibly rectangular) matrix C."""

    __slots__ = ("matrix", "in_dim", "out_dim")

    def __init__(self, matrix):
        arr = np.asarray(matrix, dtype=complex)
        if arr.ndim != 2:
            raise ShapeMismatch("congruence needs a 2-D matrix")
        if not np.isfinite(arr).all():
            raise BadRange("congruence matrix has non-finite entries")
        self.matrix = arr
        self.in_dim = arr.shape[0]
        self.out_dim = arr.shape[1]

    def apply(self, x: HermitianMatrix) -> HermitianMatrix:
        self._check_input(x)
        return HermitianMatrix._wrap(kernels.congruence(self.matrix, x.entries))

    def to_json(self) -> dict:
        return {"variant": "congruence", "rows": array_to_rows(self.matrix)}


class Compression(PositiveLinearMap):
    """Extract the principal submatrix on `indices`, multiplied by `scale`."""

    __slots__ = ("indices", "scale", "in_dim", "out_dim")

    def __init__(self, in_dim: int, indices: Sequence[int], scale: float):
        indices = tuple(sorted(int(i) for i in indices))
        if not indices:
            raise BadRange("compression needs at least one index")
        if len(set(indices)) != len(indices):
            raise BadRange("compression indices must be distinct")
        if indices[0] < 0 or indices[-1] >= in_dim:
            raise BadRange(f"indices {indices} outside 0..{in_dim - 1}")
        if not 0 < scale < math.inf:
            raise BadRange(f"compression scale must be positive and finite, got {scale}")
        self.indices = indices
        self.scale = float(scale)
        self.in_dim = int(in_dim)
        self.out_dim = len(indices)

    def apply(self, x: HermitianMatrix) -> HermitianMatrix:
        self._check_input(x)
        ix = np.asarray(self.indices)
        return HermitianMatrix._wrap(kernels.compress(ix, self.scale, x.entries))

    def to_json(self) -> dict:
        return {
            "variant": "compression",
            "in_dim": self.in_dim,
            "indices": list(self.indices),
            "scale": self.scale,
        }


class MapSum(PositiveLinearMap):
    """Pointwise sum of maps with common input/output dimensions."""

    __slots__ = ("parts", "in_dim", "out_dim")

    def __init__(self, parts: Sequence[PositiveLinearMap]):
        parts = tuple(parts)
        if not parts:
            raise BadRange("map sum needs at least one part")
        in_dim, out_dim = parts[0].in_dim, parts[0].out_dim
        for p in parts[1:]:
            if p.in_dim != in_dim or p.out_dim != out_dim:
                raise ShapeMismatch("map sum parts must share dimensions")
        self.parts = parts
        self.in_dim = in_dim
        self.out_dim = out_dim

    def apply(self, x: HermitianMatrix) -> HermitianMatrix:
        images = kernels.stack([p.apply(x).entries for p in self.parts])
        return HermitianMatrix._wrap(kernels.field_sum(images[None])[0])

    def to_json(self) -> dict:
        return {"variant": "sum", "parts": [p.to_json() for p in self.parts]}


class ScaledMap(PositiveLinearMap):
    """c * inner map for c > 0."""

    __slots__ = ("inner", "factor", "in_dim", "out_dim")

    def __init__(self, inner: PositiveLinearMap, factor: float):
        if not 0 < factor < math.inf:
            raise BadRange(f"scale factor must be positive and finite, got {factor}")
        self.inner = inner
        self.factor = float(factor)
        self.in_dim = inner.in_dim
        self.out_dim = inner.out_dim

    def apply(self, x: HermitianMatrix) -> HermitianMatrix:
        return self.factor * self.inner.apply(x)

    def to_json(self) -> dict:
        return {"variant": "scaled", "factor": self.factor, "inner": self.inner.to_json()}


def map_from_json(obj: dict) -> PositiveLinearMap:
    variant = obj.get("variant")
    if variant == "congruence":
        return Congruence(rows_to_array(obj["rows"]))
    if variant == "compression":
        return Compression(int(obj["in_dim"]), obj["indices"], float(obj["scale"]))
    if variant == "sum":
        return MapSum([map_from_json(p) for p in obj["parts"]])
    if variant == "scaled":
        return ScaledMap(map_from_json(obj["inner"]), float(obj["factor"]))
    raise BadRange(f"unknown map variant {variant!r}")


def _unitality_error(image: np.ndarray) -> np.ndarray:
    """Spectral-norm distance of each identity image of a stack from I;
    inf for an image with a non-finite entry, which has no SVD."""
    diff = image - np.eye(image.shape[-1])
    finite = np.isfinite(diff).all(axis=(-2, -1))
    err = np.linalg.norm(np.where(finite[..., None, None], diff, 0.0), ord=2, axis=(-2, -1))
    return np.where(finite, err, np.inf)


def check_unital(image: np.ndarray) -> None:
    """Raise NotUnital unless every identity image sum_i w_i Phi_i(I) of
    the stack is within UNITALITY_TOL of I."""
    err = _unitality_error(image)
    bad = np.flatnonzero(~(err <= UNITALITY_TOL))
    if bad.size:
        raise NotUnital(f"identity image deviates from I by {np.ravel(err)[bad[0]]:.3e}")


def apply_map(phi: PositiveLinearMap, x: HermitianMatrix) -> HermitianMatrix:
    """Apply a positive linear map; linearity and positivity come for free."""
    return phi.apply(x)


class MapField:
    """Weighted family of positive linear maps with shared dimensions."""

    __slots__ = ("_entries", "unital")

    def __init__(self, entries, unital: bool = False):
        pairs = []
        in_dim = out_dim = None
        for w, phi in entries:
            w = float(w)
            if not 0 < w < math.inf:
                raise BadRange(f"map weights must be positive and finite, got {w}")
            if in_dim is None:
                in_dim, out_dim = phi.in_dim, phi.out_dim
            if phi.in_dim != in_dim or phi.out_dim != out_dim:
                raise ShapeMismatch("map field entries must share dimensions")
            pairs.append((w, phi))
        if not pairs:
            raise BadRange("map field needs at least one entry")
        self._entries = tuple(pairs)
        self.unital = bool(unital)
        if self.unital:
            check_unital(self._identity_image())

    @property
    def entries(self) -> tuple:
        return self._entries

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def in_dim(self) -> int:
        return self._entries[0][1].in_dim

    @property
    def out_dim(self) -> int:
        return self._entries[0][1].out_dim

    def _identity_image(self) -> np.ndarray:
        eye = HermitianMatrix.identity(self.in_dim)
        images = kernels.stack([phi.apply(eye).entries for _, phi in self._entries])
        weights = np.array([w for w, _ in self._entries])
        return kernels.field_sum(images[None], w=weights[None])[0]

    def identity_image(self) -> HermitianMatrix:
        """sum_i w_i Phi_i(I); BadRange if it overflows to a non-finite
        matrix. A unital field is refused at construction instead, with
        NotUnital."""
        image = self._identity_image()
        if not np.isfinite(image).all():
            raise BadRange("identity image has non-finite entries")
        return HermitianMatrix._wrap(image)

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def to_json(self) -> dict:
        return {
            "entries": [{"w": w, "map": phi.to_json()} for w, phi in self._entries],
            "unital": self.unital,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MapField":
        entries = [(float(e["w"]), map_from_json(e["map"])) for e in obj["entries"]]
        return cls(entries, bool(obj.get("unital", False)))


@dataclass(frozen=True)
class UnitalityReport:
    sum_at_identity: HermitianMatrix
    is_unital: bool
    is_subunital: bool


def unitality(field: MapField, tol: ToleranceConfig = ToleranceConfig()) -> UnitalityReport:
    """Evaluate sum_i w_i Phi_i(I) and classify it against I."""
    image = field.identity_image()
    eye = HermitianMatrix.identity(field.out_dim)
    err = float(_unitality_error(image.entries))
    is_unital = err <= UNITALITY_TOL
    is_subunital = loewner_compare(image, eye, tol).holds_le
    return UnitalityReport(image, is_unital, is_subunital)


@dataclass(frozen=True)
class Example33:
    """The exact sharpness fixture: three 3x3 operators, three scaled
    principal-submatrix compressions summing to the identity on 2x2,
    the index bipartition, and the four expected chain matrices."""

    operators: tuple
    maps: MapField
    partition: tuple
    expected_chain: tuple


def example_33() -> Example33:
    """Exact fixture data; all entries are small integers or thirds."""
    a1 = HermitianMatrix(3 * np.array([[2, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float))
    a2 = HermitianMatrix(3 * np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float))
    a3 = HermitianMatrix(3 * np.array([[1, 0, 1], [0, 0, 1], [1, 1, 1]], dtype=float))
    third = 1.0 / 3.0
    phi1 = Compression(3, (0, 1), third)
    phi2 = Compression(3, (1, 2), third)
    phi3 = Compression(3, (1, 2), third)
    maps = MapField([(1.0, phi1), (1.0, phi2), (1.0, phi3)], unital=True)
    expected = (
        HermitianMatrix(np.array([[10.0, 5.0], [5.0, 5.0]])),
        HermitianMatrix(np.array([[15.0, 3.0], [3.0, 6.0]])),
        HermitianMatrix(np.array([[18.0, 3.0], [3.0, 9.0]])),
        HermitianMatrix(np.array([[21.0, 3.0], [3.0, 15.0]])),
    )
    return Example33(
        operators=(a1, a2, a3),
        maps=maps,
        partition=((0,), (1, 2)),
        expected_chain=expected,
    )

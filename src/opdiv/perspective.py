"""Operator perspective functions and the matrix f-divergence functional.

The core constructions: the perspective g(L, R), its weighted-field sum
(the divergence functional), the generalized perspectives built through a
second scalar function h, bivariate functional calculus on tensor
products, and the differentiable tangent-line lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import (
    BadRange,
    DerivativeRequired,
    DomainViolation,
    EmptyField,
    NotProbability,
    ShapeMismatch,
    SizeLimit,
)
from .funcatalog import Interval, ScalarOperatorFunction
from .hermitian import (
    KRON_CAP,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    matrix_from_json,
    matrix_to_json,
)
from .kernels import CONDITION_CAP

PROBABILITY_TOL = 1e-12


class WeightedOperatorField:
    """Finite list of (weight, A, B) triples of matching dimension.

    A entries are Hermitian, B entries strictly positive; weights are the
    discrete measure. When `probability_normalized` the weights must sum
    to one.
    """

    __slots__ = ("_entries", "probability_normalized")

    def __init__(self, entries, probability_normalized: bool = False):
        triples = []
        dim = None
        for w, a, b in entries:
            w = float(w)
            if not 0 < w < math.inf:
                raise BadRange(f"field weights must be positive and finite, got {w}")
            if not isinstance(a, HermitianMatrix):
                a = HermitianMatrix(a)
            if not isinstance(b, PositiveDefiniteMatrix):
                b = PositiveDefiniteMatrix(b)
            if dim is None:
                dim = a.dim
            if a.dim != dim or b.dim != dim:
                raise ShapeMismatch("all field entries must share one dimension")
            triples.append((w, a, b))
        if probability_normalized:
            total = sum(w for w, _, _ in triples)
            if not abs(total - 1.0) <= PROBABILITY_TOL:
                raise NotProbability(f"weights sum to {total!r}, expected 1")
        self._entries = tuple(triples)
        self.probability_normalized = bool(probability_normalized)

    @property
    def entries(self) -> tuple:
        return self._entries

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def dim(self) -> int:
        if not self._entries:
            raise EmptyField("field has no entries")
        return self._entries[0][1].dim

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _, _ in self._entries], dtype=float)

    def weighted_sum_a(self) -> HermitianMatrix:
        return self._weighted_sum([a.entries for _, a, _ in self._entries])

    def weighted_sum_b(self) -> HermitianMatrix:
        return self._weighted_sum([b.entries for _, _, b in self._entries])

    def _weighted_sum(self, matrices) -> HermitianMatrix:
        """sum_t w_t X_t of one matrix X_t per entry."""
        if not self._entries:
            raise EmptyField("field has no entries")
        return _weighted(self.weights, kernels.stack(matrices))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


def _weighted(w, terms) -> HermitianMatrix:
    """sum_t w_t X_t of the stack `terms` of the X_t, in order from zero
    (`kernels.field_sum`)."""
    return HermitianMatrix._wrap(kernels.field_sum(terms[None], w=w[None])[0])


@dataclass(frozen=True)
class BivariateSpec:
    """A scalar function of two variables on a domain rectangle."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain_x: Interval
    domain_y: Interval


def perspective(
    f: ScalarOperatorFunction,
    left: HermitianMatrix,
    right: PositiveDefiniteMatrix,
    condition_cap: float = CONDITION_CAP,
) -> HermitianMatrix:
    """R^{1/2} f(R^{-1/2} L R^{-1/2}) R^{1/2}.

    Both square roots come from one spectral decomposition of R, so the
    sandwich is numerically consistent. The congruence form is used even
    when L and R commute.
    """
    if left.dim != right.dim:
        raise ShapeMismatch(f"dimension mismatch {left.dim} vs {right.dim}")
    d = right.decomposition
    return HermitianMatrix._wrap(
        kernels.perspective(f, left.entries, (d.eigenvalues, d.unitary), condition_cap)
    )


def theta_divergence(
    f: ScalarOperatorFunction, field: WeightedOperatorField
) -> HermitianMatrix:
    """Weighted sum of perspectives over the field.

    In dimension one with unit weights this is the classical scalar
    f-divergence sum q_t f(p_t / q_t). The perspectives are computed in
    stacks of entries (`kernels.chunks`) and summed in field order.
    """
    if field.size == 0:
        raise EmptyField("divergence functional needs at least one field entry")
    terms = []
    for span in kernels.chunks(field.size, field.dim):
        chunk = field.entries[span.start : span.stop]
        right = (
            kernels.stack([b.decomposition.eigenvalues for _, _, b in chunk]),
            kernels.stack([b.decomposition.unitary for _, _, b in chunk]),
        )
        terms.append(kernels.perspective(f, kernels.stack([a.entries for _, a, _ in chunk]), right))
    return _weighted(field.weights, np.concatenate(terms))


def f_delta_h(
    f: ScalarOperatorFunction,
    h: ScalarOperatorFunction,
    left: HermitianMatrix,
    right: HermitianMatrix,
) -> HermitianMatrix:
    """h(R)^{1/2} f(h(R)^{-1/2} L h(R)^{-1/2}) h(R)^{1/2}.

    With h = identity this reduces exactly to the perspective of f.
    """
    if left.dim != right.dim:
        raise ShapeMismatch(f"dimension mismatch {left.dim} vs {right.dim}")
    kernels.flagged_positive(h)
    right_dec = kernels.decompose(right.entries)
    return HermitianMatrix._wrap(kernels.f_delta_h(f, h, left.entries, right_dec))


def _check_probability(vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise NotProbability(f"{name} must be a vector")
    if not np.all(vec >= 0):
        raise NotProbability(f"{name} has negative or NaN entries")
    if not abs(float(vec.sum()) - 1.0) <= PROBABILITY_TOL:
        raise NotProbability(f"{name} sums to {float(vec.sum())!r}, expected 1")
    return vec


def f_nabla_h(
    f: ScalarOperatorFunction,
    h: ScalarOperatorFunction,
    field: WeightedOperatorField,
    p: Sequence[float],
    q: Sequence[float],
) -> HermitianMatrix:
    """sum_i p_i h(q_i R_i)^{1/2} f(h(q_i R_i)^{-1/2} L_i h(q_i R_i)^{-1/2}) h(q_i R_i)^{1/2}.

    p and q are probability vectors over the field entries; terms with
    p_i = 0 contribute nothing and q_i may vanish only there. The field's
    own weights play no role here.
    """
    if field.size == 0:
        raise EmptyField("needs at least one field entry")
    p = _check_probability(p, "p")
    q = _check_probability(q, "q")
    if len(p) != field.size or len(q) != field.size:
        raise NotProbability("p and q must match the field length")
    if np.any((p > 0) & (q == 0)):
        raise NotProbability("q must be positive wherever p is positive")
    kernels.flagged_positive(h)
    # The terms with p_i > 0, in stacks of entries (`kernels.chunks`).
    terms = [(a, b, q_i) for (_, a, b), p_i, q_i in zip(field, p, q) if p_i != 0]
    values = []
    for span in kernels.chunks(len(terms), field.dim):
        chunk = terms[span.start : span.stop]
        lefts = kernels.stack([a.entries for a, _, _ in chunk])
        rights = kernels.stack([b.entries * float(q_i) for _, b, q_i in chunk])
        values.append(kernels.f_delta_h(f, h, lefts, kernels.decompose(rights)))
    return _weighted(p[p != 0], np.concatenate(values))


def bivariate_calculus(
    phi: BivariateSpec,
    a: HermitianMatrix,
    b: HermitianMatrix,
    size_cap: int = KRON_CAP,
) -> HermitianMatrix:
    """phi evaluated on the eigenvalue grid, carried by U (x) V.

    With A = U diag(lam) U* and B = V diag(mu) V*, returns
    (U (x) V) diag(phi(lam_i, mu_j)) (U (x) V)* with the (i, j) pair at
    tensor index i * dim(B) + j (`kernels.bivariate`).
    """
    total = a.dim * b.dim
    if not total <= size_cap:
        raise SizeLimit(f"tensor dimension {total} exceeds cap {size_cap}")
    left, right = kernels.decompose(a.entries), kernels.decompose(b.entries)
    return HermitianMatrix._wrap(kernels.bivariate(phi, left, right))


def tangent_point(f: ScalarOperatorFunction) -> tuple[float, float]:
    """(f(1), f'(1)), the coefficients of the tangent-line bound."""
    if f.deriv is None:
        raise DerivativeRequired(f"function {f.id!r} carries no derivative")
    if not f.domain.contains(1.0):
        raise DomainViolation(1.0, f.domain, "tangent point 1 outside dom(f)")
    return f.eval_scalar(1.0), f.deriv_scalar(1.0)


def gradient_lower_bound(
    f: ScalarOperatorFunction, field: WeightedOperatorField
) -> HermitianMatrix:
    """Tangent-line bound f(1) * sum w B - f'(1) * sum w (B - A).

    For differentiable convex f this never exceeds the divergence
    functional of the field; the caller performs that comparison.
    """
    f_one, fp_one = tangent_point(f)
    if field.size == 0:
        raise EmptyField("needs at least one field entry")
    sum_b = field.weighted_sum_b()
    sum_a = field.weighted_sum_a()
    return f_one * sum_b - fp_one * (sum_b - sum_a)


# ---------------------------------------------------------------------------
# Field JSON: {"entries": [{"w": 1.0, "A": <matrix>, "B": <matrix>}, ...],
#              "probability_normalized": false}
# ---------------------------------------------------------------------------


def field_to_json(field: WeightedOperatorField) -> dict:
    return {
        "entries": [
            {"w": w, "A": matrix_to_json(a), "B": matrix_to_json(b.base)}
            for w, a, b in field
        ],
        "probability_normalized": field.probability_normalized,
    }


def field_from_json(obj: dict) -> WeightedOperatorField:
    entries = [
        (
            float(e["w"]),
            matrix_from_json(e["A"]),
            PositiveDefiniteMatrix(matrix_from_json(e["B"])),
        )
        for e in obj["entries"]
    ]
    return WeightedOperatorField(entries, bool(obj.get("probability_normalized", False)))

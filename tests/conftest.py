import numpy as np

from opdiv import batched
from opdiv.hermitian import HermitianMatrix, PositiveDefiniteMatrix, hermitian_part, unitary_from_rng
from opdiv.perspective import WeightedOperatorField


def make_herm(rng: np.random.Generator, dim: int, lo: float = -2.0, hi: float = 2.0) -> HermitianMatrix:
    lam = rng.uniform(lo, hi, dim)
    u = unitary_from_rng(rng, dim)
    return hermitian_part((u * lam) @ u.conj().T)


def make_pd(rng: np.random.Generator, dim: int, lo: float = 0.1, hi: float = 4.0) -> PositiveDefiniteMatrix:
    return PositiveDefiniteMatrix(make_herm(rng, dim, lo, hi))


def make_field(rng: np.random.Generator, dim: int, size: int) -> WeightedOperatorField:
    """A field of `size` entries: for each a weight in [0.2, 2], an A and a
    B with spectra in [0.1, 4]."""
    return WeightedOperatorField(
        [(rng.uniform(0.2, 2.0), make_herm(rng, dim, 0.1, 4.0), make_pd(rng, dim)) for _ in range(size)]
    )


def perturb_example_chain(monkeypatch, shift: float) -> None:
    """Break the Example 3.3 fixture from outside: every chain that
    `batched._jensen_chain` computes gets `shift` * I added to its first
    matrix."""
    real = batched._jensen_chain

    def shifted(*args, **kwargs):
        (m1, *rest), persp, share = real(*args, **kwargs)
        return (m1 + np.eye(m1.shape[-1], dtype=complex) * shift, *rest), persp, share

    monkeypatch.setattr(batched, "_jensen_chain", shifted)

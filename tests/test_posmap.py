import math

import numpy as np
import pytest

from conftest import make_herm, make_pd
from opdiv.errors import BadRange, NotUnital, ShapeMismatch
from opdiv.funcatalog import builtin
from opdiv.hermitian import HermitianMatrix, loewner_compare
from opdiv.posmap import (
    Compression,
    Congruence,
    MapField,
    MapSum,
    ScaledMap,
    apply_map,
    check_unital,
    example_33,
    map_from_json,
    unitality,
)


def test_compression_fixtures():
    ex = example_33()
    a1, a2, _ = ex.operators
    (w1, phi1), (w2, phi2), _ = ex.maps.entries
    assert w1 == w2 == 1.0
    assert np.allclose(apply_map(phi1, a1).entries, [[2.0, 0.0], [0.0, 1.0]])
    assert np.allclose(apply_map(phi2, a2).entries, [[1.0, 0.0], [0.0, 0.0]])


def test_congruence_identity_map():
    phi = Congruence(np.eye(3))
    x = make_herm(np.random.default_rng(0), 3)
    assert np.allclose(apply_map(phi, x).entries, x.entries)


def test_map_shape_checks():
    phi = Compression(3, (0, 1), 0.5)
    with pytest.raises(ShapeMismatch):
        apply_map(phi, HermitianMatrix.identity(2))
    with pytest.raises(BadRange):
        Compression(3, (0, 3), 0.5)
    with pytest.raises(BadRange):
        Compression(3, (0, 1), -1.0)


def test_map_positivity_sampled():
    rng = np.random.default_rng(1)
    maps = [
        Congruence(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))),
        Compression(3, (0, 2), 0.7),
        ScaledMap(Compression(3, (1, 2), 1.0), 0.25),
    ]
    maps.append(MapSum([maps[1], maps[2]]))
    for phi in maps:
        for _ in range(10):
            psd = make_pd(rng, 3, 0.01, 2.0).base
            out = apply_map(phi, psd)
            assert np.linalg.eigvalsh(out.entries)[0] >= -1e-12


def test_map_linearity():
    rng = np.random.default_rng(2)
    phi = MapSum(
        [
            Congruence(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),
            ScaledMap(Compression(3, (0, 1, 2), 0.5), 2.0),
        ]
    )
    x = make_herm(rng, 3)
    y = make_herm(rng, 3)
    a, b = 0.7, -1.3
    lhs = apply_map(phi, a * x + b * y)
    rhs = a * apply_map(phi, x) + b * apply_map(phi, y)
    scale = max(1.0, rhs.norm_fro())
    assert np.linalg.norm(lhs.entries - rhs.entries) <= 1e-12 * scale


def test_unitality_fixture_field():
    ex = example_33()
    report = unitality(ex.maps)
    assert report.is_unital
    assert report.is_subunital
    assert np.allclose(report.sum_at_identity.entries, np.eye(2), atol=1e-12)


def test_unitality_subunital_cases():
    c = np.eye(3) / np.sqrt(2.0)
    field = MapField([(1.0, Congruence(c))])
    report = unitality(field)
    assert not report.is_unital
    assert report.is_subunital

    ex = example_33()
    scaled = MapField([(0.5 * w, phi) for w, phi in ex.maps])
    report = unitality(scaled)
    assert not report.is_unital
    assert report.is_subunital

    expansive = MapField([(1.0, Congruence(np.eye(2) * 1.5))])
    report = unitality(expansive)
    assert not report.is_unital
    assert not report.is_subunital


def test_map_field_unital_flag_validated():
    with pytest.raises(NotUnital):
        MapField([(1.0, Congruence(np.eye(2) * 0.5))], unital=True)
    MapField([(1.0, Congruence(np.eye(2)))], unital=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_compression_refuses_a_non_finite_scale(bad):
    with pytest.raises(BadRange, match="finite"):
        Compression(2, (0,), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scaled_map_refuses_a_non_finite_factor(bad):
    with pytest.raises(BadRange, match="finite"):
        ScaledMap(Compression(2, (0,), 1.0), bad)


@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_map_field_refuses_non_finite_weights(bad, unital):
    """A NaN weight gave NaN images; with unital=True the unitality check
    ended in numpy's LinAlgError, which is no OpDivError."""
    with pytest.raises(BadRange, match="finite"):
        MapField([(bad, Congruence(np.eye(2)))], unital=unital)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_congruence_refuses_a_non_finite_matrix(bad):
    with pytest.raises(BadRange, match="non-finite"):
        Congruence(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_check_unital_fails_a_nan_image():
    """A NaN image has no SVD (numpy raised LinAlgError), and a NaN error
    is not above the tolerance: it must fail the check all the same."""
    with pytest.raises(NotUnital):
        check_unital(np.full((1, 2, 2), np.nan))


def test_map_field_with_an_overflowing_identity_image_is_not_unital():
    """Finite maps whose identity image overflows, 1e200 squared."""
    with np.errstate(all="ignore"), pytest.raises(NotUnital, match="inf"):
        MapField([(1.0, Congruence(np.eye(2) * 1e200))], unital=True)


def test_identity_image_refuses_an_overflowing_image():
    """Without unital=True the field was built, and its identity image had
    NaN on the diagonal."""
    field = MapField([(1.0, Congruence(np.eye(2) * 1e200))], unital=False)
    with np.errstate(all="ignore"), pytest.raises(BadRange, match="non-finite"):
        field.identity_image()


def test_example_33_fixture_values():
    ex = example_33()
    assert ex.partition == ((0,), (1, 2))
    want_chain = (
        [[10.0, 5.0], [5.0, 5.0]],
        [[15.0, 3.0], [3.0, 6.0]],
        [[18.0, 3.0], [3.0, 9.0]],
        [[21.0, 3.0], [3.0, 15.0]],
    )
    for got, want in zip(ex.expected_chain, want_chain):
        assert np.allclose(got.entries, want)
    eye = HermitianMatrix.identity(3)
    d_t1 = apply_map(ex.maps.entries[0][1], eye)
    assert np.allclose(d_t1.entries, np.eye(2) / 3.0)
    d_t2 = apply_map(ex.maps.entries[1][1], eye) + apply_map(ex.maps.entries[2][1], eye)
    assert np.allclose(d_t2.entries, 2.0 * np.eye(2) / 3.0)


def test_choi_davis_jensen_sampled():
    rng = np.random.default_rng(3)
    f = builtin("square")
    for _ in range(15):
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gram = c.conj().T @ c
        vals, vecs = np.linalg.eigh(gram)
        c = c @ (vecs * vals**-0.5) @ vecs.conj().T  # now C*C = I
        phi = Congruence(c)
        a = make_herm(rng, 3)
        from opdiv.hermitian import apply_function

        lhs = apply_function(f, apply_map(phi, a))
        rhs = apply_map(phi, apply_function(f, a))
        assert loewner_compare(lhs, rhs).holds_le


def test_hansen_pedersen_isometry_sampled():
    rng = np.random.default_rng(4)
    from opdiv.hermitian import apply_function

    f = builtin("power", [1.5])
    for _ in range(15):
        tall = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        gram = tall.conj().T @ tall
        vals, vecs = np.linalg.eigh(gram)
        iso = tall @ (vecs * vals**-0.5) @ vecs.conj().T  # C*C = I_2
        phi = Congruence(iso)
        a = make_herm(rng, 4, 0.05, 3.0)
        lhs = apply_function(f, apply_map(phi, a))
        rhs = apply_map(phi, apply_function(f, a))
        assert loewner_compare(lhs, rhs).holds_le


def test_map_json_roundtrip():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    phi = ScaledMap(MapSum([Congruence(c), Congruence(c)]), 0.5)
    back = map_from_json(phi.to_json())
    x = make_herm(rng, 3)
    assert np.allclose(apply_map(phi, x).entries, apply_map(back, x).entries)

    comp = Compression(4, (1, 3), 0.3333333333333333)
    blob = comp.to_json()
    assert blob == {
        "variant": "compression",
        "in_dim": 4,
        "indices": [1, 3],
        "scale": 0.3333333333333333,
    }
    back = map_from_json(blob)
    y = make_herm(rng, 4)
    assert np.allclose(apply_map(comp, y).entries, apply_map(back, y).entries)

    ex = example_33()
    field_back = MapField.from_json(ex.maps.to_json())
    assert field_back.unital
    assert np.allclose(field_back.identity_image().entries, np.eye(2), atol=1e-12)

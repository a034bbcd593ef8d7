import numpy as np
import pytest

from multitile import (
    DimensionMismatch,
    SingularBasis,
    make_lattice,
    reduce_point,
)


def test_volume_and_dual():
    lat = make_lattice([[2.0, 0.0], [0.0, 1.0]])
    assert lat.volume == pytest.approx(2.0)
    assert np.allclose(lat.basis.T @ lat.dual_basis, np.eye(2))


def test_rejects_singular_and_nonsquare():
    with pytest.raises(SingularBasis):
        make_lattice([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(DimensionMismatch):
        make_lattice([[1.0, 0.0]])


def test_rejects_nonfinite():
    with pytest.raises((SingularBasis, DimensionMismatch, ValueError)):
        make_lattice([[np.inf, 0.0], [0.0, 1.0]])


def test_basis_is_readonly():
    lat = make_lattice([[1.0]])
    with pytest.raises(ValueError):
        lat.basis[0, 0] = 2.0


def test_reduce_point_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        M = rng.normal(size=(d, d))
        while abs(np.linalg.det(M)) < 0.3:
            M = rng.normal(size=(d, d))
        lat = make_lattice(M)
        x = rng.normal(scale=5.0, size=d)
        u, z = reduce_point(lat, x)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert np.array_equal(z, z.astype(int))
        assert np.allclose(M @ (u + z), x, atol=1e-9)


def test_reduce_point_snaps_boundary():
    # a coordinate within 1e-12 of 1 belongs to the next lattice cell
    lat = make_lattice([[1.0]])
    u, z = reduce_point(lat, np.array([1.0 - 1e-15]))
    assert u[0] == 0.0
    assert z[0] == 1


def test_dual_point():
    lat = make_lattice([[2.0, 1.0], [0.0, 1.0]])
    z = np.array([3, -2])
    lam = lat.dual_basis @ z
    # a dual lattice point pairs integrally with every lattice point
    for w in ([1, 0], [0, 1], [4, -7]):
        assert lam @ (lat.basis @ np.asarray(w)) == pytest.approx(
            round(lam @ (lat.basis @ np.asarray(w))), abs=1e-9
        )

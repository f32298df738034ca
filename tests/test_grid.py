import numpy as np
import pytest

from nutaxis import Geometry, build_grid


def test_interval_grid_basics():
    g = build_grid(Geometry("interval", 10, x_lo=-1.0, x_hi=3.0))
    assert g.n == 10
    assert g.h == pytest.approx(0.4)
    np.testing.assert_allclose(g.faces[0], -1.0)
    np.testing.assert_allclose(g.faces[-1], 3.0)
    np.testing.assert_allclose(g.centers, g.faces[:-1] + 0.5 * g.h,
                               atol=1e-15)
    np.testing.assert_allclose(g.m, g.h)
    np.testing.assert_array_equal(g.face_areas, np.ones(11))
    assert g.volume == pytest.approx(4.0, rel=1e-14)


def test_odd_resolution_center_is_exact():
    # with odd n the middle cell center is the exact domain midpoint
    g = build_grid(Geometry("interval", 401))
    assert g.centers[200] == 0.5


@pytest.mark.parametrize("d,expected", [
    (1, 2.0),                    # segment [-R, R] via angular factor 2
    (2, np.pi),                  # disk area pi R^2
    (3, 4.0 * np.pi / 3.0),      # ball volume
])
def test_radial_measures_telescope_to_ball_volume(d, expected):
    g = build_grid(Geometry("radial", 400, d=d, R=1.0))
    assert g.volume == pytest.approx(expected, rel=1e-12)
    assert np.all(g.m > 0.0)
    # measures telescope exactly against the face polynomial
    omega = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    np.testing.assert_allclose(
        np.cumsum(g.m), (omega / d) * g.faces[1:] ** d, rtol=1e-13)


def test_radial_face_areas():
    g1 = build_grid(Geometry("radial", 8, d=1, R=2.0))
    np.testing.assert_array_equal(g1.face_areas, np.full(9, 2.0))
    g3 = build_grid(Geometry("radial", 8, d=3, R=2.0))
    assert g3.face_areas[0] == 0.0
    np.testing.assert_allclose(g3.face_areas, 4.0 * np.pi * g3.faces ** 2)


def test_radial_scaling_with_radius():
    a = build_grid(Geometry("radial", 16, d=3, R=1.0))
    b = build_grid(Geometry("radial", 16, d=3, R=2.0))
    assert b.volume == pytest.approx(8.0 * a.volume, rel=1e-12)
    assert b.h == pytest.approx(2.0 * a.h)


@pytest.mark.parametrize("kwargs", [
    dict(kind="triangle", n_cells=8),
    dict(kind="interval", n_cells=3),
    dict(kind="interval", n_cells=8, x_lo=1.0, x_hi=1.0),
    dict(kind="radial", n_cells=8, d=4),
    dict(kind="radial", n_cells=8, d=2, R=0.0),
    dict(kind="radial", n_cells=8, d=2, R=-1.0),
    dict(kind="interval", n_cells=8, x_hi=float("inf")),
    dict(kind="radial", n_cells=8, d=3, R=float("inf")),
])
def test_geometry_validation(kwargs):
    with pytest.raises(ValueError):
        Geometry(**kwargs)

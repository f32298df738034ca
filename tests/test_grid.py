import numpy as np
import pytest

from nutaxis import Interval, Radial, build_grid


def test_interval_grid_basics():
    g = build_grid(Interval(10, x_lo=-1.0, x_hi=3.0))
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
    g = build_grid(Interval(401))
    assert g.centers[200] == 0.5


@pytest.mark.parametrize("d,expected", [
    (1, 2.0),                    # segment [-R, R] via angular factor 2
    (2, np.pi),                  # disk area pi R^2
    (3, 4.0 * np.pi / 3.0),      # ball volume
])
def test_radial_measures_telescope_to_ball_volume(d, expected):
    g = build_grid(Radial(400, d=d, R=1.0))
    assert g.volume == pytest.approx(expected, rel=1e-12)
    assert np.all(g.m > 0.0)
    # measures telescope exactly against the face polynomial
    omega = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    np.testing.assert_allclose(
        np.cumsum(g.m), (omega / d) * g.faces[1:] ** d, rtol=1e-13)


def test_radial_face_areas():
    g1 = build_grid(Radial(8, d=1, R=2.0))
    np.testing.assert_array_equal(g1.face_areas, np.full(9, 2.0))
    g3 = build_grid(Radial(8, d=3, R=2.0))
    assert g3.face_areas[0] == 0.0
    np.testing.assert_allclose(g3.face_areas, 4.0 * np.pi * g3.faces ** 2)


def test_radial_scaling_with_radius():
    a = build_grid(Radial(16, d=3, R=1.0))
    b = build_grid(Radial(16, d=3, R=2.0))
    assert b.volume == pytest.approx(8.0 * a.volume, rel=1e-12)
    assert b.h == pytest.approx(2.0 * a.h)


def test_a_ball_needs_its_dimension():
    # as a JSON ball without "d" is a ConfigError
    with pytest.raises(TypeError):
        Radial(8)


@pytest.mark.parametrize("kwargs", [
    dict(n_cells=3),
    dict(n_cells=8, x_lo=1.0, x_hi=1.0),
    dict(n_cells=8, d=4),
    dict(n_cells=8, d=2, R=0.0),
    dict(n_cells=8, d=2, R=-1.0),
    dict(n_cells=8, x_hi=float("inf")),
    dict(n_cells=8, d=3, R=float("inf")),
    dict(n_cells=float("inf")),
])
def test_geometry_validation(kwargs):
    # a ball is the kind that needs d
    geometry = Radial if "d" in kwargs else Interval
    with pytest.raises(ValueError):
        geometry(**kwargs)

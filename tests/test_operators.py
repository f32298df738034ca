import numpy as np
import pytest

from nutaxis import (
    Geometry,
    build_grid,
    chemotaxis_divergence,
    face_energy,
    face_gradient,
    integrate,
    laplacian_neumann,
)
from nutaxis.model import f_eps_prime
from nutaxis.operators import taxis_flux


@pytest.fixture
def interval():
    return build_grid(Geometry("interval", 50))


def test_face_gradient_linear_field(interval):
    f = 3.0 * interval.centers + 1.0
    g = face_gradient(f, interval)
    assert g[0] == 0.0 and g[-1] == 0.0
    np.testing.assert_allclose(g[1:-1], 3.0, rtol=1e-13)


def test_laplacian_constant_is_zero(interval):
    np.testing.assert_array_equal(
        laplacian_neumann(np.full(50, 4.0), interval), np.zeros(50))


def test_laplacian_quadratic_interior_exact(interval):
    f = interval.centers ** 2
    lap = laplacian_neumann(f, interval)
    # three-point stencil differentiates quadratics exactly away from the
    # zero-flux closure at the walls
    np.testing.assert_allclose(lap[1:-1], 2.0, rtol=1e-11)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_laplacian_of_r_squared(d):
    grid = build_grid(Geometry("radial", 64, d=d, R=1.0))
    lap = laplacian_neumann(grid.centers ** 2, grid)
    # lap(r^2) = 2d; exact on every cell except the outer-wall closure,
    # including the origin cell (the r=0 flux of r^2 vanishes identically)
    np.testing.assert_allclose(lap[:-1], 2.0 * d, rtol=1e-11)


@pytest.mark.parametrize("geom", [
    Geometry("interval", 33, x_lo=-2.0, x_hi=1.0),
    Geometry("radial", 33, d=2),
    Geometry("radial", 40, d=3),
])
def test_laplacian_is_conservative(geom):
    grid = build_grid(geom)
    rng = np.random.default_rng(7)
    f = rng.random(grid.n)
    assert abs(integrate(laplacian_neumann(f, grid), grid)) < 1e-12 * grid.n


@pytest.mark.parametrize("mode", ["upwind", "central"])
def test_chemotaxis_divergence_is_conservative(mode):
    grid = build_grid(Geometry("radial", 48, d=3))
    rng = np.random.default_rng(11)
    u = 0.5 + rng.random(48)
    w = rng.random(48)
    div = chemotaxis_divergence(u, w, grid, chi=2.0, mode=mode)
    assert abs(integrate(div, grid)) < 1e-12


def test_chemotaxis_zero_without_gradient_or_chi(interval):
    u = 1.0 + interval.centers
    np.testing.assert_array_equal(
        chemotaxis_divergence(u, np.full(50, 2.0), interval, chi=1.0),
        np.zeros(50))
    np.testing.assert_array_equal(
        chemotaxis_divergence(u, interval.centers.copy(), interval, chi=0.0),
        np.zeros(50))


def test_chemotaxis_upwind_takes_donor_cell():
    grid = build_grid(Geometry("interval", 4))
    u = np.array([1.0, 2.0, 3.0, 4.0])
    w = np.array([0.0, 1.0, 1.0, 0.0])  # gradient +, 0, - on interior faces
    div = chemotaxis_divergence(u, w, grid, chi=1.0, mode="upwind")
    h, m = grid.h, grid.m[0]
    # face 1 carries u[0] (flow up-gradient, donor left), face 3 carries u[3]
    flux1 = 1.0 / h * u[0]
    flux3 = -1.0 / h * u[3]
    np.testing.assert_allclose(div, [flux1 / m * -1.0,
                                     (flux1 - 0.0) / m,
                                     (0.0 - flux3) / m,
                                     flux3 / m], rtol=1e-13)


def test_chemotaxis_modes_agree_for_uniform_mobility(interval):
    u = np.full(50, 2.0)
    w = np.sin(2 * np.pi * interval.centers)
    up = chemotaxis_divergence(u, w, interval, chi=0.7, mode="upwind")
    ce = chemotaxis_divergence(u, w, interval, chi=0.7, mode="central")
    np.testing.assert_array_equal(up, ce)


def test_chemotaxis_saturation_reduces_flux(interval):
    u = 1.0 + interval.centers
    w = interval.centers ** 2
    plain = chemotaxis_divergence(u, w, interval, chi=1.0, eps=0.0)
    saturated = chemotaxis_divergence(u, w, interval, chi=1.0, eps=10.0)
    assert np.max(np.abs(saturated)) < np.max(np.abs(plain))


def _plain_taxis_flux(u, w, af, h, chi, eps, mode):
    """taxis_flux in plain, allocating numpy."""
    gw = chi * np.diff(w) / h
    mob = u * f_eps_prime(u, eps)
    if mode == "upwind":
        mob_face = np.where(gw > 0.0, mob[:-1], mob[1:])
    else:
        mob_face = 0.5 * (mob[:-1] + mob[1:])
    flux = np.zeros(u.shape[0] + 1)
    flux[1:-1] = af[1:-1] * gw * mob_face
    return flux


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("mode", ["upwind", "central"])
def test_taxis_flux_into_out_buffer(mode, eps):
    grid = build_grid(Geometry("radial", 48, d=3))
    rng = np.random.default_rng(5)
    u, w = 0.5 + rng.random(48), rng.random(48)
    w[10:14] = w[9]  # faces with a zero gradient
    args = (u, w, grid.face_areas, grid.h, 3.0, eps, mode)
    buf = np.full(49, np.nan)
    flux = taxis_flux(*args, out=buf)
    assert flux is buf
    assert flux[0] == 0.0 and flux[-1] == 0.0
    plain = _plain_taxis_flux(*args).tobytes()  # bitwise, signed zeros too
    assert flux.tobytes() == plain
    assert taxis_flux(*args).tobytes() == plain


def test_chemotaxis_unknown_mode(interval):
    with pytest.raises(ValueError):
        chemotaxis_divergence(np.ones(50), np.ones(50), interval, 1.0,
                              mode="downwind")


def test_integrate_midpoint(interval):
    assert integrate(np.ones(50), interval) == pytest.approx(1.0, rel=1e-14)
    # midpoint rule is exact for affine integrands
    assert integrate(interval.centers.copy(), interval) == pytest.approx(0.5, rel=1e-13)


def _sq_grad(f, grid):
    grad = np.diff(f) / grid.h
    return grad * grad


def test_face_energy_linear_profile():
    grid = build_grid(Geometry("interval", 50))
    sq = _sq_grad(grid.centers.copy(), grid)
    # interior faces only: (n-1) faces of weight h with unit slope
    assert face_energy(sq, None, grid) == pytest.approx(
        (50 - 1) * grid.h, rel=1e-14)
    g = np.full(50, 4.0)
    assert face_energy(sq, g, grid) == pytest.approx(
        (50 - 1) * grid.h / 4.0, rel=1e-14)
    assert face_energy(sq * sq, None, grid) == pytest.approx(
        (50 - 1) * grid.h, rel=1e-14)


def test_face_energy_floors_vanishing_weights(interval):
    sq = _sq_grad(interval.centers.copy(), interval)
    floored = face_energy(sq, np.zeros(50), interval, g_floor=1e-6)
    assert floored == pytest.approx((50 - 1) * interval.h / 1e-6, rel=1e-14)

"""Discrete spatial operators shared by the integrator and the diagnostics.

All operators are pure functions of cell fields and a :class:`~nutaxis.grid.Grid`.
Boundary faces carry zero flux (homogeneous Neumann at walls, symmetry at a
radial origin); consequently the Laplacian and the taxis divergence (the
differences of the upwind flux) are discretely conservative — their
m-weighted sums telescope to exactly zero.

``face_gradient``, ``laplacian_neumann``, ``integrate`` and ``face_energy``
also take a stack of fields, one per row of a ``(k, n)`` array, and then
return one result per row.

The Laplacian has two forms.  :func:`diffusion_rows` gives its m-scaled
symmetric rows ``K``, the integrator's one definition of its face
couplings: the implicit solves factor them and the exact heat flow takes
its modes from them.  :func:`laplacian_neumann` is the flux form, for the
diagnostics.  It differences ``f`` before it scales, so it does not
cancel; the rows form ``-(K f) / m`` came out up to 1.1e-12 of
``max|lap f|`` off it on the fig1_right and fig3 initial nutrient, which
would move every record's dissipation ``D``.

Note on gradient functionals: face gradients vanish at the two boundary faces
by construction, so energies like ``integral |grad f|^2 / g`` slightly
underestimate the continuum value when the profile has nonzero boundary
slope.  This is a deliberate discretization caveat, consistent with the
Neumann problem being solved.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .grid import Grid
from .model import f_eps_prime

__all__ = [
    "diffusion_rows",
    "face_gradient",
    "laplacian_neumann",
    "taxis_flux",
    "integrate",
    "face_energy",
]


def face_gradient(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Two-point gradients on faces; boundary faces are 0 (Neumann).

    Returns an array of length ``n + 1`` with ``(f[i] - f[i-1]) / h`` on
    interior faces (one such row per row of a stacked ``f``).
    """
    g = np.zeros(f.shape[:-1] + (grid.n + 1,))
    g[..., 1:-1] = np.diff(f) / grid.h
    return g


def laplacian_neumann(f: np.ndarray, grid: Grid,
                      grad: Optional[np.ndarray] = None) -> np.ndarray:
    """Conservative three-point Laplacian with zero-flux boundaries.

    (lap f)_i = [a_{i+1/2} (f_{i+1}-f_i)/h - a_{i-1/2} (f_i-f_{i-1})/h] / m_i
    with both boundary-face fluxes forced to zero.  Exactly conservative:
    sum_i m_i (lap f)_i telescopes to 0.  ``grad`` is
    ``face_gradient(f, grid)`` when the caller has already taken it.
    """
    if grad is None:
        grad = face_gradient(f, grid)
    return np.diff(grid.face_areas * grad) / grid.m


def diffusion_rows(grid: Grid, D: float) -> tuple[np.ndarray, np.ndarray]:
    """The diffusion part ``(diag, off)`` of the m-scaled rows of ``-D lap``.

    Row ``i`` of ``-D lap`` times ``m[i]`` has the diagonal ``D (a[i-1] +
    a[i])`` and the off-diagonals ``-D a[i-1]``, ``-D a[i]``, with the
    interior face couplings ``a = face_areas[1:-1] / h`` (no flux through
    the boundary).  It is symmetric, so ``off`` (``n - 1`` entries) is both
    off-diagonals.  The m-scaled system of ``(c0 + s) y - D lap y = r`` has
    the diagonal ``m (c0 + s) + diag``, ``off`` and the right-hand side
    ``m r``; it is positive definite for ``c0 > 0``, ``s >= 0``.
    """
    a = grid.face_areas[1:-1] / grid.h
    diag = np.zeros(grid.n)
    diag[1:] = a
    diag[:-1] += a
    return D * diag, -D * a


def taxis_flux(u: np.ndarray, w: np.ndarray, face_areas: np.ndarray,
               h: float, chi: float, eps: float = 0.0,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Upwind taxis fluxes ``a * chi*(w_{i+1}-w_i)/h * mobility`` (n + 1).

    The mobility ``u * f_eps_prime(u, eps)`` is taken from the donor cell,
    which keeps ``u`` positive under a CFL bound.  Boundary faces carry no
    flux, so the flux differences are discretely conservative.  The
    operations run in the loop kernel's order (``chi*dw/h``, then
    ``a*g*mobility``).

    The fluxes are written into ``out`` (length n + 1) when it is given and
    returned.  With ``eps == 0`` no float array is then allocated, only the
    n - 1 byte mask of faces with ``g > 0``.
    """
    n = u.shape[0]
    flux = np.empty(n + 1) if out is None else out
    flux[0] = flux[n] = 0.0
    g = flux[1:n]
    np.subtract(w[1:], w[:-1], out=g)  # chi (w_{i+1} - w_i) / h
    g *= chi
    g /= h
    mob = u if eps == 0.0 else u * f_eps_prime(u, eps)  # u * 1.0 == u
    donor_left = g > 0.0
    g *= face_areas[1:-1]
    np.multiply(g, mob[:-1], out=g, where=donor_left)
    np.logical_not(donor_left, out=donor_left)
    np.multiply(g, mob[1:], out=g, where=donor_left)
    return flux


def _weighted_sum(weights: np.ndarray, f: np.ndarray) -> float | np.ndarray:
    """``sum_i weights_i f_i``: a float for 1-D ``f``, one per row otherwise.

    Stacked rows go through ``np.matmul``'s vector-vector path, one BLAS
    ddot per row, so every row's sum is bitwise the 1-D ``np.dot``; the
    matrix-vector product ``f @ weights`` (dgemv) is not.
    """
    if f.ndim == 1:
        return float(np.dot(weights, f))
    return np.matmul(f[..., None, :], weights[:, None])[..., 0, 0]


def integrate(f: np.ndarray, grid: Grid) -> float | np.ndarray:
    """Measure-weighted sum ``sum_i m_i f_i`` (midpoint quadrature)."""
    return _weighted_sum(grid.m, f)


def face_energy(sq: np.ndarray, g: Optional[np.ndarray], grid: Grid,
                g_floor: float = 1e-12) -> float | np.ndarray:
    """Discrete ``integral sq / g`` over the interior faces.

    ``sq`` holds one value per interior face (length n - 1), typically a
    squared face gradient ``(diff(f) / h)**2``.  Each face contributes
    ``a_{i+1/2} * h * sq / g_face``, where ``g_face`` is the arithmetic mean
    of the two adjacent cells of ``g``, floored at ``g_floor`` (the floor
    avoids spurious blowup when the weight decays to zero, which the
    nutrient provably does).  Pass ``g=None`` for the unweighted
    ``integral sq``.
    """
    fm = grid.face_areas[1:-1] * grid.h
    if g is None:
        return _weighted_sum(fm, sq)
    gf = np.maximum(0.5 * (g[..., 1:] + g[..., :-1]), g_floor)
    return _weighted_sum(fm, sq / gf)

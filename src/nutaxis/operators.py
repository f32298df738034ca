"""Discrete spatial operators shared by the integrator and the diagnostics.

All operators are pure functions of cell fields and a :class:`~nutaxis.grid.Grid`.
Boundary faces carry zero flux (homogeneous Neumann at walls, symmetry at a
radial origin); consequently the Laplacian and the taxis divergence are
discretely conservative — their m-weighted sums telescope to exactly zero.

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
    "face_gradient",
    "laplacian_neumann",
    "taxis_flux",
    "chemotaxis_divergence",
    "integrate",
    "face_energy",
]


def face_gradient(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Two-point gradients on faces; boundary faces are 0 (Neumann).

    Returns an array of length ``n + 1`` with ``(f[i] - f[i-1]) / h`` on
    interior faces.
    """
    g = np.zeros(grid.n + 1)
    g[1:-1] = np.diff(f) / grid.h
    return g


def laplacian_neumann(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Conservative three-point Laplacian with zero-flux boundaries.

    (lap f)_i = [a_{i+1/2} (f_{i+1}-f_i)/h - a_{i-1/2} (f_i-f_{i-1})/h] / m_i
    with both boundary-face fluxes forced to zero.  Exactly conservative:
    sum_i m_i (lap f)_i telescopes to 0.
    """
    flux = grid.face_areas * face_gradient(f, grid)
    return np.diff(flux) / grid.m


def taxis_flux(u: np.ndarray, w: np.ndarray, face_areas: np.ndarray,
               h: float, chi: float, eps: float = 0.0,
               mode: str = "upwind",
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Taxis fluxes ``a * chi*(w_{i+1}-w_i)/h * mobility`` on the n + 1 faces.

    The mobility ``u * f_eps_prime(u, eps)`` is taken from the donor cell
    (``mode="upwind"``, positivity-preserving under a CFL bound) or from the
    arithmetic face mean (``mode="central"``, second-order; used by
    convergence studies).  Boundary faces carry no flux.  The operations
    run in the loop kernel's order (``chi*dw/h``, then ``a*g*mobility``).

    The fluxes are written into ``out`` (length n + 1) when it is given and
    returned.  The upwind flux with ``eps == 0`` then allocates no float
    array, only the n - 1 byte mask of faces with ``g > 0``.
    """
    if mode not in ("upwind", "central"):
        raise ValueError(f"unknown flux mode {mode!r}")
    n = u.shape[0]
    flux = np.empty(n + 1) if out is None else out
    flux[0] = flux[n] = 0.0
    g = flux[1:n]
    np.subtract(w[1:], w[:-1], out=g)  # chi (w_{i+1} - w_i) / h
    g *= chi
    g /= h
    mob = u if eps == 0.0 else u * f_eps_prime(u, eps)  # u * 1.0 == u
    if mode == "upwind":
        donor_left = g > 0.0
        g *= face_areas[1:-1]
        np.multiply(g, mob[:-1], out=g, where=donor_left)
        np.logical_not(donor_left, out=donor_left)
        np.multiply(g, mob[1:], out=g, where=donor_left)
    else:
        g *= face_areas[1:-1]
        g *= 0.5 * (mob[:-1] + mob[1:])
    return flux


def chemotaxis_divergence(u: np.ndarray, w: np.ndarray, grid: Grid,
                          chi: float, eps: float = 0.0,
                          mode: str = "upwind") -> np.ndarray:
    """Finite-volume form of ``-div(chi * u * F'(u) * grad w)``.

    Differences the fluxes of :func:`taxis_flux`; since boundary faces carry
    no flux, the result is discretely conservative.
    """
    flux = taxis_flux(u, w, grid.face_areas, grid.h, chi, eps, mode)
    return -np.diff(flux) / grid.m


def integrate(f: np.ndarray, grid: Grid) -> float:
    """Measure-weighted sum ``sum_i m_i f_i`` (midpoint quadrature)."""
    return float(np.dot(grid.m, f))


def face_energy(sq: np.ndarray, g: Optional[np.ndarray], grid: Grid,
                g_floor: float = 1e-12) -> float:
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
        return float(np.dot(fm, sq))
    gf = np.maximum(0.5 * (g[1:] + g[:-1]), g_floor)
    return float(np.dot(fm, sq / gf))

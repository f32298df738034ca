"""Cell-centered finite-volume grids on intervals and radially symmetric balls.

``Geometry`` is the union of two kinds, :class:`Interval` and :class:`Radial`,
each a frozen dataclass that checks only its own fields and exposes
``bounds``, the (lo, hi) range of the axial or radial coordinate.

A :class:`Grid` stores cell centers, face positions, geometric face areas and
cell measures.  For radial geometry in dimension ``d`` the measures carry the
full angular factor (omega_1 = 2, omega_2 = 2*pi, omega_3 = 4*pi), so
``sum(m)`` is the measure of the d-ball and quadrature against cell fields
gives genuine domain integrals.  The innermost face of a radial grid sits at
r = 0; together with explicit zero boundary fluxes in the operators this
encodes the symmetry condition without special-casing the origin.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = ["Geometry", "Grid", "Interval", "Radial", "build_grid"]

_OMEGA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _check(n_cells: int, **lengths: float) -> None:
    if not np.isfinite(n_cells) or int(n_cells) != n_cells or n_cells < 4:
        raise ValueError(f"n_cells must be an integer >= 4, got {n_cells}")
    for name, value in lengths.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Interval:
    """The interval [x_lo, x_hi], cut into n_cells >= 4 uniform cells."""

    n_cells: int
    x_lo: float = 0.0
    x_hi: float = 1.0

    def __post_init__(self) -> None:
        _check(self.n_cells, x_lo=self.x_lo, x_hi=self.x_hi)
        if not self.x_lo < self.x_hi:
            raise ValueError(f"need x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")

    @property
    def bounds(self) -> tuple[float, float]:
        return self.x_lo, self.x_hi


@dataclass(frozen=True)
class Radial:
    """The ball of radius R > 0 in R^d, d in {1, 2, 3}, in n_cells >= 4 shells."""

    n_cells: int
    d: int
    R: float = 1.0

    def __post_init__(self) -> None:
        _check(self.n_cells, R=self.R)
        if self.d not in (1, 2, 3):
            raise ValueError(f"radial dimension must be 1, 2 or 3, got {self.d}")
        if not self.R > 0.0:
            raise ValueError(f"radius must be positive, got {self.R}")

    @property
    def bounds(self) -> tuple[float, float]:
        return 0.0, self.R


Geometry = Union[Interval, Radial]


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh realized from a ``Geometry``.

    Attributes:
        geometry: the originating descriptor.
        centers: cell-center coordinates, shape (n,).
        faces: face coordinates, shape (n+1,).
        m: cell measures (length/area/volume incl. angular factor), shape (n,).
        face_areas: geometric face areas a_{i+1/2}, shape (n+1,).  1 for
            intervals, omega_d * r^(d-1) for radial grids (0 at r = 0 when
            d >= 2; the boundary *fluxes* are forced to zero by the operators
            regardless of the geometric area).
        h: uniform cell width in the axial/radial coordinate.
    """

    geometry: Geometry
    centers: np.ndarray = field(repr=False)
    faces: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    face_areas: np.ndarray = field(repr=False)
    h: float

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def volume(self) -> float:
        """Total measure of the domain, sum(m)."""
        return float(self.m.sum())


def build_grid(geometry: Geometry) -> Grid:
    """Build the uniform grid for a geometry.

    The cell measures telescope exactly: for a radial grid
    m_i = (omega_d / d) * (r_{i+1}^d - r_i^d), so their sum equals the ball
    measure up to accumulation rounding (< 1e-12 relative).  Centers are
    computed as ``lo + span * (i + 1/2) / n`` so that symmetric points (e.g.
    the midpoint of [0, 1] with odd n) land exactly on representable values.
    """
    n = geometry.n_cells
    lo, hi = geometry.bounds
    span = hi - lo
    h = span / n
    centers = lo + span * ((np.arange(n, dtype=np.float64) + 0.5) / n)
    faces = lo + span * (np.arange(n + 1, dtype=np.float64) / n)

    if isinstance(geometry, Radial):
        d, omega = geometry.d, _OMEGA[geometry.d]
        face_areas = omega * faces ** (d - 1)
        m = (omega / d) * (faces[1:] ** d - faces[:-1] ** d)
    else:
        face_areas = np.ones(n + 1)
        m = np.full(n, h)

    return Grid(geometry=geometry, centers=centers, faces=faces, m=m,
                face_areas=face_areas, h=h)

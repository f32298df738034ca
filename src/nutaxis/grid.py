"""Cell-centered finite-volume grids on intervals and radially symmetric balls.

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

import numpy as np

__all__ = ["Geometry", "Grid", "build_grid"]

_OMEGA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


@dataclass(frozen=True)
class Geometry:
    """Domain descriptor: an interval [x_lo, x_hi] or a radial ball in R^d.

    Attributes:
        kind: "interval" or "radial".
        n_cells: number of uniform cells (>= 4).
        x_lo, x_hi: interval endpoints (interval kind only).
        d: ball dimension in {1, 2, 3} (radial kind only).
        R: ball radius > 0 (radial kind only).
    """

    kind: str
    n_cells: int
    x_lo: float = 0.0
    x_hi: float = 1.0
    d: int = 1
    R: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("interval", "radial"):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if int(self.n_cells) != self.n_cells or self.n_cells < 4:
            raise ValueError(f"n_cells must be an integer >= 4, got {self.n_cells}")
        for name in ("x_lo", "x_hi", "R"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "interval":
            if not self.x_lo < self.x_hi:
                raise ValueError(f"need x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        else:
            if self.d not in (1, 2, 3):
                raise ValueError(f"radial dimension must be 1, 2 or 3, got {self.d}")
            if not self.R > 0.0:
                raise ValueError(f"radius must be positive, got {self.R}")


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh realized from a :class:`Geometry`.

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
    idx = np.arange(n, dtype=np.float64)
    if geometry.kind == "interval":
        lo, span = geometry.x_lo, geometry.x_hi - geometry.x_lo
        d, omega = 1, 1.0
        radial = False
    else:
        lo, span = 0.0, geometry.R
        d, omega = geometry.d, _OMEGA[geometry.d]
        radial = True

    h = span / n
    centers = lo + span * ((idx + 0.5) / n)
    faces = lo + span * (np.arange(n + 1, dtype=np.float64) / n)

    if radial:
        face_areas = omega * faces ** (d - 1)
        m = (omega / d) * (faces[1:] ** d - faces[:-1] ** d)
    else:
        face_areas = np.ones(n + 1)
        m = np.full(n, h)

    return Grid(geometry=geometry, centers=centers, faces=faces, m=m,
                face_areas=face_areas, h=h)

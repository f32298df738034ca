"""Initial-data profiles and the simulation state triple.

Profiles are small declarative descriptors evaluated pointwise at cell
centers (second-order consistent with the scheme; all supported shapes are
smooth).  ``Mirrored`` wraps another profile and evaluates it at the
reflected coordinate ``x_lo + x_hi - x``, which is how mirror-symmetric
competitor pairs are declared.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .grid import Grid
from .operators import integrate

__all__ = ["Constant", "Gaussian", "Mirrored", "Profile", "State", "init_state"]


@dataclass(frozen=True)
class Constant:
    """Spatially constant profile ``x -> value``."""

    value: float

    def evaluate(self, x: np.ndarray, x_lo: float, x_hi: float) -> np.ndarray:
        return np.full_like(x, float(self.value))


@dataclass(frozen=True)
class Gaussian:
    """Offset Gaussian bump ``x -> base + amp * exp(-rate * (x - center)^2)``."""

    base: float
    amp: float
    rate: float
    center: float

    def evaluate(self, x: np.ndarray, x_lo: float, x_hi: float) -> np.ndarray:
        return self.base + self.amp * np.exp(-self.rate * (x - self.center) ** 2)


@dataclass(frozen=True)
class Mirrored:
    """Reflection of another profile about the domain midpoint."""

    inner: Profile

    def evaluate(self, x: np.ndarray, x_lo: float, x_hi: float) -> np.ndarray:
        return self.inner.evaluate(x_lo + x_hi - x, x_lo, x_hi)


Profile = Union[Constant, Gaussian, Mirrored]


@dataclass
class State:
    """Cell-centered fields (u, v, w) at time t.

    Invariants along any accepted trajectory: u > 0, v > 0, w >= 0.
    v-positivity is exact by construction (multiplicative updates only).
    The arrays are owned by exactly one stepper at a time; hand-off between
    threads is safe, shared mutation is not.
    """

    t: float
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    def copy(self) -> "State":
        return State(self.t, self.u.copy(), self.v.copy(), self.w.copy())


def _domain_bounds(grid: Grid) -> tuple[float, float]:
    g = grid.geometry
    if g.kind == "interval":
        return g.x_lo, g.x_hi
    return 0.0, g.R


def sample(profile: Profile, grid: Grid) -> np.ndarray:
    """Evaluate a profile at the grid's cell centers as a float64 array."""
    lo, hi = _domain_bounds(grid)
    return np.asarray(profile.evaluate(grid.centers, lo, hi), dtype=np.float64)


def init_state(u0: Profile, v0: Profile, w0: Profile, grid: Grid) -> tuple[State, float]:
    """Sample profiles at cell centers and return ``(state, I0)``.

    ``I0 = integral(ln v0 - ln u0)`` is reported so callers can assert the
    balanced-start convention I(0) = 0 where applicable (it is exact whenever
    u0 and v0 are the same descriptor).

    Raises:
        ValueError: if u0 or v0 evaluates to <= 0 at any center, or w0 < 0.
    """
    u = sample(u0, grid)
    v = sample(v0, grid)
    w = sample(w0, grid)
    if not np.all(u > 0.0):
        raise ValueError("u0 must be strictly positive at every cell center")
    if not np.all(v > 0.0):
        raise ValueError("v0 must be strictly positive at every cell center")
    if not np.all(w >= 0.0):
        raise ValueError("w0 must be nonnegative at every cell center")
    i0 = integrate(np.log(v) - np.log(u), grid)
    return State(t=0.0, u=u, v=v, w=w), i0

"""Initial-data profiles, the simulation state triple and its sign checks.

Profiles are small declarative descriptors evaluated pointwise at cell
centers (second-order consistent with the scheme; all supported shapes are
smooth).  ``Mirrored`` wraps another profile and evaluates it at the
reflected coordinate ``x_lo + x_hi - x``, which is how mirror-symmetric
competitor pairs are declared.

`require_positive` and `require_nonnegative` check the invariant of a
`State` wherever the kernel's fused checks do not; like those, a failure
names the first failing cell (a NaN fails both) and its value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .grid import Grid
from .operators import integrate

__all__ = ["Constant", "Gaussian", "Mirrored", "NonpositiveField", "Profile",
           "State", "init_state", "require_nonnegative", "require_positive"]


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


class NonpositiveField(ValueError):
    """A field broke the state invariant: u or v not > 0, or w not >= 0."""


def _require(name: str, arr: np.ndarray, ok: np.ndarray, relation: str,
             t: Optional[float]) -> None:
    if not ok.all():
        cell = int(np.argmax(~ok))
        at_t = "" if t is None else f", t = {t:.6g}"
        raise NonpositiveField(f"{name} is not {relation} at cell {cell}"
                               f"{at_t}: {float(arr[cell])!r}")


def require_positive(name: str, arr: np.ndarray,
                     t: Optional[float] = None) -> None:
    """Raise NonpositiveField unless arr > 0; t, if given, is named too."""
    _require(name, arr, arr > 0.0, "> 0", t)


def require_nonnegative(name: str, arr: np.ndarray) -> None:
    """Raise NonpositiveField unless arr >= 0."""
    _require(name, arr, arr >= 0.0, ">= 0", None)


def sample(profile: Profile, grid: Grid) -> np.ndarray:
    """Evaluate a profile at the grid's cell centers as a float64 array."""
    return np.asarray(profile.evaluate(grid.centers, *grid.geometry.bounds),
                      dtype=np.float64)


def init_state(u0: Profile, v0: Profile, w0: Profile, grid: Grid) -> tuple[State, float]:
    """Sample profiles at cell centers and return ``(state, I0)``.

    ``I0 = integral(ln v0 - ln u0)`` is reported so callers can assert the
    balanced-start convention I(0) = 0 where applicable (it is exact whenever
    u0 and v0 are the same descriptor).

    Raises:
        NonpositiveField: if u0 or v0 is not > 0 at some center, or w0 is
            not >= 0 (NaN included).
    """
    u = sample(u0, grid)
    v = sample(v0, grid)
    w = sample(w0, grid)
    require_positive("u0", u)
    require_positive("v0", v)
    require_nonnegative("w0", w)
    i0 = integrate(np.log(v) - np.log(u), grid)
    return State(t=0.0, u=u, v=v, w=w), i0

"""Model coefficients and the saturated-uptake regularization.

The continuum system couples a diffusing, nutrient-tactic consumer ``u``, an
immotile competitor ``v`` and a nutrient ``w``::

    u_t = D_u lap(u) - chi div(u F'(u) grad w) + delta F(u) w
    v_t = alpha v w
    w_t = D_w lap(w) - beta F(u) w - gamma v w

with homogeneous Neumann boundary conditions.  ``F = f_eps`` is the
regularized uptake ``s -> s / (1 + eps s)``; ``eps = 0`` recovers the plain
product form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ModelParams", "f_eps", "f_eps_prime"]


@dataclass(frozen=True)
class ModelParams:
    """Validated bundle of all PDE/ODE coefficients.

    Attributes:
        D_u: Diffusivity of the motile species ``u`` (must be > 0).
        D_w: Diffusivity of the nutrient ``w`` (must be > 0).
        chi: Chemotactic sensitivity (>= 0).
        alpha: Proliferation rate of the immotile species ``v`` (>= 0).
        beta: Nutrient uptake rate by ``u`` (>= 0).
        gamma: Nutrient uptake rate by ``v`` (>= 0).
        delta: Proliferation rate of ``u`` (>= 0).
        eps_reg: Uptake regularization parameter (>= 0; 0 = unregularized).

    The normalized form of the system is the special case
    ``D_w == delta == 1``.  Rate coefficients are allowed to be zero so the
    same stepper can integrate degenerate cases (pure heat flow, frozen
    species); the diffusivities stay strictly positive.
    """

    D_u: float
    D_w: float
    chi: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    eps_reg: float = 0.0

    def __post_init__(self) -> None:
        if not (self.D_u > 0.0 and np.isfinite(self.D_u)):
            raise ValueError(f"D_u must be positive and finite, got {self.D_u}")
        if not (self.D_w > 0.0 and np.isfinite(self.D_w)):
            raise ValueError(f"D_w must be positive and finite, got {self.D_w}")
        for name in ("chi", "alpha", "beta", "gamma", "delta", "eps_reg"):
            val = getattr(self, name)
            if not (val >= 0.0 and np.isfinite(val)):
                raise ValueError(f"{name} must be >= 0 and finite, got {val}")


def f_eps(s, eps: float):
    """Regularized uptake ``s / (1 + eps*s)``.

    Accepts scalars or arrays (``s >= 0``).  For ``eps == 0`` this is the
    identity; for ``eps > 0`` it is bounded by ``min(s, 1/eps)``.
    """
    if eps == 0.0:
        return s
    return s / (1.0 + eps * s)


def f_eps_prime(s, eps: float):
    """Derivative of :func:`f_eps`: ``1 / (1 + eps*s)**2``, in ``(0, 1]``.

    Monotone nonincreasing in ``s`` and increasing to 1 as ``eps`` decreases
    to 0.  For ``eps == 0`` returns 1 with the shape of ``s``.
    """
    if eps == 0.0:
        return np.ones_like(s) if isinstance(s, np.ndarray) else 1.0
    q = 1.0 + eps * s
    return 1.0 / (q * q)

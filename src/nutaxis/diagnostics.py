"""Scalar functionals evaluated on states, and the trajectory audits.

Everything here is read-only: records are assembled from a `State` plus the
grid, the model parameters, and a small set of constants derived from the
initial data.  The audits check, at output resolution, the discrete analogues
of the bounds the scheme is supposed to respect:

* the competition index I(t) = integral of ln(v/u),
* the quasi-energy F = beta*int u ln u + (gamma*chi/2alpha)*int |grad v|^2/v
  + (chi/2)*int |grad w|^2/w and its dissipation partner
  D = int |grad u|^2/u + int |lap w|^2 + int |grad w|^4,
* the Lyapunov combination L = I + a*int w + b*int w^2 with
  a = (alpha + 1/4)/kappa, b = chi^2/(4 D_u), kappa = gamma*min v0,
* the time-integrated inequality
  I(t) + (D_u/2)*int_0^t int |grad u|^2/u^2 + (1/4)*int_0^t int w
  <= I(0) + a*int w0 + b*int w0^2,
  together with the gradient budget int_0^t int |grad w|^2 <= (1/2) int w0^2.

All logarithms floor their argument at 1e-300; nonpositive u or v raise
NonpositiveField instead of propagating NaNs.  Cumulative quantities use the
trapezoid rule on the output schedule, not on every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .grid import Grid
from .model import ModelParams
from .operators import (
    face_gradient,
    integrate,
    laplacian_neumann,
    weighted_gradient_energy,
)
from .profiles import State

__all__ = [
    "NonpositiveField",
    "DiagnosticsRecord",
    "DerivedConstants",
    "IntegratedAuditReport",
    "JensenReport",
    "competition_index",
    "derived_constants",
    "quasi_energy",
    "dissipation",
    "lyapunov",
    "evaluate_record",
    "record_fields",
    "integrated_inequality_audit",
    "jensen_gap",
]

_LN_FLOOR = 1e-300


class NonpositiveField(ValueError):
    """A functional needing positive data was fed a nonpositive field."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One output-time row of the trajectory time series.

    ``fisher_u`` is int |grad u|^2 / u^2, ``grad_w_L2`` is int |grad w|^2,
    ``cum_D`` and ``cum_w`` are running trapezoid integrals of ``D_dissip``
    and ``mass_w`` over the output times seen so far.
    """

    t: float
    I: float
    mass_u: float
    mass_w: float
    max_w: float
    min_u: float
    F_quasi: float
    D_dissip: float
    L_lyap: float
    fisher_u: float
    grad_w_L2: float
    max_grad_u: float
    cum_D: float
    cum_w: float


def record_fields() -> list[str]:
    """Column names of the record series, in serialization order."""
    return [f.name for f in fields(DiagnosticsRecord)]


@dataclass(frozen=True)
class DerivedConstants:
    """Constants computed once from the initial data.

    kappa = gamma * min v0 (cell minimum) is the guaranteed exponential decay
    rate of max w; a and b are the Lyapunov weights; M_star and sigma_star
    are int |grad w0|^2/w0 and max w0; jensen_c1 is the logarithmic Jensen
    gap of u0 (NaN when u0 was not supplied).
    """

    kappa: float
    a: float
    b: float
    M_star: float
    sigma_star: float
    jensen_c1: float


def _require_positive(name: str, arr: np.ndarray) -> None:
    if arr.size and float(arr.min()) <= 0.0:
        cell = int(np.argmin(arr))
        raise NonpositiveField(f"{name} is nonpositive at cell {cell}: {arr[cell]!r}")


def _ln(arr: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(arr, _LN_FLOOR))


def competition_index(state: State, grid: Grid) -> float:
    """I(t) = integral of ln(v/u); negative means u leads in log average."""
    _require_positive("u", state.u)
    _require_positive("v", state.v)
    return float(integrate(_ln(state.v) - _ln(state.u), grid))


@dataclass(frozen=True)
class JensenReport:
    """c1 = ln(mean phi) - mean(ln phi) >= 0; strict iff phi is nonconstant."""

    c1: float
    strict: bool


def jensen_gap(phi: np.ndarray, grid: Grid) -> JensenReport:
    """Logarithmic Jensen gap of a positive cell field (volume-weighted)."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.min() <= 0.0:
        raise NonpositiveField("jensen gap needs a strictly positive field")
    vol = grid.volume
    mean = float(integrate(phi, grid) / vol)
    mean_ln = float(integrate(np.log(phi), grid) / vol)
    c1 = math.log(mean) - mean_ln
    return JensenReport(c1=c1, strict=bool(c1 > 1e-12))


def derived_constants(v0: np.ndarray, w0: np.ndarray, params: ModelParams,
                      grid: Grid, u0: Optional[np.ndarray] = None) -> DerivedConstants:
    """Constants of the initial data (see class docstring).

    v0 must be positive and w0 nonnegative.  M_star uses the floored
    weighted gradient energy, so a vanishing w0 simply contributes zero.
    """
    _require_positive("v0", v0)
    if w0.size and float(w0.min()) < 0.0:
        raise NonpositiveField("w0 has negative entries")
    kappa = params.gamma * float(v0.min())
    a = (params.alpha + 0.25) / kappa if kappa > 0.0 else np.inf
    b = params.chi ** 2 / (4.0 * params.D_u)
    m_star = weighted_gradient_energy(w0, w0, 2, grid)
    sigma_star = float(w0.max()) if w0.size else 0.0
    if u0 is None:
        c1 = float("nan")
    else:
        _require_positive("u0", u0)
        c1 = jensen_gap(u0, grid).c1
    return DerivedConstants(kappa=kappa, a=a, b=b, M_star=float(m_star),
                            sigma_star=sigma_star, jensen_c1=c1)


def quasi_energy(state: State, params: ModelParams, grid: Grid) -> float:
    """F(t); the w-weight is floored so snapped-to-zero nutrient is harmless."""
    _require_positive("u", state.u)
    _require_positive("v", state.v)
    if state.w.size and float(state.w.min()) < 0.0:
        raise NonpositiveField("w has negative entries")
    total = params.beta * integrate(state.u * _ln(state.u), grid)
    gc = params.gamma * params.chi
    if gc > 0.0:
        total += gc / (2.0 * params.alpha) * weighted_gradient_energy(
            state.v, state.v, 2, grid)
    if params.chi > 0.0:
        total += 0.5 * params.chi * weighted_gradient_energy(
            state.w, state.w, 2, grid)
    return float(total)


def dissipation(state: State, grid: Grid) -> float:
    """D(t) = int |grad u|^2/u + int |lap w|^2 + int |grad w|^4 (>= 0)."""
    _require_positive("u", state.u)
    lap_w = laplacian_neumann(state.w, grid)
    return float(weighted_gradient_energy(state.u, state.u, 2, grid)
                 + integrate(lap_w * lap_w, grid)
                 + weighted_gradient_energy(state.w, None, 4, grid))


def lyapunov(state: State, consts: DerivedConstants, grid: Grid) -> float:
    """L(t) = I(t) + a*int w + b*int w^2 (nonincreasing along trajectories)."""
    w = state.w
    return (competition_index(state, grid)
            + consts.a * integrate(w, grid)
            + consts.b * integrate(w * w, grid))


def evaluate_record(state: State, consts: DerivedConstants, params: ModelParams,
                    grid: Grid, prev: Optional[DiagnosticsRecord] = None
                    ) -> DiagnosticsRecord:
    """Assemble the full record at state.t, chaining cum fields off ``prev``."""
    u, w = state.u, state.w
    i_val = competition_index(state, grid)
    d_val = dissipation(state, grid)
    mass_w = float(integrate(w, grid))
    # the 1e-100 weight floor keeps near-vacuum u cells from zero-division
    # while staying far below any physically reachable u^2
    fisher = float(weighted_gradient_energy(u, u * u, 2, grid, g_floor=1e-100))
    lyap = i_val + consts.a * mass_w + consts.b * float(integrate(w * w, grid))
    if prev is None:
        cum_d, cum_w = 0.0, 0.0
    else:
        gap = state.t - prev.t
        cum_d = prev.cum_D + 0.5 * gap * (prev.D_dissip + d_val)
        cum_w = prev.cum_w + 0.5 * gap * (prev.mass_w + mass_w)
    return DiagnosticsRecord(
        t=state.t,
        I=i_val,
        mass_u=float(integrate(u, grid)),
        mass_w=mass_w,
        max_w=float(w.max()),
        min_u=float(u.min()),
        F_quasi=quasi_energy(state, params, grid),
        D_dissip=d_val,
        L_lyap=lyap,
        fisher_u=fisher,
        grad_w_L2=float(weighted_gradient_energy(w, None, 2, grid)),
        max_grad_u=float(np.max(np.abs(face_gradient(u, grid)))),
        cum_D=cum_d,
        cum_w=cum_w,
    )


@dataclass(frozen=True)
class IntegratedAuditReport:
    """Outcome of the time-integrated inequality checks.

    ``slack`` holds, per output time, RHS minus LHS of the integrated
    Lyapunov inequality (must stay >= 0); ``grad_slack`` the remaining
    gradient budget (1/2) int w0^2 - int_0^t int |grad w|^2.
    """

    ok: bool
    inequality_ok: bool
    grad_budget_ok: bool
    min_slack: float
    min_grad_slack: float
    slack: np.ndarray
    grad_slack: np.ndarray


def _cumtrapz(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if len(y) > 1:
        out[1:] = np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))
    return out


def integrated_inequality_audit(records: Sequence[DiagnosticsRecord],
                                consts: DerivedConstants, D_u: float,
                                mass_w0_sq: float) -> IntegratedAuditReport:
    """Check the integrated Lyapunov inequality and the gradient budget.

    The inequality is anchored at the first record (normally t = 0):
    I(t) + (D_u/2)*cum(fisher_u) + (1/4)*cum_w <= I(0) + a*mass_w(0)
    + b*mass_w0_sq at every recorded time, and
    cum(grad_w_L2) <= mass_w0_sq / 2.  ``mass_w0_sq`` is int w0^2, which is
    not part of the record series and must be supplied by the caller.
    """
    if not records:
        raise ValueError("need at least one record")
    t = np.array([r.t for r in records])
    i_series = np.array([r.I for r in records])
    fisher = np.array([r.fisher_u for r in records])
    cum_w = np.array([r.cum_w for r in records])
    grad_w = np.array([r.grad_w_L2 for r in records])

    rhs = records[0].I + consts.a * records[0].mass_w + consts.b * mass_w0_sq
    lhs = i_series + 0.5 * D_u * _cumtrapz(t, fisher) + 0.25 * cum_w
    slack = rhs - lhs
    grad_slack = 0.5 * mass_w0_sq - _cumtrapz(t, grad_w)
    ineq_ok = bool(slack.min() >= 0.0)
    grad_ok = bool(grad_slack.min() >= 0.0)
    return IntegratedAuditReport(
        ok=ineq_ok and grad_ok,
        inequality_ok=ineq_ok,
        grad_budget_ok=grad_ok,
        min_slack=float(slack.min()),
        min_grad_slack=float(grad_slack.min()),
        slack=slack,
        grad_slack=grad_slack,
    )

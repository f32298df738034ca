"""Space-free and comparison models: the well-mixed ODE system, the pure
heat problem, and the stabilization constants built on the Jensen gap.

The ODE system drops all transport:

    u' = delta*u*w,   v' = alpha*v*w,   w' = -beta*u*w - gamma*v*w,

so (beta/delta)*u + (gamma/alpha)*v + w is conserved exactly (it is linear,
hence preserved by any Runge-Kutta method up to rounding).  Its end state
obeys the sign law sgn(u_inf - v_inf) = sgn(delta - alpha) when u0 = v0.

The heat problem U_t = D*lap(U) is run through the regular integrator with
taxis and reactions switched off; its observables int ln U and
sup|U - mean| feed the stabilization constants L = c1*|Omega|/2 and t0,
where c1 = ln(mean phi) - mean(ln phi) is the Jensen gap of the initial
data (strictly positive for nonconstant data).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .diagnostics import NonpositiveField, _ln, jensen_gap
from .experiments import OutputSchedule, output_times
from .grid import Grid
from .model import ModelParams
from .operators import integrate
from .profiles import Profile, State, sample
from .stepper import StepperConfig, advance

__all__ = [
    "OdeState",
    "HorizonTooShort",
    "SignLawMismatch",
    "ode_step_rk4",
    "ode_solve",
    "conserved_quantity",
    "sign_law_check",
    "HeatTrajectory",
    "heat_params",
    "heat_solve",
    "stabilization_constants",
]


class HorizonTooShort(RuntimeError):
    """The nutrient had not decayed below threshold by the given horizon."""


class SignLawMismatch(RuntimeError):
    """sgn(u_end - v_end) disagreed with sgn(delta - alpha)."""


@dataclass(frozen=True)
class OdeState:
    """Point state of the well-mixed system; u, v > 0 and w >= 0."""

    t: float
    u: float
    v: float
    w: float


def _rk4(u: float, v: float, w: float, dt: float,
         delta: float, alpha: float, beta: float, gamma: float
         ) -> tuple[float, float, float]:
    # stage evaluations share the u*w / v*w products so that the exact
    # delta == alpha, u == v symmetry is preserved bitwise
    uw = u * w
    vw = v * w
    k1u, k1v, k1w = delta * uw, alpha * vw, -beta * uw - gamma * vw
    u2, v2, w2 = u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, w + 0.5 * dt * k1w
    uw = u2 * w2
    vw = v2 * w2
    k2u, k2v, k2w = delta * uw, alpha * vw, -beta * uw - gamma * vw
    u3, v3, w3 = u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, w + 0.5 * dt * k2w
    uw = u3 * w3
    vw = v3 * w3
    k3u, k3v, k3w = delta * uw, alpha * vw, -beta * uw - gamma * vw
    u4, v4, w4 = u + dt * k3u, v + dt * k3v, w + dt * k3w
    uw = u4 * w4
    vw = v4 * w4
    k4u, k4v, k4w = delta * uw, alpha * vw, -beta * uw - gamma * vw
    c = dt / 6.0
    return (u + c * (k1u + 2.0 * (k2u + k3u) + k4u),
            v + c * (k1v + 2.0 * (k2v + k3v) + k4v),
            w + c * (k1w + 2.0 * (k2w + k3w) + k4w))


def ode_step_rk4(s: OdeState, params: ModelParams, dt: float) -> OdeState:
    """One classical fourth-order step."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    u, v, w = _rk4(s.u, s.v, s.w, dt, params.delta, params.alpha,
                   params.beta, params.gamma)
    return OdeState(s.t + dt, u, v, w)


def ode_solve(s0: OdeState, params: ModelParams, t_end: float,
              dt: float) -> list[OdeState]:
    """Fixed-step trajectory from s0 to t_end inclusive (final step shortened).

    Along the result u and v are nondecreasing and w nonincreasing.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < s0.t:
        raise ValueError("t_end is before the initial time")
    out = [s0]
    n_full = int(math.floor((t_end - s0.t) / dt + 1e-12))
    s = s0
    for _ in range(n_full):
        s = ode_step_rk4(s, params, dt)
        out.append(s)
    if s.t < t_end - 1e-12 * max(1.0, abs(t_end)):
        s = ode_step_rk4(s, params, t_end - s.t)
        out.append(s)
    return out


def conserved_quantity(s: OdeState, params: ModelParams) -> float:
    """Q = (beta/delta) u + (gamma/alpha) v + w, constant along trajectories."""
    if params.delta == 0.0 or params.alpha == 0.0:
        raise ValueError("conserved quantity needs delta > 0 and alpha > 0")
    return (params.beta / params.delta) * s.u + (params.gamma / params.alpha) * s.v + s.w


def _sgn(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def sign_law_check(u0: float, v0: float, w0: float, params: ModelParams,
                   t_end: float, dt: float = 1e-2) -> int:
    """Integrate until w < 1e-10*w0 and return sgn(u - v).

    The law requires equal initial densities, so u0 != v0 is rejected.  The
    returned sign is also checked against sgn(delta - alpha) and a mismatch
    raises SignLawMismatch — the point of the operation is the assertion.

    Raises:
        HorizonTooShort: if w has not decayed below threshold by t_end.
    """
    if u0 != v0:
        raise ValueError("sign law is stated for u0 == v0")
    if min(u0, v0) <= 0.0 or w0 < 0.0:
        raise ValueError("need u0, v0 > 0 and w0 >= 0")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    threshold = 1e-10 * w0
    u, v, w, t = u0, v0, w0, 0.0
    while w > threshold:
        if t >= t_end:
            raise HorizonTooShort(
                f"w = {w:.3e} > threshold {threshold:.3e} at t_end = {t_end}")
        step = min(dt, t_end - t)
        u, v, w = _rk4(u, v, w, step, params.delta, params.alpha,
                       params.beta, params.gamma)
        t += step
    sign = _sgn(u - v)
    expected = _sgn(params.delta - params.alpha)
    if sign != expected:
        raise SignLawMismatch(
            f"sgn(u-v) = {sign} but sgn(delta-alpha) = {expected} "
            f"(u = {u!r}, v = {v!r})")
    return sign


@dataclass(frozen=True)
class HeatTrajectory:
    """Observables of the pure heat run on its (log-spaced) schedule."""

    times: np.ndarray
    int_ln_u: np.ndarray
    sup_dist: np.ndarray
    mean: float


def heat_params(D: float) -> ModelParams:
    """Parameters of the pure heat flow U_t = D*lap(U): taxis and reactions off."""
    return ModelParams(D_u=D, D_w=1.0, chi=0.0, alpha=0.0, beta=0.0,
                       gamma=0.0, delta=0.0)


def heat_solve(u0: Union[Profile, np.ndarray], D: float, grid: Grid,
               t_end: float, dt: float = 1e-3, t_first: float = 1e-3,
               factor: float = 1.25) -> HeatTrajectory:
    """Run U_t = D*lap(U) and record int ln U and sup|U - mean|.

    Reuses the full integrator with taxis and all reactions off.  The mean is
    the discrete volume average of the initial data (mass is conserved).
    Observation times are t = 0, then t_first*factor^k, then t_end.

    Raises:
        ValueError: unless t_first > 0 and factor > 1.
    """
    ts = output_times(OutputSchedule(t_first, factor), t_end)
    arr = sample(u0, grid) if not isinstance(u0, np.ndarray) else np.asarray(
        u0, dtype=np.float64).copy()
    if arr.min() <= 0.0:
        raise NonpositiveField("heat initial data must be positive")
    cfg = StepperConfig(dt=dt)
    state = State(t=0.0, u=arr.copy(), v=np.ones_like(arr), w=np.zeros_like(arr))

    mean = float(integrate(arr, grid) / grid.volume)
    times = [0.0]
    int_ln = [float(integrate(np.log(arr), grid))]
    sup = [float(np.max(np.abs(arr - mean)))]

    def look(s: State) -> None:
        times.append(s.t)
        int_ln.append(float(integrate(_ln(s.u), grid)))
        sup.append(float(np.max(np.abs(s.u - mean))))

    advance(state, grid, heat_params(D), cfg, t_end, observe_times=ts,
            observer=look)
    return HeatTrajectory(np.array(times), np.array(int_ln), np.array(sup), mean)


def stabilization_constants(u0: Union[Profile, np.ndarray], D: float,
                            grid: Grid, dt: float = 1e-3) -> tuple[float, float]:
    """Return (L, t0): L = c1*|Omega|/2 and the first sampled time with
    int ln U(t) - int ln u0 >= L.

    Constant data gives (0, 0).  The heat run horizon starts at five slowest
    decay times and is extended (x4, twice) before giving up.

    Raises:
        HorizonTooShort: if the threshold is never crossed (cannot happen for
            genuinely nonconstant data; guards quadrature-degenerate input).
    """
    arr = sample(u0, grid) if not isinstance(u0, np.ndarray) else np.asarray(
        u0, dtype=np.float64)
    report = jensen_gap(arr, grid)
    L = 0.5 * report.c1 * grid.volume
    if not report.strict:
        return L, 0.0
    lo, hi = grid.faces[0], grid.faces[-1]
    span = float(hi - lo)
    t_end = 5.0 * span * span / (D * math.pi ** 2)
    for _ in range(3):
        traj = heat_solve(arr, D, grid, t_end, dt=dt)
        gap = traj.int_ln_u - traj.int_ln_u[0]
        hit = np.nonzero(gap >= L)[0]
        if hit.size:
            return L, float(traj.times[hit[0]])
        t_end *= 4.0
    raise HorizonTooShort(f"int ln U never rose by L = {L:.6g}")

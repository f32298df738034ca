"""Space-free and comparison models: the well-mixed ODE system, the pure
heat problem, and the stabilization constants built on the Jensen gap.

The ODE system drops all transport:

    u' = delta*u*w,   v' = alpha*v*w,   w' = -beta*u*w - gamma*v*w,

so (beta/delta)*u + (gamma/alpha)*v + w is conserved exactly (it is linear,
hence preserved by any Runge-Kutta method up to rounding).  Its end state
obeys the sign law sgn(u_inf - v_inf) = sgn(delta - alpha) when u0 = v0.

The heat problem U_t = D*lap(U) is the discrete Neumann heat flow of the
integrator's Laplacian, taken exactly in time through its eigenmodes (the
map the integrator takes once the nutrient is exhausted); its observables
int ln U and sup|U - mean| feed the stabilization constants
L = c1*|Omega|/2 and t0,
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
from .kernels import heat_evolve, heat_modes, heat_project
from .model import ModelParams
from .operators import diffusion_rows, integrate
from .profiles import Profile, sample

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
    """One classical fourth-order step (a finite dt > 0)."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    u, v, w = _rk4(s.u, s.v, s.w, dt, params.delta, params.alpha,
                   params.beta, params.gamma)
    return OdeState(s.t + dt, u, v, w)


def ode_solve(s0: OdeState, params: ModelParams, t_end: float,
              dt: float) -> list[OdeState]:
    """Fixed-step trajectory from s0 to t_end inclusive (final step shortened).

    Along the result u and v are nondecreasing and w nonincreasing and
    nonnegative: a step that leaves this invariant region (RK4 is unstable
    for too large a dt) raises.

    Raises:
        ValueError: unless dt > 0 and t_end >= s0.t are both finite, or
            when a step leaves the invariant region; the message names dt
            and the step's start time.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not s0.t <= t_end < math.inf:
        raise ValueError(f"t_end = {t_end} is not finite and at or after "
                         f"the initial time {s0.t}")
    out = [s0]
    n_full = int(math.floor((t_end - s0.t) / dt + 1e-12))
    s = s0
    for _ in range(n_full):
        s = _invariant_step(s, params, dt)
        out.append(s)
    if s.t < t_end - 1e-12 * max(1.0, abs(t_end)):
        s = _invariant_step(s, params, t_end - s.t)
        out.append(s)
    return out


def _invariant_step(s: OdeState, params: ModelParams, dt: float) -> OdeState:
    # one RK4 step that must keep u, v nondecreasing and w in [0, s.w],
    # written so that a NaN fails too
    nxt = ode_step_rk4(s, params, dt)
    if not (nxt.u >= s.u and nxt.v >= s.v and 0.0 <= nxt.w <= s.w):
        raise ValueError(
            f"RK4 step of dt = {dt:.6g} from t = {s.t:.6g} left the "
            f"invariant region (u = {nxt.u:.6g}, v = {nxt.v:.6g}, "
            f"w = {nxt.w:.6g}); take a smaller dt")
    return nxt


def conserved_quantity(s: OdeState, params: ModelParams) -> float:
    """Q = (beta/delta) u + (gamma/alpha) v + w, constant along trajectories."""
    if params.delta == 0.0 or params.alpha == 0.0:
        raise ValueError("conserved quantity needs delta > 0 and alpha > 0")
    return (params.beta / params.delta) * s.u + (params.gamma / params.alpha) * s.v + s.w


def _sgn(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def sign_law_check(u0: float, v0: float, w0: float, params: ModelParams,
                   t_end: float) -> int:
    """Integrate until w < 1e-10*w0 and return sgn(u - v).

    The steps are `ode_solve`'s checked RK4 step at dt = min(1e-2, 1/lam),
    lam = beta*u0 + gamma*v0 + (alpha + delta)*w0: since
    (beta/delta)*(u - u0) <= w0 and (gamma/alpha)*(v - v0) <= w0, lam bounds
    the nutrient's decay rate beta*u + gamma*v along the trajectory, and
    dt*lam <= 1 keeps RK4 stable.

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
    lam = (params.beta * u0 + params.gamma * v0
           + (params.alpha + params.delta) * w0)
    dt = 1.0 / max(100.0, lam)
    threshold = 1e-10 * w0
    s = OdeState(0.0, u0, v0, w0)
    while s.w > threshold:
        if s.t >= t_end:
            raise HorizonTooShort(
                f"w = {s.w:.3e} > threshold {threshold:.3e} at t_end = {t_end}")
        s = _invariant_step(s, params, min(dt, t_end - s.t))
    sign = _sgn(s.u - s.v)
    expected = _sgn(params.delta - params.alpha)
    if sign != expected:
        raise SignLawMismatch(
            f"sgn(u-v) = {sign} but sgn(delta-alpha) = {expected} "
            f"(u = {s.u!r}, v = {s.v!r})")
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
               t_end: float) -> HeatTrajectory:
    """Run U_t = D*lap(U) and record int ln U and sup|U - mean|.

    The flow is exact in time: the initial data is projected once
    (`kernels.heat_project`) on the `kernels.heat_modes` of the grid's
    `operators.diffusion_rows`, the rows the integrator's u solve factors,
    and each observed U is that projection's `kernels.heat_evolve`.  The
    mean is the discrete volume average of the initial data (mass is
    conserved).
    Observation times are t = 0, then those of the default
    ``OutputSchedule`` (1e-3 * 1.25^k), then t_end.

    Raises:
        ValueError: unless 0 < t_end < inf (a run of no time has nothing to
            record, and an infinite one never ends), or unless D is
            positive and finite.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"heat run needs a finite t_end > 0, got {t_end}")
    heat_params(D)  # validates D
    arr = sample(u0, grid) if not isinstance(u0, np.ndarray) else np.asarray(
        u0, dtype=np.float64)
    if arr.min() <= 0.0:
        raise NonpositiveField("heat initial data must be positive")
    modes = heat_modes(grid.m, *diffusion_rows(grid, D))
    mean, coef = heat_project(modes, arr)
    times = [0.0, *output_times(OutputSchedule(), t_end)]
    int_ln = [float(integrate(np.log(arr), grid))]
    sup = [float(np.max(np.abs(arr - mean)))]
    u = np.empty_like(arr)
    for t in times[1:]:
        heat_evolve(modes, mean, coef, t, u)
        int_ln.append(float(integrate(_ln(u), grid)))
        sup.append(float(np.max(np.abs(u - mean))))
    return HeatTrajectory(np.array(times), np.array(int_ln), np.array(sup), mean)


def stabilization_constants(u0: Union[Profile, np.ndarray], D: float,
                            grid: Grid) -> tuple[float, float]:
    """Return (L, t0): L = c1*|Omega|/2 and the first sampled time with
    int ln U(t) - int ln u0 >= L.

    Constant data gives (0, 0).  The heat run horizon starts at five slowest
    decay times and is extended (x4, twice) before giving up.

    Raises:
        ValueError: unless D is positive and finite.
        HorizonTooShort: if the threshold is never crossed (cannot happen for
            genuinely nonconstant data; guards quadrature-degenerate input).
    """
    heat_params(D)  # validates D, which the horizon divides by
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
        traj = heat_solve(arr, D, grid, t_end)
        gap = traj.int_ln_u - traj.int_ln_u[0]
        hit = np.nonzero(gap >= L)[0]
        if hit.size:
            return L, float(traj.times[hit[0]])
        t_end *= 4.0
    raise HorizonTooShort(f"int ln U never rose by L = {L:.6g}")

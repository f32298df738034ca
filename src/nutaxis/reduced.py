"""Space-free and comparison models: the well-mixed ODE system, the pure
heat problem, and the stabilization constants built on the Jensen gap.

The ODE system drops all transport:

    u' = delta*u*w,   v' = alpha*v*w,   w' = -beta*u*w - gamma*v*w.

In the nutrient exposure tau = int_0^t w it has a closed form:
u = u0 e^{delta tau}, v = v0 e^{alpha tau} and, from the conserved
Q = (beta/delta)*u + (gamma/alpha)*v + w, the decreasing and concave
w = w0 - beta*u0*phi(delta, tau) - gamma*v0*phi(alpha, tau), where
phi(r, tau) = expm1(r tau)/r (tau at r = 0).  The t -> inf end state sits at
the one root tau_inf of w, found by Newton's method, where
ln(v/u) = ln(v0/u0) + (alpha - delta)*tau_inf: from u0 = v0 the sign law
sgn(u_inf - v_inf) = sgn(delta - alpha) follows.

The heat problem U_t = D*lap(U) is the discrete Neumann heat flow of the
integrator's Laplacian, taken exactly in time through its eigenmodes (the
map the integrator takes once the nutrient is exhausted); it records
int ln U and sup|U - mean|.  Of these only int ln U feeds the stabilization
constants: L = c1*|Omega|/2 and the time t0 by which int ln U has risen by L,
where c1 = ln(mean phi) - mean(ln phi) is the Jensen gap of the initial
data (strictly positive for nonconstant data).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import jensen_gap
from .grid import Grid
from .kernels import heat_evolve, heat_modes, heat_project
from .model import ModelParams
from .operators import diffusion_rows, integrate
from .profiles import require_positive
from .stepper import OutputSchedule, output_times

__all__ = [
    "OdeState",
    "HorizonTooShort",
    "SignLawMismatch",
    "ode_state",
    "ode_end_state",
    "conserved_quantity",
    "sign_law_check",
    "HeatTrajectory",
    "heat_params",
    "heat_solve",
    "stabilization_constants",
]


class HorizonTooShort(RuntimeError):
    """A threshold was not crossed by the given horizon."""


class SignLawMismatch(RuntimeError):
    """sgn(u_end - v_end) disagreed with sgn(delta - alpha)."""


@dataclass(frozen=True)
class OdeState:
    """Point state of the well-mixed system at nutrient exposure tau;
    u, v > 0 and w >= 0."""

    tau: float
    u: float
    v: float
    w: float


def _phi(r: float, tau: float) -> float:
    # (e^{r tau} - 1)/r, and its r = 0 limit tau
    return math.expm1(r * tau) / r if r else tau


def ode_state(s0: OdeState, params: ModelParams, tau: float) -> OdeState:
    """The state after a further nutrient exposure tau from s0 (w >= 0 up to
    the end state's); ValueError unless tau >= 0, u0, v0 > 0 and w0 >= 0
    are all finite."""
    # written so that a NaN fails too
    if not (0.0 <= tau < math.inf and 0.0 < s0.u < math.inf
            and 0.0 < s0.v < math.inf and 0.0 <= s0.w < math.inf):
        raise ValueError(f"need finite tau >= 0, u0, v0 > 0 and w0 >= 0, "
                         f"got tau = {tau}, u0 = {s0.u}, v0 = {s0.v}, "
                         f"w0 = {s0.w}")
    p = params
    w = (s0.w - p.beta * s0.u * _phi(p.delta, tau)
         - p.gamma * s0.v * _phi(p.alpha, tau))
    return OdeState(s0.tau + tau, s0.u * math.exp(p.delta * tau),
                    s0.v * math.exp(p.alpha * tau), w)


def ode_end_state(s0: OdeState, params: ModelParams) -> OdeState:
    """The t -> inf limit of the flow from s0, where w = 0; w0 = 0 returns s0.

    Newton's first step from tau = 0 lands at or past the root of the
    concave w, and so does the root of w0 - c*phi(r, tau) for each species
    alone (c = beta*u0 or gamma*v0), which keeps exp finite for large w0.
    From the least of these the iterates fall monotonically to the root,
    and the first that does not decrease ends the search.

    Raises:
        ValueError: as `ode_state`, or if w0 > 0 never decays
            (beta*u0 + gamma*v0 = 0): there is no end state.
    """
    ode_state(s0, params, 0.0)  # validates s0
    if s0.w == 0.0:
        return s0
    p = params
    species = ((p.beta * s0.u, p.delta), (p.gamma * s0.v, p.alpha))
    rate = p.beta * s0.u + p.gamma * s0.v
    if rate == 0.0:
        raise ValueError(f"w never decays from w0 = {s0.w} > 0: "
                         f"beta*u0 + gamma*v0 = 0, so there is no end state")
    tau = min([s0.w / rate] + [math.log1p(r * s0.w / c) / r
                               for c, r in species if c and r])
    while True:
        s = ode_state(s0, params, tau)
        nxt = tau + s.w / (p.beta * s.u + p.gamma * s.v)
        if not nxt < tau:
            return replace(s, w=0.0)
        tau = nxt


def conserved_quantity(s: OdeState, params: ModelParams) -> float:
    """Q = (beta/delta) u + (gamma/alpha) v + w, constant along trajectories."""
    if params.delta == 0.0 or params.alpha == 0.0:
        raise ValueError("conserved quantity needs delta > 0 and alpha > 0")
    return (params.beta / params.delta) * s.u + (params.gamma / params.alpha) * s.v + s.w


def _sgn(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def sign_law_check(u0: float, v0: float, w0: float,
                   params: ModelParams) -> int:
    """Return sgn(u_inf - v_inf) of the end state from (u0, v0, w0).

    The law is stated for u0 == v0, so u0 != v0 raises ValueError.  The
    sign is checked against sgn(delta - alpha) and a mismatch raises
    SignLawMismatch — the point of the operation is the assertion.
    """
    if u0 != v0:
        raise ValueError("sign law is stated for u0 == v0")
    end = ode_end_state(OdeState(0.0, u0, v0, w0), params)
    sign = _sgn(end.u - end.v)
    expected = _sgn(params.delta - params.alpha)
    if sign != expected:
        raise SignLawMismatch(
            f"sgn(u-v) = {sign} but sgn(delta-alpha) = {expected} "
            f"(u = {end.u!r}, v = {end.v!r})")
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


def heat_solve(u0: np.ndarray, D: float, grid: Grid,
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
        NonpositiveField: unless u0 > 0, or if an observed U is not > 0
            (NaN included), naming the first such cell and, for a U, t.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"heat run needs a finite t_end > 0, got {t_end}")
    heat_params(D)  # validates D
    arr = np.asarray(u0, dtype=np.float64)
    require_positive("u0", arr)
    modes = heat_modes(grid.m, *diffusion_rows(grid, D))
    mean, coef = heat_project(modes, arr)
    times = [0.0, *output_times(OutputSchedule(), t_end)]
    int_ln = [float(integrate(np.log(arr), grid))]
    sup = [float(np.max(np.abs(arr - mean)))]
    u = np.empty_like(arr)
    for t in times[1:]:
        heat_evolve(modes, mean, coef, t, u)
        require_positive("heat U", u, t)
        int_ln.append(float(integrate(np.log(u), grid)))
        sup.append(float(np.max(np.abs(u - mean))))
    return HeatTrajectory(np.array(times), np.array(int_ln), np.array(sup), mean)


def stabilization_constants(u0: np.ndarray, D: float,
                            grid: Grid) -> tuple[float, float]:
    """Return (L, t0): L = c1*|Omega|/2 and the first sampled time with
    int ln U(t) - int ln u0 >= L.

    Constant data gives (0, 0).  The heat run lasts 80 slowest decay times.

    Raises:
        ValueError: unless D is positive and finite.
        HorizonTooShort: if the threshold is never crossed (cannot happen for
            genuinely nonconstant data; guards quadrature-degenerate input).
    """
    heat_params(D)  # validates D, which the horizon divides by
    arr = np.asarray(u0, dtype=np.float64)
    report = jensen_gap(arr, grid)
    L = 0.5 * report.c1 * grid.volume
    if not report.strict:
        return L, 0.0
    span = float(grid.faces[-1] - grid.faces[0])
    traj = heat_solve(arr, D, grid, 80.0 * span * span / (D * math.pi ** 2))
    hit = np.nonzero(traj.int_ln_u - traj.int_ln_u[0] >= L)[0]
    if not hit.size:
        raise HorizonTooShort(f"int ln U never rose by L = {L:.6g}")
    return L, float(traj.times[hit[0]])

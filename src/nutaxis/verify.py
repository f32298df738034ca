"""Self-contained verification oracles, runnable via ``nutaxis verify``.

Nothing here trusts the integrator: every check compares against a closed
form, an independent error-controlled reference, or a structural identity.

* Heat eigenmode: mean + A*cos(pi x) on [0, 1] is an exact eigenvector of
  the discrete Neumann Laplacian with eigenvalue lam_h = 2(cos(pi h)-1)/h^2.
  Spatial order comes from the exact discrete flow, which takes no time
  step (``kernels.heat_project`` on the ``kernels.heat_modes`` of
  ``operators.diffusion_rows``, then ``kernels.heat_evolve``), against the
  continuum solution: the error ~ h^2 from lam_h - lam is the Laplacian's
  alone.  Temporal order comes from SBDF2 steps of ``advance`` (w0 = 0, so
  the run never leaves its nutrient phase) against the *semi-discrete*
  closed form exp(lam_h D t), which isolates the time-stepping error: the
  global order of SBDF2, and the local order of its backward-Euler
  starter (one ``advance`` of a single dt takes only that step).
* Advection-diffusion: a translating Gaussian under a frozen unit-slope
  potential, with its own central taxis flux and the diffusion rows of
  ``operators.diffusion_rows``, integrated in time by scipy's DOP853 (the
  production stepper cannot freeze its nutrient field, and its upwind flux
  would cap the order at one).
* Regularization: distances to the unregularized run decrease as the uptake
  saturation eps is lowered.
* ODE: the closed-form flow of `reduced` against scipy's DOP853 on the
  four well-mixed rates, exact symmetry, the frozen state without
  nutrient, and the two sign-law reference cases.
* Jensen gap values pinned against closed forms / fine quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import derived_constants, evaluate_records, jensen_gap
from .experiments import apply_override, preset
from .grid import Interval, build_grid
from .kernels import heat_evolve, heat_modes, heat_project
from .model import ModelParams
from .operators import diffusion_rows, integrate
from .profiles import State, init_state
from .reduced import (OdeState, heat_params, ode_end_state, ode_state,
                      sign_law_check)
from .stepper import StepperConfig, advance

__all__ = [
    "CheckResult",
    "transport_error",
    "ode_reference",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _order(hs, errors) -> float:
    """The slope of log error over log h; NaN, which fails every order
    gate, when an error is not positive (an oracle that returns zeros
    measures nothing)."""
    if not np.all(np.asarray(errors, dtype=float) > 0.0):
        return math.nan
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def _heat_error_spatial(n: int) -> float:
    """Sup error at t = 0.1 of the exact discrete heat flow (D = 1) of
    u0 = 2 + cos(pi x) on n cells against the continuum solution."""
    grid = build_grid(Interval(n))
    x = grid.centers
    modes = heat_modes(grid.m, *diffusion_rows(grid, 1.0))
    mean, coef = heat_project(modes, 2.0 + np.cos(np.pi * x))
    u = heat_evolve(modes, mean, coef, 0.1, np.empty(n))
    exact = 2.0 + math.exp(-math.pi ** 2 * 0.1) * np.cos(np.pi * x)
    return float(np.max(np.abs(u - exact)))


def _heat_error_temporal(t: float, dt: float) -> float:
    """Sup error at t of ``advance`` at dt (D = 1, w0 = 0, so it steps
    SBDF2) from u0 = 2 + cos(pi x) on 50 cells, against the semi-discrete
    closed form."""
    grid = build_grid(Interval(50))
    x = grid.centers
    state = State(0.0, 2.0 + np.cos(np.pi * x), np.ones(50), np.zeros(50))
    advance(state, grid, heat_params(1.0), StepperConfig(dt=dt), t)
    lam_h = 2.0 * (math.cos(math.pi * grid.h) - 1.0) / grid.h ** 2
    semi = 2.0 + math.exp(lam_h * t) * np.cos(np.pi * x)
    return float(np.max(np.abs(state.u - semi)))


def transport_error(n: int, u0: Optional[np.ndarray] = None) -> float:
    """Sup error of the translating-Gaussian advection-diffusion problem.

    Solves u_t = D u_xx - chi u_x, D = 0.004 and chi = 0.5, on n cells of
    [0, 1] to t = 0.1 (frozen potential w(x) = x, central flux, DOP853 in
    time to far below the spatial error), from the Gaussian at 0.45
    diffused for 0.2.  The Gaussian stays ~10 standard deviations away from
    both walls, so the free-space solution applies to well below the
    discretization error.  Passing ``u0`` overrides the initial data (used
    by the zero-data check).
    """
    from scipy.integrate import solve_ivp

    t_end, D, chi, x0, t_offset = 0.1, 0.004, 0.5, 0.45, 0.2
    grid = build_grid(Interval(n))
    x = grid.centers
    m, af, h = grid.m, grid.face_areas, grid.h
    diff_diag, diff_off = diffusion_rows(grid, D)
    # central flux a * chi*(w_{i+1}-w_i)/h * (u_i + u_{i+1})/2 of w = x
    vel = chi * np.diff(x) / h * af[1:-1]
    flux = np.zeros(n + 1)

    def rhs(_t: float, u: np.ndarray) -> np.ndarray:
        # the m-scaled rows: m u' = -(diag u + off-diagonal terms) - div flux
        flux[1:-1] = vel * (0.5 * (u[:-1] + u[1:]))
        ku = diff_diag * u + np.diff(flux)
        ku[:-1] += diff_off * u[1:]
        ku[1:] += diff_off * u[:-1]
        return -ku / m

    def exact(t: float) -> np.ndarray:
        s2 = 4.0 * D * (t + t_offset)
        return np.exp(-(x - x0 - chi * t) ** 2 / s2) / math.sqrt(math.pi * s2)

    start = exact(0.0) if u0 is None else np.asarray(u0, dtype=float)
    u = solve_ivp(rhs, (0.0, t_end), start, method="DOP853",
                  rtol=1e-10, atol=1e-12).y[:, -1]
    reference = exact(t_end) if u0 is None else np.zeros(n)
    return float(np.max(np.abs(u - reference)))


def ode_reference(params: ModelParams, s0: OdeState,
                  t_end: float) -> OdeState:
    """DOP853 state at time t_end, with the exposure tau = int w integrated
    alongside u, v and w; w's absolute tolerance is the smallest normal
    float, so w stays resolved as it decays (1.4e-77 at t = 50)."""
    from scipy.integrate import solve_ivp

    p = params

    def f(_t: float, y: np.ndarray) -> list[float]:
        _, u, v, w = y
        return [w, p.delta * u * w, p.alpha * v * w,
                -(p.beta * u + p.gamma * v) * w]

    sol = solve_ivp(f, (0.0, t_end), [s0.tau, s0.u, s0.v, s0.w],
                    method="DOP853", rtol=1e-12,
                    atol=[1e-14, 1e-14, 1e-14, np.finfo(float).tiny])
    return OdeState(*sol.y[:, -1].tolist())


def run_all(seed: int = 0, printer: Optional[Callable[[str], None]] = print
            ) -> list[CheckResult]:
    """The full oracle suite; one CheckResult per named property."""
    out: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str) -> None:
        out.append(CheckResult(name, bool(ok), detail))
        if printer is not None:
            printer(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    def order_check(name: str, hs, errors: tuple, lo: float,
                    hi: float = math.inf) -> None:
        order = _order(hs, errors)
        check(name, lo <= order <= hi,
              f"observed {order:.3f} (errors {errors})")

    ns = (100, 200, 400)
    hs = [1.0 / n for n in ns]
    order_check("heat_spatial_order", hs,
                tuple(_heat_error_spatial(n) for n in ns), 1.9)
    dts = (0.025, 0.0125, 0.00625)
    order_check("heat_temporal_order_sbdf2", dts,
                tuple(_heat_error_temporal(0.5, dt) for dt in dts), 1.9)
    # a run to t = dt is the backward-Euler starter step alone
    dts = (0.004, 0.002, 0.001)
    order_check("heat_starter_local_order", dts,
                tuple(_heat_error_temporal(dt, dt) for dt in dts), 1.8, 2.2)
    order_check("transport_spatial_order", hs,
                tuple(transport_error(n) for n in ns), 1.9)
    zero = transport_error(100, u0=np.zeros(100))
    check("transport_zero_data", zero == 0.0, f"error {zero!r}")

    # L2 distances of (u, w) at t = 1 to the eps = 0 run, for eps = 1e-1,
    # 1e-2 and 1e-3, on fig1_left sigma = 60
    base = preset("fig1_left", 60)
    grid = build_grid(base.geometry)

    def regularized(eps: float) -> State:
        c = apply_override(base, "params.eps_reg", eps)
        state, _ = init_state(c.u0, c.v0, c.w0, grid)
        advance(state, grid, c.params, c.stepper, 1.0)
        return state

    unreg = regularized(0.0)
    dist = []
    for eps in (1e-1, 1e-2, 1e-3):
        s = regularized(eps)
        du, dw = s.u - unreg.u, s.w - unreg.w
        dist.append(math.sqrt(integrate(du * du, grid)
                              + integrate(dw * dw, grid)))
    dist = tuple(dist)
    check("regularization_monotone",
          all(a > b for a, b in zip(dist, dist[1:])), f"distances {dist}")
    check("regularization_rate", dist[-1] <= 0.1 * dist[0],
          f"d(1e-3)/d(1e-1) = {dist[-1] / dist[0]:.4f}")

    params = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=2.0, beta=1.0,
                         gamma=1.0, delta=1.0)
    s0 = OdeState(0.0, 1.0, 1.0, 1.0)
    ref = ode_reference(params, s0, 2.0)
    exact = ode_state(s0, params, ref.tau)
    rel = max(abs(exact.u - ref.u) / ref.u, abs(exact.v - ref.v) / ref.v,
              abs(exact.w - ref.w) / max(ref.w, 1.0))
    check("ode_richardson", rel <= 1e-8,
          f"closed form against DOP853 at t = 2: relative gap {rel:.3e}")

    sym_params = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=1.5, beta=1.0,
                             gamma=1.0, delta=1.5)
    sym_end = ode_end_state(s0, sym_params)
    sym_ok = all(s.u == s.v for s in [sym_end] + [
        ode_state(s0, sym_params, sym_end.tau * k / 100) for k in range(101)])
    check("ode_symmetry_bitwise", sym_ok,
          "u == v along the delta == alpha trajectory")

    frozen = ode_end_state(OdeState(0.0, 1.0, 2.0, 0.0), params)
    check("ode_frozen_without_nutrient",
          frozen.u == 1.0 and frozen.v == 2.0 and frozen.w == 0.0,
          f"end state ({frozen.u}, {frozen.v}, {frozen.w})")

    base_kw = dict(D_u=1.0, D_w=1.0, chi=0.0, beta=1.0, gamma=1.0)
    s_minus = sign_law_check(1.0, 1.0, 1.0,
                             ModelParams(alpha=2.0, delta=1.0, **base_kw))
    s_plus = sign_law_check(1.0, 1.0, 1.0,
                            ModelParams(alpha=2.0, delta=3.0, **base_kw))
    check("sign_law_reference_cases", s_minus == -1 and s_plus == 1,
          f"signs ({s_minus}, {s_plus})")

    grid = build_grid(Interval(400))
    x = grid.centers
    c1 = jensen_gap(np.exp(-15.0 * (x - 0.5) ** 2), grid).c1
    check("jensen_gaussian", abs(c1 - 0.462) <= 1e-3, f"c1 = {c1:.6f}")
    two = np.where(x < 0.5, 1.0, math.e)
    c1_two = jensen_gap(two, grid).c1
    check("jensen_two_valued",
          abs(c1_two - (math.log((1.0 + math.e) / 2.0) - 0.5)) <= 1e-12,
          f"c1 = {c1_two:.12f}")
    flat = jensen_gap(np.full(400, 3.0), grid)
    check("jensen_constant", flat.c1 == 0.0 and not flat.strict,
          f"c1 = {flat.c1!r}, strict = {flat.strict}")

    rng = np.random.default_rng(seed)
    g32 = build_grid(Interval(32))
    consts = derived_constants(np.ones(32), np.ones(32), params, g32)
    # trial j draws its u exponent, then its w, as 32 normals each
    draws = rng.normal(size=(1000, 2, 32))
    u, w = np.exp(draws[:, 0]), np.abs(draws[:, 1])
    records = evaluate_records([0.0] * 1000, u, np.ones_like(u), w, consts,
                               params, g32)
    worst = min(r.D_dissip for r in records)
    check("dissipation_nonnegative_random", worst >= 0.0,
          f"min over 1000 trials = {worst:.3e}")

    return out

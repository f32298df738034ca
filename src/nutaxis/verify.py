"""Self-contained verification oracles, runnable via ``nutaxis verify``.

Nothing here trusts the integrator: every check compares against a closed
form, an independent error-controlled reference, or a structural identity.

* Heat eigenmode: mean + A*cos(pi x) on [0, 1] is an exact eigenvector of
  the discrete Neumann Laplacian with eigenvalue lam_h = 2(cos(pi h)-1)/h^2.
  Spatial order is measured against the continuum solution (error ~ h^2 from
  lam_h - lam); temporal order against the *semi-discrete* closed form
  exp(lam_h D t), which isolates the time-stepping error cleanly: the
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
from .grid import Grid, Interval, build_grid
from .model import ModelParams
from .operators import diffusion_rows, integrate
from .profiles import State, init_state
from .reduced import (OdeState, heat_params, ode_end_state, ode_state,
                      sign_law_check)
from .stepper import StepperConfig, advance

__all__ = [
    "ConvergenceReport",
    "RegularizationReport",
    "CheckResult",
    "manufactured_convergence",
    "transport_error",
    "regularization_study",
    "ode_reference",
    "run_all",
]


@dataclass(frozen=True)
class ConvergenceReport:
    problem: str
    resolutions: tuple[int, ...]
    errors: tuple[float, ...]
    spatial_order: float
    # for the heat problem only: "sbdf2" (global error at t = 0.5) and
    # "starter" (local error of one step) -> (dts, errors, observed order)
    temporal: Optional[dict] = None


@dataclass(frozen=True)
class RegularizationReport:
    eps: tuple[float, ...]
    distances: tuple[float, ...]
    sample_time: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _order(hs, errors) -> float:
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0.0):
        return math.inf  # exactly-zero errors: order is vacuous
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def _heat_run(n: int, D: float, t: float, dt: float) -> tuple[Grid, np.ndarray]:
    """Advance u0 = 2 + cos(pi x) under pure diffusion to t: (grid, u(t))."""
    grid = build_grid(Interval(n))
    u0 = 2.0 + np.cos(np.pi * grid.centers)
    state = State(0.0, u0, np.ones(n), np.zeros(n))
    advance(state, grid, heat_params(D), StepperConfig(dt=dt), t)
    return grid, state.u


def _heat_error_spatial(n: int, D: float, t: float, dt: float) -> float:
    grid, u = _heat_run(n, D, t, dt)
    exact = 2.0 + np.exp(-D * math.pi ** 2 * t) * np.cos(np.pi * grid.centers)
    return float(np.max(np.abs(u - exact)))


def _heat_error_temporal(n: int, D: float, t: float, dt: float) -> float:
    grid, u = _heat_run(n, D, t, dt)
    lam_h = 2.0 * (math.cos(math.pi * grid.h) - 1.0) / grid.h ** 2
    semi = 2.0 + math.exp(lam_h * D * t) * np.cos(np.pi * grid.centers)
    return float(np.max(np.abs(u - semi)))


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


def manufactured_convergence(problem: str = "heat") -> ConvergenceReport:
    """Observed spatial (and, for heat, temporal) convergence orders, over
    100, 200 and 400 cells; advection-diffusion is :func:`transport_error`."""
    resolutions = (100, 200, 400)
    hs = [1.0 / n for n in resolutions]
    if problem == "heat":
        errors = tuple(_heat_error_spatial(n, D=1.0, t=0.1, dt=1e-5)
                       for n in resolutions)
        dts = (0.025, 0.0125, 0.00625)
        errs = tuple(_heat_error_temporal(50, 1.0, 0.5, dt) for dt in dts)
        # a run to t = dt is the backward-Euler starter step alone
        dts1 = (0.004, 0.002, 0.001)
        errs1 = tuple(_heat_error_temporal(50, 1.0, dt, dt) for dt in dts1)
        temporal = {"sbdf2": (dts, errs, _order(dts, errs)),
                    "starter": (dts1, errs1, _order(dts1, errs1))}
        return ConvergenceReport(problem, resolutions, errors,
                                 _order(hs, errors), temporal)
    if problem == "advection-diffusion":
        errors = tuple(transport_error(n) for n in resolutions)
        return ConvergenceReport(problem, resolutions, errors,
                                 _order(hs, errors), None)
    raise ValueError(f"unknown problem {problem!r}")


def regularization_study() -> RegularizationReport:
    """L2 distances of (u, w) at t = 1 to the eps = 0 run, for eps = 1e-1,
    1e-2 and 1e-3, on fig1_left sigma = 60."""
    base = preset("fig1_left", 60)
    eps_list, sample_time = (1e-1, 1e-2, 1e-3), 1.0

    def run(eps: float) -> tuple[Grid, State]:
        c = apply_override(base, "params.eps_reg", eps)
        grid = build_grid(c.geometry)
        state, _ = init_state(c.u0, c.v0, c.w0, grid)
        advance(state, grid, c.params, c.stepper, sample_time)
        return grid, state

    grid, ref = run(0.0)
    distances = []
    for eps in eps_list:
        _, s = run(eps)
        du = s.u - ref.u
        dw = s.w - ref.w
        distances.append(math.sqrt(integrate(du * du, grid)
                                   + integrate(dw * dw, grid)))
    return RegularizationReport(tuple(eps_list), tuple(distances), sample_time)


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


def _check(results: list[CheckResult], name: str, ok: bool, detail: str,
           printer: Optional[Callable[[str], None]]) -> None:
    results.append(CheckResult(name, bool(ok), detail))
    if printer is not None:
        printer(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def run_all(seed: int = 0, printer: Optional[Callable[[str], None]] = print
            ) -> list[CheckResult]:
    """The full oracle suite; one CheckResult per named property."""
    out: list[CheckResult] = []

    heat = manufactured_convergence("heat")
    _check(out, "heat_spatial_order", heat.spatial_order >= 1.9,
           f"observed {heat.spatial_order:.3f} (errors {heat.errors})", printer)
    dts2, errs2, order2 = heat.temporal["sbdf2"]
    _check(out, "heat_temporal_order_sbdf2", order2 >= 1.9,
           f"observed {order2:.3f} (errors {errs2})", printer)
    dts1, errs1, order1 = heat.temporal["starter"]
    _check(out, "heat_starter_local_order", 1.8 <= order1 <= 2.2,
           f"observed {order1:.3f} (errors {errs1})", printer)

    adv = manufactured_convergence("advection-diffusion")
    _check(out, "transport_spatial_order", adv.spatial_order >= 1.9,
           f"observed {adv.spatial_order:.3f} (errors {adv.errors})", printer)
    zero = transport_error(100, u0=np.zeros(100))
    _check(out, "transport_zero_data", zero == 0.0, f"error {zero!r}", printer)

    reg = regularization_study()
    decreasing = all(a > b for a, b in zip(reg.distances, reg.distances[1:]))
    _check(out, "regularization_monotone", decreasing,
           f"distances {reg.distances}", printer)
    _check(out, "regularization_rate",
           reg.distances[-1] <= 0.1 * reg.distances[0],
           f"d(1e-3)/d(1e-1) = {reg.distances[-1] / reg.distances[0]:.4f}",
           printer)

    params = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=2.0, beta=1.0,
                         gamma=1.0, delta=1.0)
    s0 = OdeState(0.0, 1.0, 1.0, 1.0)
    ref = ode_reference(params, s0, 2.0)
    exact = ode_state(s0, params, ref.tau)
    rel = max(abs(exact.u - ref.u) / ref.u, abs(exact.v - ref.v) / ref.v,
              abs(exact.w - ref.w) / max(ref.w, 1.0))
    _check(out, "ode_richardson", rel <= 1e-8,
           f"closed form against DOP853 at t = 2: relative gap {rel:.3e}",
           printer)

    sym_params = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=1.5, beta=1.0,
                             gamma=1.0, delta=1.5)
    sym_end = ode_end_state(s0, sym_params)
    sym_ok = all(s.u == s.v for s in [sym_end] + [
        ode_state(s0, sym_params, sym_end.tau * k / 100) for k in range(101)])
    _check(out, "ode_symmetry_bitwise", sym_ok,
           "u == v along the delta == alpha trajectory", printer)

    frozen = ode_end_state(OdeState(0.0, 1.0, 2.0, 0.0), params)
    _check(out, "ode_frozen_without_nutrient",
           frozen.u == 1.0 and frozen.v == 2.0 and frozen.w == 0.0,
           f"end state ({frozen.u}, {frozen.v}, {frozen.w})", printer)

    base_kw = dict(D_u=1.0, D_w=1.0, chi=0.0, beta=1.0, gamma=1.0)
    s_minus = sign_law_check(1.0, 1.0, 1.0,
                             ModelParams(alpha=2.0, delta=1.0, **base_kw))
    s_plus = sign_law_check(1.0, 1.0, 1.0,
                            ModelParams(alpha=2.0, delta=3.0, **base_kw))
    _check(out, "sign_law_reference_cases", s_minus == -1 and s_plus == 1,
           f"signs ({s_minus}, {s_plus})", printer)

    grid = build_grid(Interval(400))
    x = grid.centers
    c1 = jensen_gap(np.exp(-15.0 * (x - 0.5) ** 2), grid).c1
    _check(out, "jensen_gaussian", abs(c1 - 0.462) <= 1e-3,
           f"c1 = {c1:.6f}", printer)
    two = np.where(x < 0.5, 1.0, math.e)
    c1_two = jensen_gap(two, grid).c1
    _check(out, "jensen_two_valued",
           abs(c1_two - (math.log((1.0 + math.e) / 2.0) - 0.5)) <= 1e-12,
           f"c1 = {c1_two:.12f}", printer)
    flat = jensen_gap(np.full(400, 3.0), grid)
    _check(out, "jensen_constant", flat.c1 == 0.0 and not flat.strict,
           f"c1 = {flat.c1!r}, strict = {flat.strict}", printer)

    rng = np.random.default_rng(seed)
    g32 = build_grid(Interval(32))
    consts = derived_constants(np.ones(32), np.ones(32), params, g32)
    # trial j draws its u exponent, then its w, as 32 normals each
    draws = rng.normal(size=(1000, 2, 32))
    u, w = np.exp(draws[:, 0]), np.abs(draws[:, 1])
    records = evaluate_records([0.0] * 1000, u, np.ones_like(u), w, consts,
                               params, g32)
    worst = min(r.D_dissip for r in records)
    _check(out, "dissipation_nonnegative_random", worst >= 0.0,
           f"min over 1000 trials = {worst:.3e}", printer)

    return out

"""Self-contained verification oracles, runnable via ``nutaxis verify``.

Nothing here trusts the integrator: every check compares against a closed
form, an independent fine-step reference, or a structural identity.

* Heat eigenmode: mean + A*cos(pi x) on [0, 1] is an exact eigenvector of
  the discrete Neumann Laplacian with eigenvalue lam_h = 2(cos(pi h)-1)/h^2.
  Spatial order is measured against the continuum solution (error ~ h^2 from
  lam_h - lam); temporal order against the *semi-discrete* closed form
  exp(lam_h D t), which isolates the time-stepping error cleanly.
* Advection-diffusion: a translating Gaussian under a frozen unit-slope
  potential, integrated by a small dedicated two-step loop built from the
  public spatial operators with the central flux (the production stepper
  cannot freeze its nutrient field, and upwind would cap the order at one).
* Regularization: distances to the unregularized run decrease as the uptake
  saturation eps is lowered.
* ODE: Richardson self-consistency of the fourth-order integration, exact
  symmetry, and the two sign-law reference cases.
* Jensen gap values pinned against closed forms / fine quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import derived_constants, evaluate_record, jensen_gap
from .experiments import ScenarioConfig, apply_override, preset
from .grid import Geometry, Grid, build_grid
from .kernels import solve_tridiag
from .model import ModelParams
from .operators import chemotaxis_divergence, integrate
from .profiles import State, init_state
from .reduced import OdeState, heat_params, ode_solve, sign_law_check
from .stepper import StepperConfig, advance, grid_coefficients

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
    # for the heat problem only: scheme -> (dts, errors, observed order)
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


def _heat_run(n: int, D: float, t: float, dt: float,
              scheme: str = "sbdf2") -> tuple[Grid, np.ndarray]:
    """Advance u0 = 2 + cos(pi x) under pure diffusion to t: (grid, u(t))."""
    grid = build_grid(Geometry("interval", n))
    u0 = 2.0 + np.cos(np.pi * grid.centers)
    state = State(0.0, u0, np.ones(n), np.zeros(n))
    advance(state, grid, heat_params(D), StepperConfig(dt=dt, scheme=scheme), t)
    return grid, state.u


def _heat_error_spatial(n: int, D: float, t: float, dt: float) -> float:
    grid, u = _heat_run(n, D, t, dt)
    exact = 2.0 + np.exp(-D * math.pi ** 2 * t) * np.cos(np.pi * grid.centers)
    return float(np.max(np.abs(u - exact)))


def _heat_error_temporal(n: int, D: float, t: float, dt: float,
                         scheme: str) -> float:
    grid, u = _heat_run(n, D, t, dt, scheme)
    lam_h = 2.0 * (math.cos(math.pi * grid.h) - 1.0) / grid.h ** 2
    semi = 2.0 + math.exp(lam_h * D * t) * np.cos(np.pi * grid.centers)
    return float(np.max(np.abs(u - semi)))


def transport_error(n: int, dt: float = 1e-4, t_end: float = 0.1,
                    D: float = 0.004, chi: float = 0.5, x0: float = 0.45,
                    t_offset: float = 0.2,
                    u0: Optional[np.ndarray] = None) -> float:
    """Sup error of the translating-Gaussian advection-diffusion problem.

    Solves u_t = D u_xx - chi u_x on [0, 1] (frozen potential w(x) = x,
    central flux, implicit diffusion, explicit transport, two-step scheme
    with one backward-Euler start).  The Gaussian stays ~10 standard
    deviations away from both walls, so the free-space solution applies to
    well below the discretization error.  Passing ``u0`` overrides the
    initial data (used by the zero-data check).
    """
    grid = build_grid(Geometry("interval", n))
    x = grid.centers
    m, cl, cr, af, h = grid_coefficients(grid)
    w_lin = x.copy()

    def exact(t: float) -> np.ndarray:
        s2 = 4.0 * D * (t + t_offset)
        return np.exp(-(x - x0 - chi * t) ** 2 / s2) / math.sqrt(math.pi * s2)

    u = exact(0.0) if u0 is None else np.asarray(u0, dtype=float).copy()
    nsteps = round(t_end / dt)
    u_prev: Optional[np.ndarray] = None
    n_prev: Optional[np.ndarray] = None
    for _ in range(nsteps):
        taxis = chemotaxis_divergence(u, w_lin, grid, chi, 0.0, "central")
        if u_prev is None:
            c0 = 1.0 / dt
            rhs = u * c0 + taxis
        else:
            c0 = 3.0 / (2.0 * dt)
            rhs = (4.0 * u - u_prev) / (2.0 * dt) + 2.0 * taxis - n_prev
        diag = c0 + D * (cl + cr)
        un = solve_tridiag(cl, cr, diag, rhs, D)
        u_prev, n_prev, u = u, taxis, un
    reference = exact(t_end * 1.0) if u0 is None else np.zeros(n)
    return float(np.max(np.abs(u - reference)))


def manufactured_convergence(problem: str = "heat",
                             resolutions: tuple[int, ...] = (100, 200, 400)
                             ) -> ConvergenceReport:
    """Observed spatial (and, for heat, temporal) convergence orders."""
    if len(resolutions) < 3:
        raise ValueError("need at least three resolutions for a stable fit")
    hs = [1.0 / n for n in resolutions]
    if problem == "heat":
        errors = tuple(_heat_error_spatial(n, D=1.0, t=0.1, dt=1e-5)
                       for n in resolutions)
        temporal = {}
        dts = (0.025, 0.0125, 0.00625)
        for scheme in ("sbdf2", "sbdf1"):
            errs = tuple(_heat_error_temporal(50, D=1.0, t=0.5, dt=dt,
                                              scheme=scheme) for dt in dts)
            temporal[scheme] = (dts, errs, _order(dts, errs))
        return ConvergenceReport(problem, tuple(resolutions), errors,
                                 _order(hs, errors), temporal)
    if problem == "advection-diffusion":
        errors = tuple(transport_error(n) for n in resolutions)
        return ConvergenceReport(problem, tuple(resolutions), errors,
                                 _order(hs, errors), None)
    raise ValueError(f"unknown problem {problem!r}")


def regularization_study(cfg: Optional[ScenarioConfig] = None,
                         eps_list: tuple[float, ...] = (1e-1, 1e-2, 1e-3),
                         sample_time: float = 1.0) -> RegularizationReport:
    """L2 distances of (u, w) at ``sample_time`` to the eps = 0 run."""
    base = cfg if cfg is not None else preset("fig1_left", 60)

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


def ode_reference(params: ModelParams, s0: OdeState, t_end: float) -> OdeState:
    """Fine-step (dt = 1e-5) fourth-order reference end state."""
    return ode_solve(s0, params, t_end, 1e-5)[-1]


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
    dts1, errs1, order1 = heat.temporal["sbdf1"]
    _check(out, "heat_temporal_order_sbdf1", 0.8 <= order1 <= 1.2,
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
    coarse = ode_solve(s0, params, 2.0, 1e-3)[-1]
    rel = max(abs(coarse.u - ref.u) / ref.u, abs(coarse.v - ref.v) / ref.v,
              abs(coarse.w - ref.w) / max(ref.w, 1.0))
    _check(out, "ode_richardson", rel <= 1e-8, f"relative gap {rel:.3e}", printer)

    sym_params = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=1.5, beta=1.0,
                             gamma=1.0, delta=1.5)
    sym = ode_solve(OdeState(0.0, 1.0, 1.0, 1.0), sym_params, 3.0, 1e-3)
    sym_ok = all(s.u == s.v for s in sym)
    _check(out, "ode_symmetry_bitwise", sym_ok,
           "u == v along the delta == alpha trajectory", printer)

    frozen = ode_reference(params, OdeState(0.0, 1.0, 2.0, 0.0), 1.0)
    _check(out, "ode_frozen_without_nutrient",
           frozen.u == 1.0 and frozen.v == 2.0 and frozen.w == 0.0,
           f"end state ({frozen.u}, {frozen.v}, {frozen.w})", printer)

    base_kw = dict(D_u=1.0, D_w=1.0, chi=0.0, beta=1.0, gamma=1.0)
    s_minus = sign_law_check(1.0, 1.0, 1.0,
                             ModelParams(alpha=2.0, delta=1.0, **base_kw), 100.0)
    s_plus = sign_law_check(1.0, 1.0, 1.0,
                            ModelParams(alpha=2.0, delta=3.0, **base_kw), 100.0)
    _check(out, "sign_law_reference_cases", s_minus == -1 and s_plus == 1,
           f"signs ({s_minus}, {s_plus})", printer)

    grid = build_grid(Geometry("interval", 400))
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
    g32 = build_grid(Geometry("interval", 32))
    consts = derived_constants(np.ones(32), np.ones(32), params, g32)
    worst = math.inf
    for _ in range(1000):
        s = State(0.0, np.exp(rng.normal(size=32)), np.ones(32),
                  np.abs(rng.normal(size=32)))
        worst = min(worst, evaluate_record(s, consts, params, g32).D_dissip)
    _check(out, "dissipation_nonnegative_random", worst >= 0.0,
           f"min over 1000 trials = {worst:.3e}", printer)

    return out

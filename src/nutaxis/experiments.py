"""Scenario presets, the run driver with trajectory audits, and sweeps.

A ScenarioConfig fully determines a run: geometry, model parameters, the
three initial profiles, the horizon, the geometric output schedule, and the
stepper policy.  ``run_scenario`` realizes it, records a DiagnosticsRecord at
t = 0 and at every output time, and audits the discrete trajectory against
the bounds that hold for the continuous system:

* total u-mass stays below mass_u(0) + (delta/beta) * mass_w(0),
* max w decays at least like sigma_star * exp(-kappa*t),
* v stays within [min v0, max v0 * exp((alpha/kappa) * sigma_star)],
* the Lyapunov value is nonincreasing up to an output-resolution tolerance,
* the time-integrated inequality and the gradient budget (see diagnostics).

Sweeps run a base config under a list of (attribute path, values) overrides,
optionally in parallel processes, and tabulate per-run outcomes; one failed
run does not abort the sweep.
"""
from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field, replace
from importlib.metadata import PackageNotFoundError, version as _dist_version
from typing import Any, Optional, Sequence

import numpy as np

from .diagnostics import (
    DerivedConstants,
    DiagnosticsRecord,
    derived_constants,
    evaluate_record,
    integrated_inequality_audit,
)
from .grid import Geometry, Grid, build_grid
from .model import ModelParams
from .operators import integrate
from .profiles import Constant, Gaussian, Mirrored, Profile, State, init_state
from .stepper import (
    AdvanceStats,
    LinearSolveFailure,
    PositivityViolation,
    StepperConfig,
    advance,
)

__all__ = [
    "OutputSchedule",
    "ScenarioConfig",
    "UnknownVariant",
    "ScenarioFailure",
    "RunManifest",
    "RunResult",
    "SweepSpec",
    "output_times",
    "preset",
    "apply_override",
    "walk",
    "run_scenario",
    "run_sweep",
]

try:
    _VERSION = _dist_version("nutaxis")
except PackageNotFoundError:  # pragma: no cover - not installed
    _VERSION = "0+unknown"


class UnknownVariant(ValueError):
    """Preset name or variant outside the supported set."""


class ScenarioFailure(RuntimeError):
    """An integrator failure, annotated with the scenario it occurred in."""


@dataclass(frozen=True)
class OutputSchedule:
    """Geometric output times: t_first, t_first*factor, ... then t_end."""

    t_first: float = 1e-3
    factor: float = 1.25

    def __post_init__(self) -> None:
        if not (self.t_first > 0.0):
            raise ValueError(f"t_first must be positive, got {self.t_first}")
        if not (self.factor > 1.0):
            raise ValueError(f"factor must exceed 1, got {self.factor}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    geometry: Geometry
    params: ModelParams
    u0: Profile
    v0: Profile
    w0: Profile
    t_end: float
    output: OutputSchedule = field(default_factory=OutputSchedule)
    stepper: StepperConfig = field(default_factory=StepperConfig)

    def __post_init__(self) -> None:
        if not (self.t_end > 0.0 and np.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")


def output_times(schedule: OutputSchedule, t_end: float) -> list[float]:
    """Strictly increasing observation times in (0, t_end], ending at t_end."""
    ts: list[float] = []
    t = schedule.t_first
    while t < t_end:
        ts.append(t)
        t *= schedule.factor
    ts.append(t_end)
    return ts


_BASE = dict(D_w=1.0, alpha=2.0, beta=200.0, gamma=200.0, delta=1.0)

_VARIANT_KEYS = {"fig1_left": "sigma", "fig1_right": "l", "fig3": "d"}
_VARIANT_VALUES = {
    "fig1_left": (60.0, 120.0, 240.0),
    "fig1_right": (1.4, 14.0, 20.0),
    "fig3": (1.0, 3.0),
}


def _parse_variant(name: str, variant) -> float:
    key = _VARIANT_KEYS[name]
    if isinstance(variant, str):
        text = variant.strip()
        if "=" in text:
            k, _, v = text.partition("=")
            if k.strip() != key:
                raise UnknownVariant(
                    f"preset {name!r} takes {key}=<value>, got {variant!r}")
            text = v
        try:
            value = float(text)
        except ValueError:
            raise UnknownVariant(f"cannot parse variant {variant!r}") from None
    else:
        value = float(variant)
    if value not in _VARIANT_VALUES[name]:
        allowed = ", ".join(f"{v:g}" for v in _VARIANT_VALUES[name])
        raise UnknownVariant(
            f"preset {name!r} supports {key} in {{{allowed}}}, got {value:g}")
    return value


def preset(name: str, variant) -> ScenarioConfig:
    """Shipped scenario families.

    fig1_left:  unit interval, equal Gaussian colonies in a uniform nutrient
                bath of height sigma in {60, 120, 240}.
    fig1_right: unit interval, colonies at opposite walls, nutrient
                l + (20-l)*gaussian with l in {1.4, 14, 20} (flat for l=20);
                401 cells so the domain midpoint is an exact cell center.
    fig3:       unit ball in dimension d in {1, 3}, strong taxis chi = 1000
                and a halved CFL safety factor.
    """
    if name not in _VARIANT_KEYS:
        raise UnknownVariant(
            f"unknown preset {name!r}; expected one of {sorted(_VARIANT_KEYS)}")
    value = _parse_variant(name, variant)
    label = f"{name}[{_VARIANT_KEYS[name]}={value:g}]"
    if name == "fig1_left":
        bump = Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.5)
        return ScenarioConfig(
            name=label,
            geometry=Geometry(kind="interval", n_cells=400),
            params=ModelParams(D_u=20.0, chi=0.5, **_BASE),
            u0=bump, v0=bump, w0=Constant(value),
            t_end=1000.0)
    if name == "fig1_right":
        left = Gaussian(base=1.0, amp=1.0, rate=15.0, center=0.0)
        return ScenarioConfig(
            name=label,
            geometry=Geometry(kind="interval", n_cells=401),
            params=ModelParams(D_u=1.0, chi=0.5, **_BASE),
            u0=left, v0=Mirrored(left),
            w0=Gaussian(base=value, amp=20.0 - value, rate=15.0, center=0.5),
            t_end=1000.0)
    bump = Gaussian(base=0.0, amp=0.1, rate=15.0, center=0.0)
    return ScenarioConfig(
        name=label,
        geometry=Geometry(kind="radial", n_cells=400, d=int(value), R=1.0),
        params=ModelParams(D_u=20.0, chi=1000.0, **_BASE),
        u0=bump, v0=bump,
        w0=Gaussian(base=0.0, amp=2.0, rate=15.0, center=0.0),
        t_end=1000.0,
        stepper=StepperConfig(cfl_safety=0.25))


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce and assess a finished run."""

    version: str
    scenario: ScenarioConfig
    constants: DerivedConstants
    grid_summary: dict
    stats: dict
    audits: dict
    wall_time: float


@dataclass
class RunResult:
    records: list[DiagnosticsRecord]
    state: State
    manifest: RunManifest


def _audit_trajectory(records: Sequence[DiagnosticsRecord],
                      consts: DerivedConstants, params: ModelParams,
                      mass_w0_sq: float, v_min_obs: float, v_max_obs: float,
                      v0_max: float) -> dict:
    t = np.array([r.t for r in records])
    mass_u = np.array([r.mass_u for r in records])
    max_w = np.array([r.max_w for r in records])
    lyap = np.array([r.L_lyap for r in records])

    audits: dict[str, dict] = {}

    if params.beta > 0.0:
        bound = records[0].mass_u + (params.delta / params.beta) * records[0].mass_w
    else:
        bound = np.inf
    slack = bound * (1.0 + 1e-8) - mass_u
    audits["mass_bound"] = {"ok": bool(slack.min() >= 0.0),
                            "margin": float(slack.min()), "bound": float(bound)}

    decay = consts.sigma_star * np.exp(-consts.kappa * t) * (1.0 + 1e-6) - max_w
    audits["sup_decay"] = {"ok": bool(decay.min() >= 0.0),
                           "margin": float(decay.min())}

    lower = float(consts.kappa / params.gamma) if params.gamma > 0.0 else 0.0
    if consts.kappa > 0.0:
        exponent = params.alpha / consts.kappa * consts.sigma_star
        upper = v0_max * float(np.exp(min(exponent, 700.0)))
    else:
        upper = np.inf
    audits["v_bounds"] = {
        "ok": bool(v_min_obs >= lower and v_max_obs <= upper * (1.0 + 1e-6)),
        "margin": float(min(v_min_obs - lower,
                            upper * (1.0 + 1e-6) - v_max_obs)),
        "observed_min": v_min_obs, "observed_max": v_max_obs,
        "lower": lower, "upper": float(upper),
    }

    # with kappa = 0 the weight a and so every L are infinite: vacuous
    worst = -np.inf
    if len(lyap) > 1 and np.isfinite(consts.a):
        tol = 1e-3 * np.diff(t) * (1.0 + np.abs(lyap[:-1]))
        worst = float((lyap[1:] - lyap[:-1] - tol).max())
    audits["lyapunov_monotone"] = {"ok": bool(worst <= 0.0), "margin": float(-worst)}

    rep = integrated_inequality_audit(records, consts, params.D_u, mass_w0_sq)
    audits["integrated_inequality"] = {"ok": rep.inequality_ok,
                                       "margin": rep.min_slack}
    audits["grad_w_budget"] = {"ok": rep.grad_budget_ok,
                               "margin": rep.min_grad_slack}
    return audits


def run_scenario(cfg: ScenarioConfig, backend: Optional[str] = None) -> RunResult:
    """Realize and integrate a scenario; see the module docstring.

    Raises:
        ScenarioFailure: wrapping any integrator error, with the scenario
            name in the message and the original exception as the cause.
    """
    began = time.perf_counter()
    grid = build_grid(cfg.geometry)
    state, _ = init_state(cfg.u0, cfg.v0, cfg.w0, grid)
    v0_max = float(state.v.max())
    consts = derived_constants(state.v, state.w, cfg.params, grid, u0=state.u)
    mass_w0_sq = float(integrate(state.w * state.w, grid))

    records = [evaluate_record(state, consts, cfg.params, grid)]
    v_min_obs = float(state.v.min())
    v_max_obs = float(state.v.max())

    def observe(s: State) -> None:
        nonlocal v_min_obs, v_max_obs
        records.append(evaluate_record(s, consts, cfg.params, grid,
                                       prev=records[-1]))
        v_min_obs = min(v_min_obs, float(s.v.min()))
        v_max_obs = max(v_max_obs, float(s.v.max()))

    times = output_times(cfg.output, cfg.t_end)
    try:
        result = advance(state, grid, cfg.params, cfg.stepper, cfg.t_end,
                         observe_times=times, observer=observe, backend=backend)
    except (PositivityViolation, LinearSolveFailure) as exc:
        raise ScenarioFailure(f"scenario {cfg.name!r}: {exc}") from exc

    audits = _audit_trajectory(records, consts, cfg.params, mass_w0_sq,
                               v_min_obs, v_max_obs, v0_max)
    stats: AdvanceStats = result.stats
    manifest = RunManifest(
        version=_VERSION,
        scenario=cfg,
        constants=consts,
        grid_summary={"kind": cfg.geometry.kind, "n_cells": grid.n,
                      "h": grid.h, "volume": grid.volume,
                      "d": cfg.geometry.d if cfg.geometry.kind == "radial" else 1},
        stats={"accepted": stats.accepted, "rejected": stats.rejected,
               "rebuilds": stats.rebuilds, "min_dt": stats.min_dt,
               "backend": stats.backend, "outputs": len(records)},
        audits=audits,
        wall_time=time.perf_counter() - began,
    )
    return RunResult(records=records, state=result.state, manifest=manifest)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def walk(cfg: ScenarioConfig, path: str) -> list[tuple[Any, str]]:
    """``(node, attribute)`` pairs along a dotted path, root first."""
    steps = []
    node = cfg
    for name in path.split("."):
        if not hasattr(node, name):
            raise ValueError(f"override path {path!r} does not resolve "
                             f"(no attribute {name!r})")
        steps.append((node, name))
        node = getattr(node, name)
    return steps


def apply_override(cfg: ScenarioConfig, path: str, value: Any) -> ScenarioConfig:
    """Return a copy of cfg with the dotted attribute path replaced."""
    for node, name in reversed(walk(cfg, path)):
        value = replace(node, **{name: value})
    return value


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario plus override axes.

    mode "product" runs the Cartesian product of all value lists; "zip"
    pairs them elementwise (all lists must share one length).
    """

    base: ScenarioConfig
    overrides: tuple[tuple[str, tuple], ...]
    mode: str = "product"

    def __post_init__(self) -> None:
        if self.mode not in ("product", "zip"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        for path, values in self.overrides:
            if not values:
                raise ValueError(f"override {path!r} has no values")
            walk(self.base, path)
        if self.mode == "zip" and self.overrides:
            lengths = {len(v) for _, v in self.overrides}
            if len(lengths) != 1:
                raise ValueError("zip mode needs equal-length value lists")

    def combos(self) -> list[dict[str, Any]]:
        if not self.overrides:
            return [{}]
        paths = [p for p, _ in self.overrides]
        if self.mode == "zip":
            rows = zip(*[v for _, v in self.overrides])
        else:
            rows = itertools.product(*[v for _, v in self.overrides])
        return [dict(zip(paths, row)) for row in rows]


def _sweep_worker(job: tuple[int, ScenarioConfig, dict, Optional[str]]) -> dict:
    index, cfg, combo, run_dir = job
    row: dict[str, Any] = {"run": index}
    for path, value in combo.items():
        row[path] = value if not hasattr(value, "evaluate") else repr(value)
    try:
        for path, value in combo.items():
            cfg = apply_override(cfg, path, value)
        result = run_scenario(cfg)
    except Exception as exc:  # per-run isolation: record and move on
        row.update({"M_star": "", "sigma_star": "", "final_I": "",
                    "sign_final_I": "", "audit_ok": False,
                    "error": f"{type(exc).__name__}: {exc}"})
        return row
    consts = result.manifest.constants
    final_i = result.records[-1].I
    row.update({
        "M_star": consts.M_star,
        "sigma_star": consts.sigma_star,
        "final_I": final_i,
        "sign_final_I": (final_i > 0) - (final_i < 0),
        "audit_ok": all(a["ok"] for a in result.manifest.audits.values()),
        "error": "",
    })
    if run_dir is not None:
        from . import io as io_mod  # deferred: io imports this module

        io_mod.write_run(result, run_dir)
    return row


def run_sweep(spec: SweepSpec, processes: int = 1,
              out_dir: Optional[str] = None) -> list[dict]:
    """Run every combination of the sweep; one row dict per run, in order.

    With ``out_dir`` set, each run writes ``records.csv`` and
    ``manifest.json`` under ``out_dir/run_<index>/``.  Overrides are applied
    in the run's own isolation: a value that a config rejects fails only
    that run, with the error in its row.
    """
    jobs = [(i, spec.base, combo,
             None if out_dir is None else os.path.join(out_dir, f"run_{i:03d}"))
            for i, combo in enumerate(spec.combos())]

    if processes > 1 and len(jobs) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            rows = pool.map(_sweep_worker, jobs)
    else:
        rows = [_sweep_worker(job) for job in jobs]
    return rows

"""Scenario presets, the run driver with trajectory audits, and sweeps.

A ScenarioConfig fully determines a run: geometry, model parameters, the
three initial profiles, the horizon, the geometric output schedule, and the
stepper policy.  ``run_scenario`` realizes it, records a DiagnosticsRecord at
t = 0 and at every output time, and audits the discrete trajectory with
`diagnostics.audit_trajectory`, whose docstring lists the six bounds.

Sweeps run a base config under a list of (attribute path, values) overrides,
optionally in parallel processes, and tabulate per-run outcomes; one failed
run does not abort the sweep.
"""
from __future__ import annotations

import itertools
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Optional

import numpy as np

from . import __version__
from .diagnostics import (
    DerivedConstants,
    DiagnosticsRecord,
    audit_trajectory,
    derived_constants,
    evaluate_records,
    long_time_index,
)
from .grid import Geometry, Interval, Radial, build_grid
from .model import ModelParams
from .operators import integrate
from .profiles import Constant, Gaussian, Mirrored, Profile, State, init_state
from .stepper import (
    LinearSolveFailure,
    OutputSchedule,
    PositivityViolation,
    StepperConfig,
    advance,
    output_times,
)

__all__ = [
    "ScenarioConfig",
    "UnknownVariant",
    "ScenarioFailure",
    "RunManifest",
    "RunResult",
    "SweepSpec",
    "preset",
    "apply_override",
    "walk",
    "run_scenario",
    "run_sweep",
]

# output states per `evaluate_records` block in `run_scenario`: a record is
# ~40 small numpy calls, whose call overhead a block pays once; at n = 401,
# 16 rows bring a record from ~90 to ~25 us, and larger blocks add peak
# memory for little further gain
RECORD_BLOCK = 16


class UnknownVariant(ValueError):
    """Preset name or variant outside the supported set."""


class ScenarioFailure(RuntimeError):
    """An integrator failure, annotated with the scenario it occurred in."""


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


_BASE = dict(D_w=1.0, alpha=2.0, beta=200.0, gamma=200.0, delta=1.0)

_VARIANT_KEYS = {"fig1_left": "sigma", "fig1_right": "l", "fig3": "d"}
_VARIANT_VALUES = {
    "fig1_left": (60.0, 120.0, 240.0),
    "fig1_right": (1.4, 14.0, 20.0),
    "fig3": (1.0, 3.0),
}


def _parse_variant(name: str, variant) -> float:
    key = _VARIANT_KEYS[name]
    if isinstance(variant, bool):  # float() would take it as 0 or 1
        raise UnknownVariant(f"cannot parse variant {variant!r}")
    text = variant
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
    except (TypeError, ValueError, OverflowError):
        raise UnknownVariant(f"cannot parse variant {variant!r}") from None
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
    fig3:       unit ball in dimension d in {1, 3}, strong taxis chi = 1000.
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
            geometry=Interval(400),
            params=ModelParams(D_u=20.0, chi=0.5, **_BASE),
            u0=bump, v0=bump, w0=Constant(value),
            t_end=1000.0)
    if name == "fig1_right":
        left = Gaussian(base=1.0, amp=1.0, rate=15.0, center=0.0)
        return ScenarioConfig(
            name=label,
            geometry=Interval(401),
            params=ModelParams(D_u=1.0, chi=0.5, **_BASE),
            u0=left, v0=Mirrored(left),
            w0=Gaussian(base=value, amp=20.0 - value, rate=15.0, center=0.5),
            t_end=1000.0)
    bump = Gaussian(base=0.0, amp=0.1, rate=15.0, center=0.0)
    return ScenarioConfig(
        name=label,
        geometry=Radial(400, d=int(value)),
        params=ModelParams(D_u=20.0, chi=1000.0, **_BASE),
        u0=bump, v0=bump,
        w0=Gaussian(base=0.0, amp=2.0, rate=15.0, center=0.0),
        t_end=1000.0)


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


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Realize and integrate a scenario; see the module docstring.

    The records are evaluated ``RECORD_BLOCK`` output states at a time
    (see `diagnostics.evaluate_records`).

    Raises:
        ScenarioFailure: wrapping any integrator error, with the scenario
            name in the message and the original exception as the cause.
        NonpositiveField: for the first record state with u or v not > 0
            or w not >= 0 (NaN included), raised when its block is
            evaluated: up to RECORD_BLOCK - 1 output times past it.
    """
    began = time.perf_counter()
    grid = build_grid(cfg.geometry)
    state, _ = init_state(cfg.u0, cfg.v0, cfg.w0, grid)
    v0_range = (float(state.v.min()), float(state.v.max()))
    consts = derived_constants(state.v, state.w, cfg.params, grid, u0=state.u)
    mass_w0_sq = float(integrate(state.w * state.w, grid))

    # records are evaluated RECORD_BLOCK states at a time: the observer
    # copies each state into the next row of ``block`` and flushes when full
    block = np.empty((3, RECORD_BLOCK, grid.n))
    ts: list[float] = []
    records: list[DiagnosticsRecord] = []
    v_min_obs, v_max_obs = np.inf, -np.inf

    def flush() -> None:
        nonlocal v_min_obs, v_max_obs
        u, v, w = block[:, :len(ts)]
        records.extend(evaluate_records(ts, u, v, w, consts, cfg.params, grid,
                                        records[-1] if records else None))
        v_min_obs = min(v_min_obs, float(v.min()))
        v_max_obs = max(v_max_obs, float(v.max()))
        ts.clear()

    def observe(s: State) -> None:
        row = len(ts)
        block[0, row], block[1, row], block[2, row] = s.u, s.v, s.w
        ts.append(s.t)
        if len(ts) == RECORD_BLOCK:
            flush()

    observe(state)
    times = output_times(cfg.output, cfg.t_end)
    try:
        result = advance(state, grid, cfg.params, cfg.stepper, cfg.t_end,
                         observe_times=times, observer=observe)
    except (PositivityViolation, LinearSolveFailure) as exc:
        raise ScenarioFailure(f"scenario {cfg.name!r}: {exc}") from exc
    if ts:
        flush()

    audits = audit_trajectory(records, consts, cfg.params, mass_w0_sq,
                              v0_range, (v_min_obs, v_max_obs))
    manifest = RunManifest(
        version=__version__,
        scenario=cfg,
        constants=consts,
        grid_summary={"kind": type(cfg.geometry).__name__.lower(),
                      "n_cells": grid.n, "h": grid.h, "volume": grid.volume,
                      "d": getattr(cfg.geometry, "d", 1)},
        stats={**asdict(result.stats), "backend": "numpy",
               "outputs": len(records),
               "I_inf": (None if result.stats.w_exhausted_t is None
                         else long_time_index(state, grid))},
        audits=audits,
        wall_time=time.perf_counter() - began,
    )
    return RunResult(records=records, state=result.state, manifest=manifest)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def walk(cfg: ScenarioConfig, path: str) -> list[tuple[Any, str]]:
    """``(node, field name)`` pairs along a dotted path, root first."""
    steps = []
    node = cfg
    for name in path.split("."):
        if name not in getattr(node, "__dataclass_fields__", ()):
            raise ValueError(f"override path {path!r} does not resolve "
                             f"(no field {name!r})")
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
    pairs them elementwise (all lists must share one length).  A path
    names at most one axis.
    """

    base: ScenarioConfig
    overrides: tuple[tuple[str, tuple], ...]
    mode: str = "product"

    def __post_init__(self) -> None:
        if self.mode not in ("product", "zip"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        paths = [p for p, _ in self.overrides]
        for path, values in self.overrides:
            if not values:
                raise ValueError(f"override {path!r} has no values")
            if paths.count(path) > 1:
                raise ValueError(f"override {path!r} is repeated")
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
    row: dict[str, Any] = {"run": index, **combo}
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
    that run, with the error in its row.  With ``processes > 1`` the runs go
    to a pool of at most one worker per run.

    Raises:
        ValueError: if ``processes < 1``, before any run starts.
    """
    if processes < 1:
        raise ValueError(f"processes must be at least 1, got {processes}")
    jobs = [(i, spec.base, combo,
             None if out_dir is None else os.path.join(out_dir, f"run_{i:03d}"))
            for i, combo in enumerate(spec.combos())]

    if processes > 1 and len(jobs) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(processes, len(jobs))) as pool:
            rows = pool.map(_sweep_worker, jobs)
    else:
        rows = [_sweep_worker(job) for job in jobs]
    return rows

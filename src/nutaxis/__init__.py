"""Finite-volume simulator and diagnostics for a two-species
nutrient-taxis competition model.

The package is organized around a small set of layers:

* :mod:`nutaxis.model`, :mod:`nutaxis.grid`, :mod:`nutaxis.profiles` —
  parameters, cell-centered meshes (interval or radial ball), initial data.
* :mod:`nutaxis.operators`, :mod:`nutaxis.stepper`, :mod:`nutaxis.kernels` —
  spatial discretization and the adaptive IMEX time integrator (numba
  kernels when numba imports, a pure-numpy fallback otherwise).
* :mod:`nutaxis.diagnostics` — one record pass (competition index,
  quasi-energy, dissipation, Lyapunov value), per-run audits.
* :mod:`nutaxis.reduced` — well-mixed ODE reduction, heat comparison,
  Jensen-gap constants.
* :mod:`nutaxis.experiments`, :mod:`nutaxis.io`, :mod:`nutaxis.cli` —
  presets, sweeps, artifacts, command line.
* :mod:`nutaxis.verify` — independent convergence and invariant oracles.
"""
from __future__ import annotations

from .diagnostics import (
    DerivedConstants,
    DiagnosticsRecord,
    IntegratedAuditReport,
    JensenReport,
    NonpositiveField,
    competition_index,
    derived_constants,
    evaluate_record,
    integrated_inequality_audit,
    jensen_gap,
    record_fields,
)
from .experiments import (
    OutputSchedule,
    RunManifest,
    RunResult,
    ScenarioConfig,
    ScenarioFailure,
    SweepSpec,
    UnknownVariant,
    apply_override,
    output_times,
    preset,
    run_scenario,
    run_sweep,
)
from .grid import Geometry, Grid, build_grid
from .model import ModelParams, f_eps, f_eps_prime
from .operators import (
    chemotaxis_divergence,
    face_energy,
    face_gradient,
    integrate,
    laplacian_neumann,
)
from .profiles import Constant, Gaussian, Mirrored, State, init_state, sample
from .reduced import (
    HeatTrajectory,
    HorizonTooShort,
    OdeState,
    SignLawMismatch,
    conserved_quantity,
    heat_solve,
    ode_solve,
    ode_step_rk4,
    sign_law_check,
    stabilization_constants,
)
from .stepper import (
    AdvanceResult,
    AdvanceStats,
    History,
    LinearSolveFailure,
    PositivityViolation,
    StepperConfig,
    advance,
)

__version__ = "0.1.0"

__all__ = [
    "AdvanceResult",
    "AdvanceStats",
    "Constant",
    "DerivedConstants",
    "DiagnosticsRecord",
    "Gaussian",
    "Geometry",
    "Grid",
    "HeatTrajectory",
    "History",
    "HorizonTooShort",
    "IntegratedAuditReport",
    "JensenReport",
    "LinearSolveFailure",
    "Mirrored",
    "ModelParams",
    "NonpositiveField",
    "OdeState",
    "OutputSchedule",
    "PositivityViolation",
    "RunManifest",
    "RunResult",
    "ScenarioConfig",
    "ScenarioFailure",
    "SignLawMismatch",
    "State",
    "StepperConfig",
    "SweepSpec",
    "UnknownVariant",
    "advance",
    "apply_override",
    "build_grid",
    "chemotaxis_divergence",
    "competition_index",
    "conserved_quantity",
    "derived_constants",
    "evaluate_record",
    "f_eps",
    "f_eps_prime",
    "face_energy",
    "face_gradient",
    "heat_solve",
    "init_state",
    "integrate",
    "integrated_inequality_audit",
    "jensen_gap",
    "laplacian_neumann",
    "ode_solve",
    "ode_step_rk4",
    "output_times",
    "preset",
    "record_fields",
    "run_scenario",
    "run_sweep",
    "sample",
    "sign_law_check",
    "stabilization_constants",
]

"""Finite-volume simulator and diagnostics for a two-species
nutrient-taxis competition model.

The package is organized around a small set of layers:

* :mod:`nutaxis.model`, :mod:`nutaxis.grid`, :mod:`nutaxis.profiles` —
  parameters, cell-centered meshes (interval or radial ball), initial data.
* :mod:`nutaxis.operators`, :mod:`nutaxis.stepper`, :mod:`nutaxis.kernels` —
  spatial discretization and the adaptive IMEX time integrator (one
  numpy/LAPACK stepping kernel).
* :mod:`nutaxis.diagnostics` — one record pass (competition index,
  quasi-energy, dissipation, Lyapunov value), per-run audits.
* :mod:`nutaxis.reduced` — well-mixed ODE reduction, heat comparison,
  Jensen-gap constants.
* :mod:`nutaxis.experiments`, :mod:`nutaxis.io`, :mod:`nutaxis.cli` —
  presets, sweeps, artifacts, command line.
* :mod:`nutaxis.verify` — independent convergence and invariant oracles.
"""
from __future__ import annotations

# bound before the submodules load: `experiments` writes it into manifests
__version__ = "0.1.0"

from .diagnostics import (
    DerivedConstants,
    DiagnosticsRecord,
    JensenReport,
    NonpositiveField,
    audit_trajectory,
    competition_index,
    derived_constants,
    evaluate_records,
    integrated_inequality_audit,
    jensen_gap,
    long_time_index,
    record_fields,
)
from .experiments import (
    RunManifest,
    RunResult,
    ScenarioConfig,
    ScenarioFailure,
    SweepSpec,
    UnknownVariant,
    apply_override,
    preset,
    run_scenario,
    run_sweep,
)
from .grid import Geometry, Grid, Interval, Radial, build_grid
from .model import ModelParams, f_eps, f_eps_prime
from .operators import (
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
    ode_end_state,
    ode_state,
    sign_law_check,
    stabilization_constants,
)
from .stepper import (
    AdvanceResult,
    AdvanceStats,
    LinearSolveFailure,
    OutputSchedule,
    PositivityViolation,
    StepperConfig,
    advance,
    output_times,
)

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
    "Interval",
    "HorizonTooShort",
    "JensenReport",
    "LinearSolveFailure",
    "Mirrored",
    "ModelParams",
    "NonpositiveField",
    "OdeState",
    "OutputSchedule",
    "PositivityViolation",
    "Radial",
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
    "audit_trajectory",
    "build_grid",
    "competition_index",
    "conserved_quantity",
    "derived_constants",
    "evaluate_records",
    "f_eps",
    "f_eps_prime",
    "face_energy",
    "face_gradient",
    "heat_solve",
    "init_state",
    "integrate",
    "integrated_inequality_audit",
    "jensen_gap",
    "long_time_index",
    "laplacian_neumann",
    "ode_end_state",
    "ode_state",
    "output_times",
    "preset",
    "record_fields",
    "run_scenario",
    "run_sweep",
    "sample",
    "sign_law_check",
    "stabilization_constants",
]

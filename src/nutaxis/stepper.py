"""Semi-implicit two-step time integration with positivity enforcement.

Scheme (SBDF2): (3 y+ - 4 y + y-) / (2 dt) = A y+ + 2 N(y) - N(y-), with

* u: A = D_u * lap (implicit tridiagonal solve); N = taxis divergence plus
  the growth term delta * f_eps(u) * w (explicit);
* w: A = D_w * lap - diag(beta f_eps(u*) + gamma v*) with (u*, v*) the
  second-order extrapolants — the implicit sink makes its contribution
  unconditionally positivity-friendly; N = 0;
* v: exact nodal exponential v+ = v * exp(alpha dt (w + w+)/2) — strictly
  positive and second-order, independent of stiffness.

The first step of a run, and the first step after any dt change, is a
backward-Euler (SBDF1) rebuild; dt is otherwise constant between changes.
Positivity failures reject the step and halve dt, at most MAX_RETRIES times
per step.  That limit, the step-size caps, the rejection floor and the
snap-to-zero of the decaying nutrient are documented in
:mod:`nutaxis.kernels`, which takes every step and raises the errors
re-exported here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import kernels
from .grid import Grid
from .kernels import LinearSolveFailure, PositivityViolation, grid_coefficients
from .model import ModelParams
from .profiles import State

__all__ = [
    "StepperConfig",
    "AdvanceStats",
    "AdvanceResult",
    "PositivityViolation",
    "LinearSolveFailure",
    "grid_coefficients",
    "advance",
]


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping policy.

    Attributes:
        dt: base (largest allowed) time step.
        cfl_safety: safety factor in (0, 1] for the chemotaxis CFL cap.
        scheme: "sbdf2" (default) or "sbdf1" (first-order throughout).
    """

    dt: float = 0.25
    cfl_safety: float = 0.5
    scheme: str = "sbdf2"

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.scheme not in ("sbdf2", "sbdf1"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class AdvanceStats:
    """Step statistics of one advance call, summed over its segments."""

    accepted: int = 0
    rejected: int = 0
    rebuilds: int = 0  # backward-Euler (re)start steps taken
    min_dt: float = np.inf

    def merge(self, accepted: int, rejected: int, rebuilds: int, min_dt: float) -> None:
        self.accepted += accepted
        self.rejected += rejected
        self.rebuilds += rebuilds
        self.min_dt = min(self.min_dt, min_dt)


@dataclass
class AdvanceResult:
    state: State
    stats: AdvanceStats


def advance(state: State, grid: Grid, params: ModelParams, cfg: StepperConfig,
            t_end: float,
            observe_times: Optional[Iterable[float]] = None,
            observer: Optional[Callable[[State], None]] = None) -> AdvanceResult:
    """Advance the state to ``t_end``, landing exactly on every observe time.

    ``observe_times`` must lie in ``(state.t, t_end]``; ``observer(state)``
    is called each time one is reached.  Each call starts the two-step
    scheme afresh with a backward-Euler step; the snap-to-zero floor of w
    is anchored to the max of ``state.w`` on entry.

    Raises:
        ValueError: unless state.t <= t_end and every observe time lies in
            (state.t, t_end], in order (a NaN time is never in range).
        PositivityViolation / LinearSolveFailure: from the stepping kernel,
            with the failing step's start time and dt attached; ``state``
            is left at that step's start.
    """
    if not t_end >= state.t:
        raise ValueError(f"t_end = {t_end} is not at or after state.t = {state.t}")
    targets = []
    if observe_times is not None:
        targets = [float(t) for t in observe_times]
        if not all(state.t < t <= t_end for t in targets):
            raise ValueError("observe times must lie in (state.t, t_end]")
        if sorted(targets) != targets:
            raise ValueError("observe times must be sorted")

    ws = kernels.Workspace(grid, state.w)
    stats = AdvanceStats()
    # a trailing t_end equal to the last target is an empty segment
    for i, tt in enumerate(targets + [t_end]):
        if tt > state.t:
            # looked up at each call, so a traced runner is used
            stats.merge(*kernels.segment_numpy(state, tt, ws, params, cfg))
        if observer is not None and i < len(targets):
            observer(state)

    return AdvanceResult(state, stats)

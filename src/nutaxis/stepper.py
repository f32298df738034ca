"""Time integration of a state to an end time, through output times.

:func:`output_times` lists the geometric schedule of an `OutputSchedule`;
:func:`advance` cuts the run at such times and hands each segment to
:func:`nutaxis.kernels.segment_numpy`, in one workspace, so the two-step
scheme carries across them.  The scheme (SBDF2 with a
backward-Euler starter), the step-size caps, the rejection and its dt
floor, the snap-to-zero of the nutrient and the exact heat flow once what
is left of it can no longer move I(inf) are documented in
:mod:`nutaxis.kernels`, which takes every step and raises the errors
re-exported here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import kernels
from .grid import Grid
from .kernels import AdvanceStats, LinearSolveFailure, PositivityViolation
from .model import ModelParams
from .profiles import State

__all__ = [
    "OutputSchedule",
    "StepperConfig",
    "AdvanceStats",
    "AdvanceResult",
    "PositivityViolation",
    "LinearSolveFailure",
    "advance",
    "output_times",
]


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping policy.

    Attributes:
        dt: base (largest allowed) time step.
    """

    dt: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


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


def output_times(schedule: OutputSchedule, t_end: float) -> list[float]:
    """Strictly increasing observation times in (0, t_end], ending at t_end."""
    ts: list[float] = []
    t = schedule.t_first
    while t < t_end:
        ts.append(t)
        t *= schedule.factor
    ts.append(t_end)
    return ts


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
    is called each time one is reached; meanwhile ``state.u, state.v,
    state.w`` are views of the kernel workspace's current level.  The
    caller's arrays are copied in once, on entry, and the final level is
    copied back into them once, so ``state`` is advanced in place in the
    arrays it came with.  Each call starts the two-step scheme afresh with
    a backward-Euler step; the snap-to-zero floor of w and the max w at
    which the nutrient phase ends are set from ``state`` on entry.

    Raises:
        ValueError: unless state.t <= t_end < inf and every observe time
            lies in (state.t, t_end], in order (a NaN time is never in
            range).
        PositivityViolation / LinearSolveFailure: from the stepping kernel,
            with the failing step's start time and dt attached; ``state``
            is left at that step's start.
    """
    if not state.t <= t_end < math.inf:
        raise ValueError(f"t_end = {t_end} is not finite and at or after "
                         f"state.t = {state.t}")
    targets = []
    if observe_times is not None:
        targets = [float(t) for t in observe_times]
        if not all(state.t < t <= t_end for t in targets):
            raise ValueError("observe times must lie in (state.t, t_end]")
        if sorted(targets) != targets:
            raise ValueError("observe times must be sorted")

    arrays = state.w, state.u, state.v
    ws = kernels.Workspace(grid, state, params)
    try:
        # a trailing t_end equal to the last target is an empty segment
        for i, tt in enumerate(targets + [t_end]):
            if tt > state.t:
                # looked up at each call, so a traced runner is used
                kernels.segment_numpy(state, tt, ws, params, cfg)
            if observer is not None and i < len(targets):
                observer(state)
    finally:
        for a, row in zip(arrays, ws.y):
            a[...] = row
        state.w, state.u, state.v = arrays
    return AdvanceResult(state, ws.stats)

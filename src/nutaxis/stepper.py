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
Positivity failures reject the step and halve dt, at most max_retries times
per step.  Step-size caps, the rejection floor and the snap-to-zero of the
decaying nutrient are documented in :mod:`nutaxis.kernels`, which takes
every step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from . import kernels
from .grid import Grid
from .model import ModelParams
from .profiles import State

__all__ = [
    "StepperConfig",
    "History",
    "AdvanceStats",
    "AdvanceResult",
    "PositivityViolation",
    "LinearSolveFailure",
    "grid_coefficients",
    "advance",
]


class PositivityViolation(RuntimeError):
    """A field left its positive cone and dt could not be reduced further.

    ``t`` is the time of the state the failing step started from and ``dt``
    the size of its last attempt.
    """

    def __init__(self, fieldname: str, cell: int, t: float,
                 dt: Optional[float] = None):
        self.field = fieldname
        self.cell = cell
        self.t = t
        self.dt = dt
        at_dt = "" if dt is None else f", dt = {dt:.6g}"
        super().__init__(
            f"positivity violation in {fieldname!r} at cell {cell}, t = {t:.6g}"
            f"{at_dt}")


class LinearSolveFailure(RuntimeError):
    """The banded system was singular (cannot occur for dt > 0; internal).

    ``t`` and ``dt`` are as for :class:`PositivityViolation`.
    """

    def __init__(self, t: float, dt: float):
        self.t = t
        self.dt = dt
        super().__init__(f"singular tridiagonal system in the step from "
                         f"t = {t:.6g} with dt = {dt:.6g}")


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping policy.

    Attributes:
        dt: base (largest allowed) time step.
        cfl_safety: safety factor in (0, 1] for the chemotaxis CFL cap.
        max_retries: rejection halvings allowed per step.
        scheme: "sbdf2" (default) or "sbdf1" (first-order throughout).
    """

    dt: float = 0.25
    cfl_safety: float = 0.5
    max_retries: int = 12
    scheme: str = "sbdf2"

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.scheme not in ("sbdf2", "sbdf1"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass
class History:
    """Previous accepted level and its explicit terms (two-step bookkeeping).

    ``dt`` is the gap between the stored level and the current state;
    ``valid`` is False before the first accepted step.  ``w_snap`` is the
    absolute snap-to-zero floor, anchored to the run's initial max w so that
    later segments keep the same floor.
    """

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    n_u: np.ndarray = field(repr=False)
    dt: float = 0.0
    valid: bool = False
    w_snap: float = 0.0

    @classmethod
    def fresh(cls, n: int) -> "History":
        z = np.zeros(n)
        return cls(u=z.copy(), v=z.copy(), w=z.copy(), n_u=z.copy())


@dataclass
class AdvanceStats:
    """Accumulated step statistics for one or more advance calls."""

    accepted: int = 0
    rejected: int = 0
    rebuilds: int = 0  # backward-Euler (re)start steps taken
    min_dt: float = np.inf
    backend: str = ""

    def merge(self, accepted: int, rejected: int, rebuilds: int, min_dt: float) -> None:
        self.accepted += accepted
        self.rejected += rejected
        self.rebuilds += rebuilds
        self.min_dt = min(self.min_dt, min_dt)


@dataclass
class AdvanceResult:
    state: State
    history: History
    stats: AdvanceStats


def grid_coefficients(grid: Grid):
    """Per-grid coefficients ``(m, cl, cr, af, h)`` of the stepping kernels.

    Cell measures, the left and right face couplings of the implicit
    operators (see :func:`nutaxis.kernels.solve_tridiag`), face areas and
    the spacing.
    """
    n = grid.n
    af = grid.face_areas
    cl = np.zeros(n)
    cr = np.zeros(n)
    cl[1:] = af[1:-1] / (grid.h * grid.m[1:])
    cr[:-1] = af[1:-1] / (grid.h * grid.m[:-1])
    return grid.m, cl, cr, af, grid.h


def advance(state: State, grid: Grid, params: ModelParams, cfg: StepperConfig,
            t_end: float,
            observe_times: Optional[Iterable[float]] = None,
            observer: Optional[Callable[[State], None]] = None,
            history: Optional[History] = None,
            backend: Optional[str] = None) -> AdvanceResult:
    """Advance the state to ``t_end``, landing exactly on every observe time.

    ``observe_times`` must lie in ``(state.t, t_end]``; ``observer(state)``
    is called each time one is reached.  The returned history can be threaded
    into a subsequent call, making two half-horizon advances bitwise
    identical to one full advance when no step-size adaptation intervenes.

    Raises:
        ValueError: if t_end < state.t or observe times are out of range.
        PositivityViolation / LinearSolveFailure: from the stepping kernel,
            with the failing step's start time and dt attached; ``state``
            and ``history`` are left at that step's start.
    """
    if t_end < state.t:
        raise ValueError(f"t_end = {t_end} is before state.t = {state.t}")
    name, runner = kernels.get_segment_runner(backend)
    stats = AdvanceStats(backend=name)
    if history is None:
        history = History.fresh(grid.n)
        history.w_snap = kernels.W_SNAP_REL * float(np.max(state.w, initial=0.0))
    if t_end == state.t:
        return AdvanceResult(state, history, stats)

    targets = []
    if observe_times is not None:
        targets = [float(t) for t in observe_times]
        if any(t <= state.t or t > t_end for t in targets):
            raise ValueError("observe times must lie in (state.t, t_end]")
        if sorted(targets) != targets:
            raise ValueError("observe times must be sorted")

    m, cl, cr, af, h = grid_coefficients(grid)
    hmeta = np.array([history.dt, 1.0 if history.valid else 0.0, history.w_snap])
    scheme2 = 1 if cfg.scheme == "sbdf2" else 0

    # a trailing t_end equal to the last target is an empty segment
    for i, tt in enumerate(targets + [t_end]):
        rem = tt - state.t
        if rem > 0.0:
            status, cell, acc, rej, reb, mdt, dt, left = runner(
                state.u, state.v, state.w,
                history.u, history.v, history.w, history.n_u, hmeta, rem,
                m, cl, cr, af, h,
                params.D_u, params.D_w, params.chi, params.alpha, params.beta,
                params.gamma, params.delta, params.eps_reg,
                cfg.dt, cfg.cfl_safety, cfg.max_retries, scheme2)
            stats.merge(int(acc), int(rej), int(reb), float(mdt))
            history.dt = float(hmeta[0])
            history.valid = hmeta[1] > 0.5
            if status != kernels.STATUS_OK:
                state.t = max(state.t, tt - float(left))  # the failing step's start
                if status == kernels.STATUS_SINGULAR:
                    raise LinearSolveFailure(state.t, float(dt))
                fieldname = "u" if status == kernels.STATUS_U_POSITIVITY else "w"
                raise PositivityViolation(fieldname, int(cell), state.t, float(dt))
            state.t = tt
        if observer is not None and i < len(targets):
            observer(state)

    return AdvanceResult(state, history, stats)

"""Hot time-stepping kernel: one segment controller over array primitives.

Each step is SBDF2, (3 y+ - 4 y + y-) / (2 dt) = A y+ + 2 N(y) - N(y-),
or backward Euler where no two-step history of its dt exists.  For u, A is
D_u * lap and N the upwind taxis divergence plus the growth
delta * f_eps(u) * w; for w, A is D_w * lap minus the sink
beta f_eps(u*) + gamma v* at the extrapolants, and N = 0; v takes the
exact nodal exponential v+ = v * exp(alpha dt (w + w+) / 2).

:func:`segment_numpy` advances a state to the end of one output segment:
the dt caps, the dt schedule, the SBDF2-or-rebuild decision, retry
halving, the step statistics and the history swap.  It works in the
:class:`Workspace` that :func:`nutaxis.stepper.advance` builds once per
run, so the two-step scheme carries across output segments, and it raises
:class:`PositivityViolation` and :class:`LinearSolveFailure` itself.

The controller looks up three array primitives as module globals at each
use, so a patched or traced primitive sees every call:

* ``_fill_sink_numpy`` — the nutrient sink from ``(u, v)`` or their
  extrapolants,
* ``_cap_terms_numpy`` — ``max|w[j] - w[j-1]|``, the max sink over cells
  with ``w > 0`` (over all cells when the level is known to have every
  ``w >= w_snap > 0``) and ``max w``,
* :func:`attempt_step_numpy` — one step attempt; fills the workspace's new
  level ``yn`` and explicit u-term ``nn`` and returns ``None``, or
  ``(field, cell)`` on a positivity or overflow failure.

Both implicit operators are self-adjoint in the ``m``-weighted inner
product, so each system is solved with its rows scaled by the cell
measures ``m``: a symmetric positive definite tridiagonal matrix with
diagonal ``m (c0 + sink) + D (a_{i-1/2} + a_{i+1/2})`` and off-diagonal
``-D a_{i+1/2}``, ``a = face area / h``, solved by LAPACK's LDL^T
routines (:func:`solve_tridiag`).  The u matrix depends only on ``c0``, so
its factor is kept in the workspace and reused while ``c0`` stays the
same.  The exact heat flow of step 3 below takes its eigenmodes from the
u matrix's diffusion part (:func:`heat_modes`), so it is the steps' own
discrete operator.

A run that starts with ``w0 == 0`` (``w_tail < 0``) never takes the
tail of step 3 below: it keeps stepping the heat flow with SBDF2.  The
temporal heat oracles of :mod:`nutaxis.verify` are what measure those
steps; its spatial heat oracle takes the exact flow (:func:`heat_evolve`).

A run is bitwise deterministic, and the module constants (such as
``MAX_RETRIES``) are read at each use.  The test suite swaps the three
primitives for explicit loops as a reference; it agrees to roundoff
(~1e-12 relative), not bitwise, because LAPACK and a Thomas sweep round
differently.

Segment algorithm:
  repeat until the remaining gap is exhausted:
    1. extrapolants u* = max(2u - u_prev, 0), v* = 2v - v_prev
       (u* clamped so the nutrient sink stays nonnegative; plain (u, v) when
       no valid two-step history exists),
    2. step-size caps: chemotaxis CFL CFL_SAFETY*h/max|chi grad w|;
       sink cap SINK_DT_CAP/max(beta f(u*) + gamma v*) over cells with w > 0
       (keeps the implicit two-step decay in its over-damped regime);
       source cap SOURCE_DT_CAP/(max(delta, alpha) * max w),
    3. end of the nutrient phase: once max w <= w_tail (TAIL_TOL over
       the bracket constant C of _tail_level), what nutrient is left
       moves I(inf) = int ln v - |Omega| ln(ubar) by at most
       TAIL_TOL * |Omega|.  From then on w = 0, v is frozen and u follows
       the discrete Neumann heat flow, taken exactly: the switch state's
       mean and heat_modes coefficients are kept (heat_project), and u at
       each later segment end is their heat_evolve over the time since
       the switch.  No step is counted, the two-step history is dropped
       (hdt = 0), and the I(inf) bracket at the switch is kept in
       stats.I_bracket; a u that is not > 0 (NaN included) raises
       PositivityViolation.  Where the bracket has no finite constant
       (beta = 0 or gamma = 0, or alpha = delta = 0) w_tail = 0, so the
       switch waits until every cell of w has snapped to 0,
    4. fit dt below the cap so the segment lands exactly on its end time;
       dt grows (by _GROWTH_FACTOR, up to the cap and the base dt) only
       after an accepted step.  The step is SBDF2 when the history was left
       by a step of this very dt (hdt == dt), else a backward-Euler rebuild,
       with the sink of (u, v) in place of the extrapolants,
    5. the m-weighted explicit u-term (upwind taxis + growth) at the
       current level, then the m-scaled right-hand sides of w and u as one
       stacked expression; implicit w solve (dptsv) with frozen
       extrapolated sink, rejection unless w >= -w_snap, then snap-to-zero
       of entries below w_snap (W_SNAP_REL times the run's initial max w),
    6. exact multiplicative v update with trapezoidal w average,
    7. implicit-diffusion u solve, by the cached LDL^T factor of this c0
       (dpttrs) or by a fresh one (dptsv) that is then kept; rejection
       unless 0 < u < inf and v < inf in every cell (NaN fails each),
    8. on rejection: drop the history (hdt = 0), halve dt and refit it, so
       the retry is a backward-Euler step; raise PositivityViolation instead
       once the halved dt would fall below the attempt's cap times
       2**-MAX_RETRIES, a floor that an accepted step does not reset (an
       overflow, if the failing entry of the rejected level is infinite).  The
       current level, the history and ``hnu`` are left as they were.  On
       acceptance the three level arrays rotate (the current level becomes
       the history, the new one the current) and ``nn``/``hnu`` swap;
       nothing is copied.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import f_eps
from .operators import diffusion_rows, taxis_flux

__all__ = [
    "AdvanceStats",
    "LinearSolveFailure",
    "PositivityViolation",
    "Workspace",
    "attempt_step_numpy",
    "heat_evolve",
    "heat_modes",
    "heat_project",
    "segment_numpy",
    "solve_tridiag",
]

_GROWTH_FACTOR = 2.0  # dt may grow only when the caps allow at least 2x
CFL_SAFETY = 0.5  # bound on dt * max|chi grad w| / h, the taxis CFL number
# bound on dt * max(nutrient sink rate); 0.45 keeps the two-step decay
# over-damped (real roots need dt * rate <= 0.5)
SINK_DT_CAP = 0.45
SOURCE_DT_CAP = 0.45  # bound on dt * max(delta, alpha) * max w
MAX_RETRIES = 12  # a retried dt stays >= its cap * 2**-MAX_RETRIES
W_SNAP_REL = 1e-250  # snap-to-zero floor for w, relative to the initial max
# the nutrient phase ends once what is left of it can move I(inf) by at most
# TAIL_TOL * |Omega| (step 3 of the algorithm)
TAIL_TOL = 1e-12


class PositivityViolation(RuntimeError):
    """A field lost its sign or overflowed; dt could not be reduced further.

    ``t`` is the time of the state the failing step started from and ``dt``
    the size of its last attempt; ``overflow`` marks an infinite entry.
    """

    def __init__(self, fieldname: str, cell: int, t: float,
                 dt: Optional[float] = None, overflow: bool = False):
        self.field = fieldname
        self.cell = cell
        self.t = t
        self.dt = dt
        what = "overflow" if overflow else "positivity violation"
        at_dt = "" if dt is None else f", dt = {dt:.6g}"
        super().__init__(
            f"{what} in {fieldname!r} at cell {cell}, t = {t:.6g}{at_dt}")


class LinearSolveFailure(RuntimeError):
    """A step's system was not positive definite (cannot occur for dt > 0;
    internal).

    ``t`` and ``dt`` are as for :class:`PositivityViolation`.
    """

    def __init__(self, t: float, dt: float):
        self.t = t
        self.dt = dt
        super().__init__(f"tridiagonal system not positive definite in the "
                         f"step from "
                         f"t = {t:.6g} with dt = {dt:.6g}")


@dataclass
class AdvanceStats:
    """Step statistics of one run, summed over its segments.

    ``w_exhausted_t`` is the time at which the nutrient phase ended and the
    heat flow of u was taken exactly from then on, or ``None``.
    ``I_bracket = (lo, hi)`` bounds ``I(inf) = int ln v - |Omega| ln(ubar)``
    of the semi-discrete flow from the state at that time, or is ``None``.
    """

    accepted: int = 0
    rejected: int = 0
    rebuilds: int = 0  # backward-Euler (re)start steps taken
    min_dt: float = math.inf
    w_exhausted_t: Optional[float] = None
    I_bracket: Optional[tuple[float, float]] = None


class Workspace:
    """What the segments of one run share.

    ``m, af, h`` are the grid's cell measures, face areas and spacing,
    ``m2`` is ``m`` stacked twice (the scale of the w and u rows together;
    a broadcast ``m`` would make numpy allocate a buffer), and ``dw, ew``
    and ``du, eu`` are the :func:`~nutaxis.operators.diffusion_rows` of
    ``D_w`` and ``D_u``: the solves and the heat modes are built from them.
    Each level is one ``(3, n)`` array of rows ``[w, u, v]``: ``y`` is the
    current level, copied from ``state`` here (once per run), ``hy`` the
    previous accepted level and ``yn`` the new level of an attempt.  ``nn``
    is the m-weighted explicit u-term of ``y`` (written by each attempt),
    ``hnu`` that of ``hy``, and ``hdt > 0`` the step that left ``hy``;
    ``hdt == 0`` while there is no such level.  An accepted step rotates
    ``y, hy, yn`` and swaps ``nn, hnu``.  ``w_min`` is the min of ``y``'s w
    and ``wn_min`` that of ``yn``'s, both after the snap.  ``w_snap`` is the
    snap-to-zero floor of w, ``W_SNAP_REL`` times the max of ``w0``, and
    ``w_tail`` the max w at which the nutrient phase ends
    (:func:`_tail_level` of the entry ``state`` and ``params``).  ``ufac``
    (shape ``(2, n)``: the diagonal, then the ``n - 1`` off-diagonal
    entries) holds the LDL^T factor of the m-scaled u matrix of ``c0 =
    u_c0``, or nothing when ``u_c0 == 0``.  ``sink`` and ``work`` (shape
    ``(4, n + 1)``) are scratch of each attempt.  ``tail`` is ``None`` until
    the nutrient phase ends, then ``(t, modes, mean, coef)``: the switch
    time, the :func:`heat_modes` of ``m, du, eu`` and the
    :func:`heat_project` of u at that time.  ``stats`` holds the run's
    :class:`AdvanceStats`.
    """

    def __init__(self, grid, state, params):
        n = grid.n
        self.m, self.af, self.h = grid.m, grid.face_areas, grid.h
        self.m2 = np.array((self.m, self.m))
        self.dw, self.ew = diffusion_rows(grid, params.D_w)
        self.du, self.eu = diffusion_rows(grid, params.D_u)
        self.y = np.array((state.w, state.u, state.v), dtype=np.float64)
        self.hy, self.yn = np.zeros((2, 3, n))
        self.hnu, self.nn, self.sink = np.zeros((3, n))
        self.hdt = 0.0
        self.w_snap = W_SNAP_REL * float(np.max(state.w, initial=0.0))
        self.w_min = float(np.min(state.w))
        self.wn_min = 0.0
        self.w_tail = _tail_level(self.m, state, params)
        self.ufac = np.zeros((2, n))
        self.u_c0 = 0.0
        self.tail = None
        self.stats = AdvanceStats()
        self.work = np.empty((4, n + 1))


# ---------------------------------------------------------------------------
# the segment controller
# ---------------------------------------------------------------------------

def segment_numpy(state, t_to, ws, params, cfg):
    """Advance ``state`` from ``state.t`` to ``t_to`` in ``ws``.

    ``params`` is the :class:`nutaxis.model.ModelParams` and ``cfg`` the
    :class:`nutaxis.stepper.StepperConfig` of the run.  The level stepped
    is the workspace's ``ws.y``, which :class:`Workspace` copied from the
    run's state; on return ``state.w, state.u, state.v`` are views of its
    rows and ``state.t`` its time.  Continues the two-step scheme from the
    history in ``ws``, leaves the last accepted step's history there and
    counts its steps in ``ws.stats``.  Once the run's nutrient phase has
    ended (step 3 of the module's algorithm), u at ``t_to`` is the exact
    heat flow of the switch state, and ``ws.stats.w_exhausted_t`` holds the
    switch time.

    Raises:
        PositivityViolation: a rejected step's halved dt would fall below
            its cap times 2**-MAX_RETRIES.
        LinearSolveFailure: a tridiagonal system was not positive definite
            (not retried).
        Either carries the failing step's start time and last dt; ``state``
        is left at that start, ``state.t`` included.
    """
    sink, stats = ws.sink, ws.stats
    beta, gamma, eps = params.beta, params.gamma, params.eps_reg
    chi, h, dt_base = params.chi, ws.h, cfg.dt
    rmax = max(params.delta, params.alpha)

    rem = t_to - state.t  # k * dt once dt is fitted
    k, dt = 0, math.inf  # k steps of dt remain; the first pass fits dt
    try:
        while rem > 0.0 and ws.tail is None:
            # ---- sink at the extrapolants of the next attempt (built in
            # the new level's u and v rows), and the caps
            y = ws.y
            _fill_sink_numpy(sink, y[1:], ws.hy[1:], ws.hdt > 0.0, beta,
                             gamma, eps, ws.yn[1:])
            dw, smax, wmax = _cap_terms_numpy(y[0], sink,
                                              ws.w_min >= ws.w_snap > 0.0)
            if wmax <= ws.w_tail:
                # what nutrient is left can no longer move I(inf): w is
                # dropped, v frozen, and u follows the heat flow from here,
                # exactly
                state.t = max(state.t, t_to - rem)
                _end_nutrient_phase(ws, params, state.t)
                break
            cap = dt_base
            if chi > 0.0:
                gmax = chi * dw / h
                # compared before dividing: a subnormal gmax would overflow
                if CFL_SAFETY * h < cap * gmax:
                    cap = CFL_SAFETY * h / gmax
            if smax > 0.0:
                cap = min(cap, SINK_DT_CAP / smax)
            if rmax * wmax > 0.0:
                cap = min(cap, SOURCE_DT_CAP / (rmax * wmax))

            # ---- fit dt so the remaining gap is an exact multiple of it;
            # it grows only after an accepted step
            if cap < dt:
                k, dt = _fit(rem, cap)
            elif (cap >= _GROWTH_FACTOR * dt and dt < dt_base and k > 1
                  and ws.hdt > 0.0):
                k, dt = _fit(rem, min(_GROWTH_FACTOR * dt, cap))
            rem = k * dt
            sbdf2 = ws.hdt == dt  # a two-step history of this very dt
            if ws.hdt > 0.0 and not sbdf2:
                # the sink must match the scheme actually used
                _fill_sink_numpy(sink, y[1:], ws.hy[1:], False, beta, gamma,
                                 eps, ws.yn[1:])

            try:
                failure = attempt_step_numpy(ws, sbdf2, dt, params)
            except np.linalg.LinAlgError as exc:
                state.t = max(state.t, t_to - rem)  # the failing step's start
                raise LinearSolveFailure(state.t, dt) from exc
            if failure is not None:
                # retry with backward Euler at half dt, fitted to the gap;
                # the caps do not depend on dt, so the next pass may only
                # lower it
                stats.rejected += 1
                ws.hdt = 0.0
                if 0.5 * dt < cap * 2.0 ** -MAX_RETRIES:
                    state.t = max(state.t, t_to - rem)
                    field, cell = failure  # ws.yn holds the rejected level
                    raise PositivityViolation(
                        field, cell, state.t, dt,
                        ws.yn["wuv".index(field), cell] == math.inf)
                k, dt = _fit(rem, 0.5 * dt)
                rem = k * dt
                continue

            # ---- accept: the entry level becomes the history
            ws.hy, ws.y, ws.yn = y, ws.yn, ws.hy
            ws.hnu, ws.nn = ws.nn, ws.hnu
            ws.w_min = ws.wn_min
            ws.hdt = dt
            if not sbdf2:
                stats.rebuilds += 1
            stats.accepted += 1
            stats.min_dt = min(stats.min_dt, dt)
            k -= 1
            rem = k * dt

        if ws.tail is not None:
            t_sw, modes, mean, coef = ws.tail
            un = heat_evolve(modes, mean, coef, t_to - t_sw, ws.yn[1])
            if not np.minimum.reduce(un) > 0.0:  # NaN fails too
                raise PositivityViolation(
                    "u", int(np.argmax(~(un > 0.0))), state.t)
            ws.y[1] = un
        state.t = t_to
    finally:
        state.w, state.u, state.v = ws.y


def _tail_level(m, state, params):
    """The max w at which a run from ``state`` ends its nutrient phase.

    For t >= t0 the semi-discrete ``w`` lies below ``exp(-(t - t0) A) w(t0)``
    with ``A = -D_w lap + gamma diag(v(t0))``, an M-matrix with ``A^-1 1 <=
    1 / (gamma min v)``.  So ``int ln v`` can still rise by at most
    ``alpha m.A^-1 w <= alpha W / (gamma min v)`` and ``int u`` by at most
    ``(delta / beta) W``, with ``W = m.w <= |Omega| max w``.  As ``v`` and
    ``int u`` do not decrease, ``I(inf)`` then lies in a bracket of width at
    most ``|Omega| max w C``, ``C = alpha / (gamma min v0) + delta |Omega| /
    (beta U0)`` with ``U0 = m.u0``; ``TAIL_TOL / C`` bounds it by
    ``TAIL_TOL |Omega|``.  The level is 0 (the phase ends once every cell
    of w has snapped to 0) where ``C`` is not a positive finite number:
    ``beta = 0``, ``gamma = 0`` or ``alpha = delta = 0`` (where w still
    moves u by taxis but never moves ``I(inf)``).  It is -1, never reached,
    when ``w0 == 0``.
    """
    if not np.max(state.w, initial=0.0) > 0.0:
        return -1.0
    volume = float(np.sum(m))
    gv = params.gamma * float(np.min(state.v))
    bu = params.beta * float(np.dot(m, state.u))
    if not (gv > 0.0 and bu > 0.0):  # also where the products underflow
        return 0.0
    c = params.alpha / gv + params.delta * volume / bu
    return TAIL_TOL / c if 0.0 < c < math.inf else 0.0


def _end_nutrient_phase(ws, params, t):
    # the I(inf) bracket of _tail_level from the state at the switch, then
    # w = 0 and the heat tail's coefficients of u
    (w, u, v), m = ws.y, ws.m
    modes = heat_modes(m, ws.du, ws.eu)
    volume = modes[4]
    mass_u, mass_w = float(np.dot(m, u)), float(np.dot(m, w))
    ln_v = float(np.dot(m, np.log(v)))
    gain_v = gain_u = 0.0
    if mass_w > 0.0:  # then beta > 0 and gamma > 0
        gain_v = params.alpha * mass_w / (params.gamma * float(np.min(v)))
        gain_u = params.delta / params.beta * mass_w
    ws.stats.I_bracket = (ln_v - volume * math.log((mass_u + gain_u) / volume),
                          ln_v + gain_v - volume * math.log(mass_u / volume))
    ws.stats.w_exhausted_t = t
    w[:] = 0.0
    ws.w_min = 0.0
    ws.hdt = 0.0
    ws.tail = (t, modes, *heat_project(modes, u))


def _fit(span, cap):
    # the fewest steps of at most cap (to 1e-12 relative) that land exactly
    # on the end of span, and their size
    k = max(int(math.ceil(span / cap - 1e-12)), 1)
    return k, span / k


# ---------------------------------------------------------------------------
# vectorized numpy/scipy primitives
# ---------------------------------------------------------------------------

_lapack = None  # scipy's compiled LAPACK module, loaded on first use


def _import_lapack():
    # deferred, and not through scipy.linalg, whose init takes ~0.3 s; the
    # light `import scipy` sets up shared-library paths on some platforms
    global _lapack
    name = "scipy.linalg._flapack"
    _lapack = sys.modules.get(name)
    if _lapack is None:
        import scipy
        paths = [os.path.join(p, "linalg") for p in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(name, paths)
        if spec is None:
            raise ImportError(f"No module named {name!r}", name=name)
        _lapack = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_lapack)
    return _lapack


def solve_tridiag(d, e, b, factored=False):
    """Solve a symmetric positive definite tridiagonal system in place.

    ``d`` is the diagonal (``n`` entries) and ``e`` the off-diagonal
    (``n - 1``); ``b`` is overwritten with the solution and returned.
    LAPACK ``dptsv`` (LDL^T without pivoting, called directly; it is the
    routine ``scipy.linalg.solveh_banded`` reaches for one off-diagonal, so
    the solution is bitwise the same) factors the matrix into ``d`` and
    ``e``.  With ``factored``, ``d`` and ``e`` already hold such a factor,
    left there by an earlier call, and only ``dpttrs`` runs; ``dptsv`` is
    ``dpttrf`` then ``dpttrs``, so the solution is bitwise that of a fresh
    call.  Nothing is allocated when the three arrays are contiguous
    float64; otherwise f2py works on copies, which are written back.  LAPACK
    is loaded on the first call, not with the package or ``scipy.linalg``.

    Raises:
        np.linalg.LinAlgError: the matrix is not positive definite.
    """
    lapack = _lapack or _import_lapack()
    # positional overwrite flags: f2py's keyword parsing costs ~0.8 us a call
    if factored:
        x, info = lapack.dpttrs(d, e, b, 1)
    else:
        fd, fe, x, info = lapack.dptsv(d, e, b, 1, 1, 1)
        for given, out in ((d, fd), (e, fe)):
            if out is not given:  # f2py factored a copy
                given[...] = out
    if info > 0:
        raise np.linalg.LinAlgError(f"tridiagonal matrix not positive "
                                    f"definite: leading minor {info}")
    if x is not b:  # f2py solved in a copy of a non-contiguous b
        b[...] = x
    return b


_modes_cache = None  # (key, modes) of the last heat_modes call


def heat_modes(m, d, e):
    """The eigenmodes of the discrete Neumann heat operator ``D * lap``.

    ``m`` are the cell measures and ``d, e`` the
    :func:`~nutaxis.operators.diffusion_rows` of ``D``, the m-scaled rows
    ``K = -M (D lap)`` that the implicit solves factor.  ``K`` is
    symmetric, so ``S = M^(1/2) (D lap) M^(-1/2) = -M^(-1/2) K M^(-1/2)``
    is symmetric tridiagonal: its diagonal is ``-d / m`` and its
    off-diagonal ``-e / sqrt(m[:-1] m[1:])``, on interval and radial grids
    alike.  LAPACK ``dstemr`` (called directly, after its workspace query)
    gives its eigenvalues ``lam`` in ascending order and orthonormal
    eigenvectors, the columns of ``q``.  The top eigenvalue, that of the
    constant mode, is 0, and the computed one is pinned to it; at n = 400
    it comes out ~1e-297 in size on an interval and up to ~3e-10 (D = 20)
    on a ball, at most ~1e-17 of the bottom eigenvalue.

    Returns ``(lam, q, s, m, volume)``, with ``s = sqrt(m)`` and ``volume =
    sum(m)``, for :func:`heat_project` and :func:`heat_evolve`.  The
    arrays are read-only: the last result is cached on the bytes of ``(m,
    d, e)``, so the runs of a sweep on one grid and ``D`` share one set of
    modes.

    Raises:
        np.linalg.LinAlgError: if ``dstemr`` fails.
    """
    global _modes_cache
    key = (m.tobytes(), d.tobytes(), e.tobytes())
    if _modes_cache is not None and _modes_cache[0] == key:
        return _modes_cache[1]
    lapack = _lapack or _import_lapack()
    diag = -d / m
    off = np.zeros_like(diag)  # dstemr takes n entries and overwrites them
    off[:-1] = -e / np.sqrt(m[:-1] * m[1:])
    # range 0 ("A"): every eigenpair; vl, vu, il, iu are then unused
    lwork, liwork, info = lapack.dstemr_lwork(diag, off, 0, 0.0, 0.0, 0, 0)
    if info == 0:
        _, lam, q, info = lapack.dstemr(diag, off, 0, 0.0, 0.0, 0, 0, 1,
                                        int(lwork), int(liwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"dstemr failed with info = {info}")
    lam[-1] = 0.0
    m = np.array(m)
    modes = lam, q, np.sqrt(m), m, float(np.sum(m))
    for a in modes[:4]:
        a.flags.writeable = False
    _modes_cache = key, modes
    return modes


def heat_project(modes, u):
    """The mean ``ubar = (m . u) / volume`` of ``u`` and the coefficients
    ``q^T (s (u - ubar))`` of the rest over the :func:`heat_modes`.
    """
    _, q, s, m, volume = modes
    mean = float(np.dot(m, u)) / volume
    return mean, np.dot((u - mean) * s, q)


def heat_evolve(modes, mean, coef, tau, out):
    """The discrete heat flow over ``tau >= 0`` of a :func:`heat_project`.

    Exact in time: ``out = mean + s^-1 q (exp(tau lam) coef)`` with the
    :func:`heat_modes` ``(lam, q, s)``, summed over the modes from the first
    whose factor ``exp(tau lam)`` has not underflowed to 0 (``lam`` ascends
    to 0), so a late time costs only the slow modes.  ``exp`` is exactly 0
    below about -745.13, so the factors are taken only from the first mode
    with ``tau lam >= -746``.  The mean is carried apart from the modes, so
    the mass ``m . out`` is that of the projected u to roundoff for every
    ``tau``.  ``out`` is returned.
    """
    lam, q, s, _, _ = modes
    x = tau * lam  # ascending, as lam is
    j = int(np.searchsorted(x, -746.0))  # exp(x[:j]) == 0
    np.exp(x[j:], out=x[j:])
    j0 = j + int(np.argmax(x[j:] > 0.0))  # lam[-1] == 0, so exp(x[-1]) == 1
    c = x[j0:]
    c *= coef[j0:]
    np.dot(q[:, j0:], c, out=out)
    out /= s
    out += mean
    return out


def attempt_step_numpy(ws, sbdf2, dt, params):
    """One step attempt of ``dt`` from the level ``ws.y`` (no retries).

    Fills the new level ``ws.yn`` (rows ``[w, u, v]``), ``ws.nn`` (the
    m-weighted explicit u-term ``-(flux difference) + m delta F(u) w`` at
    ``ws.y``, the history of the next two-step stage) and ``ws.wn_min`` and
    returns ``None``, or ``(field, cell)`` at the first cell where ``w+ >=
    -w_snap``, ``0 < u+ < inf`` or ``v+ < inf`` fails (NaN fails each).
    Besides those it writes only ``work`` and the u factor cache ``ufac,
    u_c0``: row 0 of ``work`` holds the w solve's diagonal, row 1 its
    off-diagonal, row 2 the flux difference and the ``2 nn`` term, row 3
    the n + 1 taxis face fluxes.
    The m-scaled right-hand sides of w and u are one stacked expression in
    ``yn[:2]``, where the solves run in place (:func:`solve_tridiag`).
    Nothing is read from ``work`` before it is written.  With ``eps == 0``
    no float array is allocated, only the n-byte masks of the upwind
    choice and, when some ``w+`` is snapped, of the snap.

    Raises:
        np.linalg.LinAlgError: from a solve whose matrix is not positive
            definite.
    """
    y, yn, nn, work, m = ws.y, ws.yn, ws.nn, ws.work, ws.m
    w, u, v = y
    eps, w_snap = params.eps_reg, ws.w_snap
    n = w.shape[0]
    diag, off, tmp = work[0, :n], work[1, :n - 1], work[2, :n]
    # ---- m-weighted explicit u-term: -(flux difference) + m delta F(u) w
    gflux = taxis_flux(u, w, ws.af, ws.h, params.chi, eps, out=work[3])
    np.subtract(gflux[:-1], gflux[1:], out=tmp)
    np.multiply(f_eps(u, eps), params.delta, out=nn)
    nn *= w
    nn *= m
    nn += tmp

    # ---- m-scaled right-hand sides of w and u, stacked
    rhs = yn[:2]
    if sbdf2:
        c0 = 3.0 / (2.0 * dt)
        np.multiply(y[:2], 4.0, out=rhs)  # m (4 y - hy) / (2 dt)
        rhs -= ws.hy[:2]
        rhs /= 2.0 * dt
        rhs *= ws.m2
        np.multiply(nn, 2.0, out=tmp)  # u: + 2 nn - hnu
        rhs[1] += tmp
        rhs[1] -= ws.hnu
    else:
        c0 = 1.0 / dt
        np.multiply(y[:2], c0, out=rhs)
        rhs *= ws.m2
        rhs[1] += nn

    # ---- implicit w solve:  m (c0 + sink) w+ - D_w m lap w+ = m rhs
    wn = yn[0]
    np.add(ws.sink, c0, out=diag)
    diag *= m
    diag += ws.dw
    np.copyto(off, ws.ew)
    solve_tridiag(diag, off, wn)
    wn_min = np.minimum.reduce(wn)
    if not wn_min >= -w_snap:  # NaN fails too
        return "w", int(np.argmax(~(wn >= -w_snap)))
    if not wn_min >= w_snap:  # snap to zero
        np.copyto(wn, 0.0, where=wn < w_snap)
        wn_min = 0.0
    ws.wn_min = float(wn_min)

    # ---- exact multiplicative v update: v exp(alpha dt/2 (w + w+))
    vn = yn[2]
    np.add(w, wn, out=vn)
    vn *= params.alpha * dt * 0.5
    np.exp(vn, out=vn)
    vn *= v

    # ---- implicit-diffusion u solve, by the factor of this c0 if kept
    un, ufac = yn[1], ws.ufac
    if ws.u_c0 == c0:
        solve_tridiag(ufac[0], ufac[1, :n - 1], un, factored=True)
    else:
        ws.u_c0 = 0.0  # until the factor is complete
        np.multiply(m, c0, out=ufac[0])
        ufac[0] += ws.du
        np.copyto(ufac[1, :n - 1], ws.eu)
        solve_tridiag(ufac[0], ufac[1, :n - 1], un)
        ws.u_c0 = c0
    # inf > 0 holds, so an overflow needs its own test: one max over the
    # adjacent rows u, v of the new level
    uv = yn[1:]
    if not (np.minimum.reduce(un) > 0.0
            and np.maximum.reduce(uv, axis=None) < math.inf):  # NaN fails
        row, cell = divmod(int(np.argmax(~(uv > 0.0) | (uv == math.inf))), n)
        return ("u", "v")[row], cell
    return None


def _fill_sink_numpy(sink, uv, huv, extrapolate, beta, gamma, eps, scratch):
    # beta F(u*) + gamma v*, with u* = max(2 u - hu, 0) and v* = 2 v - hv
    # when extrapolating; uv = [u, v] and huv = [hu, hv] are (2, n) levels,
    # and (u*, gamma v*) are built as one stacked expression in the (2, n)
    # scratch, which the controller takes from the new level
    if extrapolate:
        np.multiply(uv, 2.0, out=scratch)
        scratch -= huv
        us, gv = scratch
        np.maximum(us, 0.0, out=us)
        gv *= gamma
    else:
        us, gv = uv[0], np.multiply(uv[1], gamma, out=scratch[1])
    np.multiply(f_eps(us, eps), beta, out=sink)
    sink += gv


def _cap_terms_numpy(w, sink, w_positive):
    # as the loop reference: smax starts at 0.0, and a max is exact in any
    # order; the bare ufunc reductions skip the Python wrappers of
    # ndarray.max, and |w[j] - w[j-1]| is the one temporary.  With
    # w_positive (every w >= w_snap > 0) the w > 0 mask is all true and is
    # skipped
    dw = np.subtract(w[1:], w[:-1])
    np.absolute(dw, out=dw)
    if w_positive:
        smax = np.maximum.reduce(sink, initial=0.0)
    else:
        smax = np.maximum.reduce(sink, where=w > 0.0, initial=0.0)
    return (float(np.maximum.reduce(dw)), float(smax),
            float(np.maximum.reduce(w)))

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
  with ``w > 0`` and ``max w``,
* :func:`attempt_step_numpy` — one step attempt; fills the workspace's
  ``un, vn, wn, nn`` and returns ``None``, or ``(field, cell)`` on a
  positivity failure.

A run that starts with ``w0 == 0`` (``w_tail < 0``) never takes the
tail of step 3 below: it steps the heat flow with SBDF2, which is what
the heat oracles of :mod:`nutaxis.verify` measure.

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
       stats.I_bracket; a u <= U_FLOOR raises PositivityViolation.  Where
       the bracket has no finite constant (beta = 0 or gamma = 0, or
       alpha = delta = 0) w_tail = 0, so the switch waits until every
       cell of w has snapped to 0,
    4. fit dt below the cap so the segment lands exactly on its end time;
       dt grows (by _GROWTH_FACTOR, up to the cap and the base dt) only
       after an accepted step.  The step is SBDF2 when the history was left
       by a step of this very dt (hdt == dt), else a backward-Euler rebuild,
       with the sink of (u, v) in place of the extrapolants,
    5. implicit w solve with frozen extrapolated sink, rejection if
       w < -w_snap, then snap-to-zero of entries below w_snap (W_SNAP_REL
       times the run's initial max w),
    6. exact multiplicative v update with trapezoidal w average,
    7. implicit-diffusion u solve with explicit upwind taxis + growth terms,
       rejection if u <= U_FLOOR,
    8. on rejection: drop the history (hdt = 0), halve dt and refit it, so
       the retry is a backward-Euler step; raise PositivityViolation instead
       once the halved dt would fall below the attempt's cap times
       2**-MAX_RETRIES, a floor that an accepted step does not reset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import f_eps
from .operators import taxis_flux

__all__ = [
    "AdvanceStats",
    "LinearSolveFailure",
    "PositivityViolation",
    "Workspace",
    "attempt_step_numpy",
    "grid_coefficients",
    "heat_evolve",
    "heat_modes",
    "heat_project",
    "segment_numpy",
    "solve_tridiag",
]

_GROWTH_FACTOR = 2.0  # dt may grow only when the caps allow at least 2x
U_FLOOR = 1e-14  # a step with some u+ <= U_FLOOR is rejected
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


def grid_coefficients(grid):
    """Per-grid coefficients ``(m, cl, cr, af, h)`` of the stepping kernel.

    Cell measures, the left and right face couplings of the implicit
    operators (see :func:`solve_tridiag`), face areas and the spacing.
    """
    n = grid.n
    af = grid.face_areas
    cl = np.zeros(n)
    cr = np.zeros(n)
    cl[1:] = af[1:-1] / (grid.h * grid.m[1:])
    cr[:-1] = af[1:-1] / (grid.h * grid.m[:-1])
    return grid.m, cl, cr, af, grid.h


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

    ``m, cl, cr, af, h`` are the :func:`grid_coefficients`.  ``hu, hv, hw``
    are the previous accepted level, ``hnu`` its explicit u-term and
    ``hdt > 0`` the step that left it; ``hdt == 0`` while there is no such
    level.  ``w_snap`` is the snap-to-zero floor of w, ``W_SNAP_REL`` times
    the max of ``w0``, and ``w_tail`` the max w at which the nutrient
    phase ends (:func:`_tail_level` of the entry ``state`` and ``params``).
    ``sink``, the new level ``un, vn, wn, nn`` and ``work`` (shape
    ``(5, n + 1)``) are scratch of each attempt.  ``tail`` is ``None``
    until the nutrient phase ends, then ``(t, modes, mean, coef)``: the
    switch time, the :func:`heat_modes` of ``D_u`` and the
    :func:`heat_project` of u at that time.  ``stats`` holds the run's
    :class:`AdvanceStats`.
    """

    def __init__(self, grid, state, params):
        n = grid.n
        self.m, self.cl, self.cr, self.af, self.h = grid_coefficients(grid)
        self.hu, self.hv, self.hw, self.hnu = np.zeros((4, n))
        self.hdt = 0.0
        self.w_snap = W_SNAP_REL * float(np.max(state.w, initial=0.0))
        self.w_tail = _tail_level(self.m, state, params)
        self.tail = None
        self.stats = AdvanceStats()
        self.sink, self.un, self.vn, self.wn, self.nn = np.empty((5, n))
        self.work = np.empty((5, n + 1))


# ---------------------------------------------------------------------------
# the segment controller
# ---------------------------------------------------------------------------

def segment_numpy(state, t_to, ws, params, cfg):
    """Advance ``state`` in place from ``state.t`` to ``t_to`` in ``ws``.

    ``params`` is the :class:`nutaxis.model.ModelParams` and ``cfg`` the
    :class:`nutaxis.stepper.StepperConfig` of the run.  Continues the
    two-step scheme from the history in ``ws``, leaves the last accepted
    step's history there and counts its steps in ``ws.stats``.  Once the
    run's nutrient phase has ended (step 3 of the module's algorithm), u at
    ``t_to`` is the exact heat flow of the switch state, and
    ``ws.stats.w_exhausted_t`` holds the switch time.

    Raises:
        PositivityViolation: a rejected step's halved dt would fall below
            its cap times 2**-MAX_RETRIES.
        LinearSolveFailure: a tridiagonal solve was singular (not retried).
        Either carries the failing step's start time and last dt; ``state``
        is left at that start, ``state.t`` included.
    """
    u, v, w, sink, stats = state.u, state.v, state.w, ws.sink, ws.stats
    beta, gamma, eps = params.beta, params.gamma, params.eps_reg
    chi, h, dt_base = params.chi, ws.h, cfg.dt
    rmax = max(params.delta, params.alpha)

    rem = t_to - state.t  # k * dt once dt is fitted
    k, dt = 0, math.inf  # k steps of dt remain; the first pass fits dt
    while rem > 0.0 and ws.tail is None:
        # ---- sink at the extrapolants of the next attempt, and the caps
        _fill_sink_numpy(sink, u, v, ws.hu, ws.hv, ws.hdt > 0.0, beta, gamma,
                         eps)
        dw, smax, wmax = _cap_terms_numpy(w, sink)
        if wmax <= ws.w_tail:
            # what nutrient is left can no longer move I(inf): w is dropped,
            # v frozen, and u follows the heat flow from here, exactly
            state.t = max(state.t, t_to - rem)
            _end_nutrient_phase(state, ws, params)
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

        # ---- fit dt so the remaining gap is an exact multiple of it; it
        # grows only after an accepted step
        if cap < dt:
            k, dt = _fit(rem, cap)
        elif (cap >= _GROWTH_FACTOR * dt and dt < dt_base and k > 1
              and ws.hdt > 0.0):
            k, dt = _fit(rem, min(_GROWTH_FACTOR * dt, cap))
        rem = k * dt
        sbdf2 = ws.hdt == dt  # a two-step history of this very dt
        if ws.hdt > 0.0 and not sbdf2:
            # the sink must match the scheme actually used
            _fill_sink_numpy(sink, u, v, ws.hu, ws.hv, False, beta, gamma, eps)

        try:
            failure = attempt_step_numpy(state, ws, sbdf2, dt, params)
        except np.linalg.LinAlgError as exc:
            state.t = max(state.t, t_to - rem)  # the failing step's start
            raise LinearSolveFailure(state.t, dt) from exc
        if failure is not None:
            # retry with backward Euler at half dt, fitted to the gap; the
            # caps do not depend on dt, so the next pass may only lower it
            stats.rejected += 1
            ws.hdt = 0.0
            if 0.5 * dt < cap * 2.0 ** -MAX_RETRIES:
                state.t = max(state.t, t_to - rem)
                raise PositivityViolation(*failure, state.t, dt)
            k, dt = _fit(rem, 0.5 * dt)
            rem = k * dt
            continue

        # ---- accept: the entry level becomes the history
        ws.hu[:] = u
        ws.hv[:] = v
        ws.hw[:] = w
        ws.hnu[:] = ws.nn
        u[:] = ws.un
        v[:] = ws.vn
        w[:] = ws.wn
        ws.hdt = dt
        if not sbdf2:
            stats.rebuilds += 1
        stats.accepted += 1
        stats.min_dt = min(stats.min_dt, dt)
        k -= 1
        rem = k * dt

    if ws.tail is not None:
        t_sw, modes, mean, coef = ws.tail
        heat_evolve(modes, mean, coef, t_to - t_sw, ws.un)
        if np.minimum.reduce(ws.un) <= U_FLOOR:
            raise PositivityViolation(
                "u", int(np.argmax(ws.un <= U_FLOOR)), state.t)
        u[:] = ws.un
    state.t = t_to


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


def _end_nutrient_phase(state, ws, params):
    # the I(inf) bracket of _tail_level from the state at the switch, then
    # w = 0 and the heat tail's coefficients of u
    u, v, w, m = state.u, state.v, state.w, ws.m
    modes = heat_modes(m, ws.cl, ws.cr, params.D_u)
    volume = modes[4]
    mass_u, mass_w = float(np.dot(m, u)), float(np.dot(m, w))
    ln_v = float(np.dot(m, np.log(v)))
    gain_v = gain_u = 0.0
    if mass_w > 0.0:  # then beta > 0 and gamma > 0
        gain_v = params.alpha * mass_w / (params.gamma * float(np.min(v)))
        gain_u = params.delta / params.beta * mass_w
    ws.stats.I_bracket = (ln_v - volume * math.log((mass_u + gain_u) / volume),
                          ln_v + gain_v - volume * math.log(mass_u / volume))
    ws.stats.w_exhausted_t = state.t
    w[:] = 0.0
    ws.hdt = 0.0
    ws.tail = (state.t, modes, *heat_project(modes, u))


def _fit(span, cap):
    # the fewest steps of at most cap (to 1e-12 relative) that land exactly
    # on the end of span, and their size
    k = max(int(math.ceil(span / cap - 1e-12)), 1)
    return k, span / k


# ---------------------------------------------------------------------------
# vectorized numpy/scipy primitives
# ---------------------------------------------------------------------------

_dgtsv = None  # scipy.linalg.lapack.dgtsv, looked up on the first solve


def solve_tridiag(cl, cr, diag, rhs, D, work=None):
    """Solve the tridiagonal system with rows ``-D*cl[i], diag[i], -D*cr[i]``.

    ``cl`` and ``cr`` are the face couplings from :func:`grid_coefficients`.
    Calls LAPACK ``dgtsv`` (elimination with partial pivoting) directly: it
    is the routine ``scipy.linalg.solve_banded`` reaches for a ``(1, 1)``
    band, so the solution is bitwise the same, without the band array and
    the input validation.  scipy is imported on the first call, not with
    the package.

    By default no argument is modified and the solution is a new array.
    With ``work`` (two float64 rows of at least ``n - 1`` entries) the
    solve runs in place and allocates nothing: the off-diagonals are built
    in ``work``, ``rhs`` is overwritten with the solution and returned, and
    ``diag`` and ``work`` are destroyed.

    Raises:
        np.linalg.LinAlgError: on an exactly zero pivot.
    """
    global _dgtsv
    if _dgtsv is None:  # deferred: importing scipy takes ~0.3 s
        from scipy.linalg.lapack import dgtsv as _dgtsv
    if work is None:
        dl, du, in_place = -D * cl[1:], -D * cr[:-1], 0
    else:
        n = rhs.shape[0]
        dl = np.multiply(cl[1:], -D, out=work[0, :n - 1])
        du = np.multiply(cr[:-1], -D, out=work[1, :n - 1])
        in_place = 1
    # positional flags (overwrite_dl, _d, _du, _b): f2py's keyword parsing
    # costs ~0.8 us per call
    *_, x, info = _dgtsv(dl, diag, du, rhs, 1, in_place, 1, in_place)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix: zero "
                                    f"pivot in row {info - 1}")
    if in_place and x is not rhs:  # f2py copied a non-contiguous rhs
        rhs[...] = x
        x = rhs
    return x


_dstemr = None  # scipy's dstemr and dstemr_lwork, looked up on first use
_modes_cache = None  # (key, modes) of the last heat_modes call


def heat_modes(m, cl, cr, D):
    """The eigenmodes of the discrete Neumann heat operator ``D * lap``.

    ``m, cl, cr`` are the cell measures and face couplings of
    :func:`grid_coefficients`.  The operator, with rows ``D*cl[i]``,
    ``-D*(cl[i] + cr[i])``, ``D*cr[i]``, is self-adjoint in the
    ``m``-weighted inner product, so ``S = M^(1/2) (D lap) M^(-1/2)`` is
    symmetric tridiagonal: its diagonal is ``-D (cl + cr)`` and its
    off-diagonal ``D cr[:-1] sqrt(m[:-1] / m[1:])``, on interval and radial
    grids alike.  LAPACK ``dstemr`` (called directly, after its workspace
    query) gives its eigenvalues ``lam`` in ascending order and orthonormal
    eigenvectors, the columns of ``q``.  The top eigenvalue, that of the
    constant mode, is 0; the computed one is ~-1e-9 at n = 400 and is
    pinned to 0.

    Returns ``(lam, q, s, m, volume)``, with ``s = sqrt(m)`` and ``volume =
    sum(m)``, for :func:`heat_project` and :func:`heat_evolve`.  The
    arrays are read-only: the last
    result is cached on ``(m, cl, cr, D)``, so the runs of a sweep on one
    grid and ``D`` share one set of modes.

    Raises:
        np.linalg.LinAlgError: if ``dstemr`` fails.
    """
    global _dstemr, _modes_cache
    key = (m.tobytes(), cl.tobytes(), cr.tobytes(), float(D))
    if _modes_cache is not None and _modes_cache[0] == key:
        return _modes_cache[1]
    if _dstemr is None:  # deferred: importing scipy takes ~0.3 s
        from scipy.linalg import lapack
        _dstemr = lapack.dstemr, lapack.dstemr_lwork
    stemr, stemr_lwork = _dstemr
    diag = -D * (cl + cr)
    off = np.zeros_like(diag)  # dstemr takes n entries and overwrites them
    off[:-1] = D * cr[:-1] * np.sqrt(m[:-1] / m[1:])
    # range 0 ("A"): every eigenpair; vl, vu, il, iu are then unused
    lwork, liwork, info = stemr_lwork(diag, off, 0, 0.0, 0.0, 0, 0)
    if info == 0:
        _, lam, q, info = stemr(diag, off, 0, 0.0, 0.0, 0, 0, 1,
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
    to 0), so a late time costs only the slow modes.  The mean is carried
    apart from the modes, so the mass ``m . out`` is that of the projected
    u to roundoff for every ``tau``.  ``out`` is returned.
    """
    lam, q, s, _, _ = modes
    c = np.exp(tau * lam)
    j0 = int(np.argmax(c > 0.0))  # lam[-1] == 0, so c[-1] == 1
    c *= coef
    np.dot(q[:, j0:], c[j0:], out=out)
    out /= s
    out += mean
    return out


def attempt_step_numpy(state, ws, sbdf2, dt, params):
    """One step attempt of ``dt`` from ``state`` in ``ws`` (no retries).

    Fills ``ws.un, ws.vn, ws.wn, ws.nn`` and returns ``None``, or
    ``(field, cell)`` when ``w+ < -w_snap`` or ``u+ <= U_FLOOR`` at
    ``cell``; ``nn`` is the explicit u-term at the entry level (the history
    of the next two-step stage).  Of the rest of ``ws`` only ``work`` is
    written: row 0 holds each solve's diagonal, row 1 ``cl + cr``, rows 2
    and 3 each solve's off-diagonals (row 2 first holds a product term or
    the taxis flux difference), row 4 the n + 1 taxis face fluxes.  Each
    right-hand side is built in ``wn`` or ``un``, where LAPACK ``dgtsv``
    (:func:`solve_tridiag`) solves in place.  Nothing is read from
    ``work`` before it is written.  Each expression is evaluated in place
    with the operations of its plain numpy form, so every value rounds as
    that form does.  With ``eps == 0`` no float array is allocated, only
    the n-byte masks of the upwind choice and, when some ``w+`` is
    snapped, of the snap.

    Raises:
        np.linalg.LinAlgError: from a singular tridiagonal solve.
    """
    u, v, w = state.u, state.v, state.w
    un, vn, wn, nn, work = ws.un, ws.vn, ws.wn, ws.nn, ws.work
    cl, cr, w_snap = ws.cl, ws.cr, ws.w_snap
    D_u, D_w, eps = params.D_u, params.D_w, params.eps_reg
    n = u.shape[0]
    diag, csum, tmp = work[0, :n], work[1, :n], work[2, :n]
    # ---- implicit w solve:  (c0 + sink) w+ - D_w lap w+ = rhs
    if sbdf2:
        c0 = 3.0 / (2.0 * dt)
        np.multiply(w, 4.0, out=wn)  # (4 w - hw) / (2 dt)
        wn -= ws.hw
        wn /= 2.0 * dt
    else:
        c0 = 1.0 / dt
        np.multiply(w, c0, out=wn)
    np.add(cl, cr, out=csum)
    np.multiply(csum, D_w, out=tmp)  # (c0 + sink) + D_w (cl + cr)
    np.add(ws.sink, c0, out=diag)
    diag += tmp
    solve_tridiag(cl, cr, diag, wn, D_w, work[2:4])
    wn_min = np.minimum.reduce(wn)
    if wn_min < -w_snap:
        return "w", int(np.argmax(wn < -w_snap))
    if not wn_min >= w_snap:  # snap to zero (a NaN minimum snaps too)
        np.copyto(wn, 0.0, where=wn < w_snap)

    # ---- exact multiplicative v update: v exp(alpha dt/2 (w + w+))
    np.add(w, wn, out=vn)
    vn *= params.alpha * dt * 0.5
    np.exp(vn, out=vn)
    vn *= v

    # ---- explicit u-term: -(flux difference)/m + delta F(u) w
    gflux = taxis_flux(u, w, ws.af, ws.h, params.chi, eps, out=work[4])
    np.subtract(gflux[1:], gflux[:-1], out=tmp)
    np.negative(tmp, out=tmp)
    tmp /= ws.m
    np.multiply(f_eps(u, eps), params.delta, out=nn)
    nn *= w
    nn += tmp

    # ---- implicit-diffusion u solve
    if sbdf2:
        np.multiply(u, 4.0, out=un)  # (4 u - hu) / (2 dt) + 2 nn - hnu
        un -= ws.hu
        un /= 2.0 * dt
        np.multiply(nn, 2.0, out=tmp)
        un += tmp
        un -= ws.hnu
    else:
        np.multiply(u, c0, out=un)
        un += nn
    np.multiply(csum, D_u, out=diag)  # c0 + D_u (cl + cr)
    diag += c0
    solve_tridiag(cl, cr, diag, un, D_u, work[2:4])
    if np.minimum.reduce(un) <= U_FLOOR:
        return "u", int(np.argmax(un <= U_FLOOR))
    return None


def _fill_sink_numpy(sink, u, v, hu, hv, extrapolate, beta, gamma, eps):
    # beta F(u*) + gamma v*, with u* = max(2 u - hu, 0) and v* = 2 v - hv
    # when extrapolating; u* is built in sink, gamma v* in the one temporary
    # (this primitive's signature, shared with the loop reference of the
    # tests, carries no scratch buffer)
    if extrapolate:
        us = np.multiply(u, 2.0, out=sink)
        us -= hu
        np.maximum(us, 0.0, out=us)
        gv = np.multiply(v, 2.0)
        gv -= hv
        gv *= gamma
    else:
        us = u
        gv = np.multiply(v, gamma)
    np.multiply(f_eps(us, eps), beta, out=sink)
    sink += gv


def _cap_terms_numpy(w, sink):
    # as the loop reference: smax starts at 0.0, and a max is exact in any
    # order; the bare ufunc reductions skip the Python wrappers of
    # ndarray.max, and |w[j] - w[j-1]| is the one temporary
    dw = np.subtract(w[1:], w[:-1])
    np.absolute(dw, out=dw)
    return (float(np.maximum.reduce(dw)),
            float(np.maximum.reduce(sink, where=w > 0.0, initial=0.0)),
            float(np.maximum.reduce(w)))

"""Scalar functionals evaluated on states, and the trajectory audits.

Everything here is read-only: a record is assembled from a `State` plus the
grid, the model parameters, and a small set of constants derived from the
initial data.  `evaluate_records` is the one place the record's functionals
(the competition index, quasi-energy, dissipation and Lyapunov value) are
written.  It takes a block of k states as ``(k, n)`` arrays, so each numpy
call of a record is paid once per block, and returns the k records; each
weighted sum is one BLAS ddot per row, so a record is bitwise the same in
any block.  `run_scenario` evaluates `experiments.RECORD_BLOCK` output
states at a time, so a NonpositiveField is raised when the block is
evaluated: stepping may run up to RECORD_BLOCK - 1 output times past the
offending one first.

`audit_trajectory` holds the run's six audits: the discrete analogues, at
output resolution, of the a-priori bounds of the continuous system.  Each
is one manifest entry {"ok", "margin", ...} whose margin is the least slack
of its bound over the recorded times, and ``ok`` is ``margin >= 0`` by
construction.  With w0, v0 the initial data and t_0 = 0 the first record:

* ``mass_bound``: int u <= (int u0 + (delta/beta)*int w0)*(1 + 1e-8)
  (infinite when beta = 0); extra key ``bound``;
* ``sup_decay``: max w <= sigma_star*exp(-kappa*t)*(1 + 1e-6);
* ``v_bounds``: min v0 <= v <= max v0*exp((alpha/kappa)*sigma_star)*(1 + 1e-6)
  over every cell of every recorded state, the exponent capped at 700 and
  the upper bound infinite when kappa = 0; extra keys ``observed_min``,
  ``observed_max``, ``lower``, ``upper``;
* ``lyapunov_monotone``: L(t_k) - L(t_{k-1})
  <= 1e-3*(t_k - t_{k-1})*(1 + |L(t_{k-1})|); vacuous (margin infinite)
  with one record, or when kappa = 0 makes a and so every L infinite;
* ``integrated_inequality``: I(t) + (D_u/2)*int_0^t int |grad u|^2/u^2
  + (1/4)*int_0^t int w <= I(0) + a*int w0 + b*int w0^2;
* ``grad_w_budget``: int_0^t int |grad w|^2 <= (1/2)*int w0^2.

u or v not > 0 and w not >= 0, NaN included, raise NonpositiveField
naming the first failing cell (`profiles.require_positive`), so every
logarithm is of a positive field and takes no floor.  Cumulative
quantities, in records and audits, use one trapezoid rule (`_cumtrapz`) on
the output schedule, not on every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .grid import Grid
from .model import ModelParams
from .operators import face_energy, face_gradient, integrate, laplacian_neumann
from .profiles import (NonpositiveField, State, require_nonnegative,
                       require_positive)

__all__ = [
    "NonpositiveField",
    "DiagnosticsRecord",
    "DerivedConstants",
    "JensenReport",
    "competition_index",
    "derived_constants",
    "evaluate_records",
    "record_fields",
    "audit_trajectory",
    "integrated_inequality_audit",
    "jensen_gap",
    "long_time_index",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One output-time row of the trajectory time series.

    ``fisher_u`` is int |grad u|^2 / u^2, ``grad_w_L2`` is int |grad w|^2,
    ``cum_D`` and ``cum_w`` are running trapezoid integrals of ``D_dissip``
    and ``mass_w`` over the output times seen so far.
    """

    t: float
    I: float
    mass_u: float
    mass_w: float
    max_w: float
    min_u: float
    F_quasi: float
    D_dissip: float
    L_lyap: float
    fisher_u: float
    grad_w_L2: float
    max_grad_u: float
    cum_D: float
    cum_w: float


def record_fields() -> list[str]:
    """Column names of the record series, in serialization order."""
    return [f.name for f in fields(DiagnosticsRecord)]


@dataclass(frozen=True)
class DerivedConstants:
    """Constants computed once from the initial data.

    kappa = gamma * min v0 (cell minimum) is the guaranteed exponential decay
    rate of max w; a and b are the Lyapunov weights; M_star and sigma_star
    are int |grad w0|^2/w0 and max w0; jensen_c1 is the logarithmic Jensen
    gap of u0 (NaN when u0 was not supplied).
    """

    kappa: float
    a: float
    b: float
    M_star: float
    sigma_star: float
    jensen_c1: float


def _index(ln_u: np.ndarray, ln_v: np.ndarray, grid: Grid) -> float | np.ndarray:
    """I = int ln(v/u) from the logs, one per row when stacked."""
    return integrate(ln_v - ln_u, grid)


def competition_index(state: State, grid: Grid) -> float:
    """I(t) = integral of ln(v/u); negative means u leads in log average."""
    require_positive("u", state.u)
    require_positive("v", state.v)
    return _index(np.log(state.u), np.log(state.v), grid)


def long_time_index(state: State, grid: Grid) -> float:
    """I(inf) = int ln v - |Omega| ln(ubar), with ubar = int u / |Omega|.

    Once w is 0, v is frozen and u tends to its conserved mean ubar under
    the heat flow, so I(t) decreases to this value (Jensen).
    """
    require_positive("u", state.u)
    require_positive("v", state.v)
    mean = float(integrate(state.u, grid)) / grid.volume
    return float(integrate(np.log(state.v), grid)) - grid.volume * math.log(mean)


@dataclass(frozen=True)
class JensenReport:
    """c1 = ln(mean phi) - mean(ln phi) >= 0; strict iff phi is nonconstant."""

    c1: float
    strict: bool


def jensen_gap(phi: np.ndarray, grid: Grid) -> JensenReport:
    """Logarithmic Jensen gap of a positive cell field (volume-weighted)."""
    phi = np.asarray(phi, dtype=np.float64)
    require_positive("phi", phi)
    vol = grid.volume
    mean = float(integrate(phi, grid) / vol)
    mean_ln = float(integrate(np.log(phi), grid) / vol)
    c1 = math.log(mean) - mean_ln
    return JensenReport(c1=c1, strict=bool(c1 > 1e-12))


def derived_constants(v0: np.ndarray, w0: np.ndarray, params: ModelParams,
                      grid: Grid, u0: Optional[np.ndarray] = None) -> DerivedConstants:
    """Constants of the initial data (see class docstring).

    v0 must be positive and w0 nonnegative.  M_star uses the floored face
    energy, so a vanishing w0 simply contributes zero.
    """
    require_positive("v0", v0)
    require_nonnegative("w0", w0)
    kappa = params.gamma * float(v0.min())
    a = (params.alpha + 0.25) / kappa if kappa > 0.0 else np.inf
    b = params.chi ** 2 / (4.0 * params.D_u)
    grad_w0 = np.diff(w0) / grid.h
    m_star = face_energy(grad_w0 * grad_w0, w0, grid)
    sigma_star = float(w0.max()) if w0.size else 0.0
    if u0 is None:
        c1 = float("nan")
    else:
        require_positive("u0", u0)
        c1 = jensen_gap(u0, grid).c1
    return DerivedConstants(kappa=kappa, a=a, b=b, M_star=float(m_star),
                            sigma_star=sigma_star, jensen_c1=c1)


def evaluate_records(ts: Sequence[float], U: np.ndarray, V: np.ndarray,
                     W: np.ndarray, consts: DerivedConstants,
                     params: ModelParams, grid: Grid,
                     prev: Optional[DiagnosticsRecord] = None
                     ) -> list[DiagnosticsRecord]:
    """The records of a block of k states, chaining cum fields off ``prev``.

    Row j of the ``(k, n)`` arrays ``U``, ``V``, ``W`` is the state at
    ``ts[j]``; record j chains off record j - 1, record 0 off ``prev``.
    u and v must be positive and w nonnegative; the first row that is not
    raises NonpositiveField with the message a one-row call would give.
    With face gradients grad f = diff(f)/h and face weights floored at 1e-12:

    * I = int ln(v/u) (see `competition_index`);
    * F = beta*int u ln u + (gamma*chi/2alpha)*int |grad v|^2/v
      + (chi/2)*int |grad w|^2/w, the quasi-energy (every F infinite when
      alpha = 0 < gamma*chi);
    * D = int |grad u|^2/u + int |lap w|^2 + int |grad w|^4, its dissipation
      partner (>= 0);
    * L = I + a*int w + b*int w^2, the Lyapunov value (nonincreasing along
      trajectories), with a = (alpha + 1/4)/kappa, b = chi^2/(4 D_u),
      kappa = gamma*min v0 (every L infinite when kappa = 0);
    * fisher_u = int |grad u|^2/u^2, grad_w_L2 = int |grad w|^2 and
      max_grad_u = max |grad u|;
    * cum_D and cum_w, the running trapezoid integrals (`_cumtrapz`) of D
      and int w, carried on from ``prev`` (from 0 at ``ts[0]`` without it).

    The weight floor keeps snapped-to-zero nutrient harmless in F.  Each
    weighted sum is one ddot per row, so a record does not depend on the
    block it was evaluated in.
    """
    min_u = U.min(axis=1)
    good = (min_u > 0.0) & (V.min(axis=1) > 0.0) & (W.min(axis=1) >= 0.0)
    if not good.all():
        row = int(good.argmin())  # the first row that fails
        require_positive("u", U[row])
        require_positive("v", V[row])
        require_nonnegative("w", W[row])
    # the columns are taken one after another, and each (k, n) temporary is
    # reused or dropped once it is spent: at k = 16, n = 401 this halves
    # the block's peak allocation, to ~0.26 MB.  An infinite weight
    # (alpha = 0 in F, kappa = 0 in L) makes its whole column infinite
    ln_u = np.log(U)
    i_val = _index(ln_u, np.log(V), grid)
    ln_u *= U
    f_val = params.beta * integrate(ln_u, grid)
    del ln_u
    gc = params.gamma * params.chi
    if gc > 0.0 and params.alpha == 0.0:
        f_val = np.full(len(ts), np.inf)
    elif gc > 0.0:
        grad_v = np.diff(V) / grid.h
        grad_v *= grad_v
        f_val += gc / (2.0 * params.alpha) * face_energy(grad_v, V, grid)
        del grad_v
    grad_u = np.diff(U) / grid.h
    max_grad_u = np.abs(grad_u).max(axis=1, initial=0.0)
    grad_u *= grad_u
    d_val = face_energy(grad_u, U, grid)
    # the 1e-100 weight floor keeps near-vacuum u cells from zero-division
    # while staying far below any physically reachable u^2
    fisher = face_energy(grad_u, U * U, grid, g_floor=1e-100)
    del grad_u
    face_w = face_gradient(W, grid)
    lap_w = laplacian_neumann(W, grid, grad=face_w)
    lap_w *= lap_w
    d_val += integrate(lap_w, grid)
    del lap_w
    sq_w = face_w[:, 1:-1] * face_w[:, 1:-1]
    del face_w
    if params.chi > 0.0:
        f_val += 0.5 * params.chi * face_energy(sq_w, W, grid)
    grad_w_l2 = face_energy(sq_w, None, grid)
    sq_w *= sq_w
    d_val += face_energy(sq_w, None, grid)
    del sq_w
    mass_w = integrate(W, grid)
    if np.isfinite(consts.a):
        l_val = i_val + consts.a * mass_w + consts.b * integrate(W * W, grid)
    else:
        l_val = np.full(len(ts), np.inf)
    t, ends, start = ts, np.stack([d_val, mass_w]), 0.0
    if prev is not None:  # carry on from prev, as from one more output time
        t = (prev.t, *ts)
        ends = np.column_stack([(prev.D_dissip, prev.mass_w), ends])
        start = (prev.cum_D, prev.cum_w)
    cum = _cumtrapz(t, ends, start)[:, -len(ts):]
    columns = np.stack([
        ts, i_val, integrate(U, grid), mass_w, W.max(axis=1), min_u, f_val,
        d_val, l_val, fisher, grad_w_l2, max_grad_u, *cum])
    return [DiagnosticsRecord(*row) for row in columns.T.tolist()]


def _verdict(margin: float, **extra) -> dict:
    """One audit entry; ``ok`` is ``margin >= 0`` by construction."""
    return {"ok": bool(margin >= 0.0), "margin": float(margin), **extra}


def _series(records: Sequence[DiagnosticsRecord],
            *names: str) -> list[np.ndarray]:
    """The named record fields over the series, one array per name."""
    return [np.fromiter(map(attrgetter(n), records), float, len(records))
            for n in names]


def _cumtrapz(t: np.ndarray, y: np.ndarray, start=0.0) -> np.ndarray:
    """Running trapezoid integrals of y over t (last axis) from ``start``."""
    steps = np.empty_like(y)
    steps[..., 0] = start
    steps[..., 1:] = 0.5 * np.diff(t) * (y[..., 1:] + y[..., :-1])
    return np.cumsum(steps, axis=-1, out=steps)


def integrated_inequality_audit(records: Sequence[DiagnosticsRecord],
                                consts: DerivedConstants, D_u: float,
                                mass_w0_sq: float) -> dict:
    """The ``integrated_inequality`` and ``grad_w_budget`` audit entries.

    Both are stated in the module docstring; the margin is the least slack
    over the recorded times.  The inequality is anchored at the first
    record (normally t = 0).  ``mass_w0_sq`` is int w0^2, which is not part
    of the record series and must be supplied by the caller.

    Raises:
        ValueError: on an empty series.
    """
    if not records:
        raise ValueError("need at least one record")
    t, i_series, fisher, cum_w, grad_w = _series(
        records, "t", "I", "fisher_u", "cum_w", "grad_w_L2")
    rhs = records[0].I + consts.a * records[0].mass_w + consts.b * mass_w0_sq
    lhs = i_series + 0.5 * D_u * _cumtrapz(t, fisher) + 0.25 * cum_w
    grad_slack = 0.5 * mass_w0_sq - _cumtrapz(t, grad_w)
    return {"integrated_inequality": _verdict((rhs - lhs).min()),
            "grad_w_budget": _verdict(grad_slack.min())}


def audit_trajectory(records: Sequence[DiagnosticsRecord],
                     consts: DerivedConstants, params: ModelParams,
                     mass_w0_sq: float, v0_range: tuple[float, float],
                     v_range: tuple[float, float]) -> dict:
    """The six audit entries of a run, keyed as in the module docstring.

    ``v0_range`` is (min v0, max v0) and ``v_range`` the least and largest
    v over every cell of every recorded state.

    Raises:
        ValueError: on an empty series.
    """
    integrated = integrated_inequality_audit(records, consts, params.D_u,
                                             mass_w0_sq)
    t, mass_u, max_w, lyap = _series(records, "t", "mass_u", "max_w", "L_lyap")

    if params.beta > 0.0:
        bound = records[0].mass_u + (params.delta / params.beta) * records[0].mass_w
    else:
        bound = np.inf
    decay = consts.sigma_star * np.exp(-consts.kappa * t) * (1.0 + 1e-6) - max_w

    lower, v0_max = v0_range
    if consts.kappa > 0.0:
        exponent = params.alpha / consts.kappa * consts.sigma_star
        upper = v0_max * float(np.exp(min(exponent, 700.0)))
    else:
        upper = np.inf
    v_min, v_max = v_range

    # with kappa = 0 the weight a and so every L are infinite: vacuous
    worst = -np.inf
    if len(lyap) > 1 and np.isfinite(consts.a):
        tol = 1e-3 * np.diff(t) * (1.0 + np.abs(lyap[:-1]))
        worst = float((lyap[1:] - lyap[:-1] - tol).max())

    return {
        "mass_bound": _verdict((bound * (1.0 + 1e-8) - mass_u).min(),
                               bound=float(bound)),
        "sup_decay": _verdict(decay.min()),
        "v_bounds": _verdict(min(v_min - lower, upper * (1.0 + 1e-6) - v_max),
                             observed_min=v_min, observed_max=v_max,
                             lower=lower, upper=float(upper)),
        "lyapunov_monotone": _verdict(-worst),
        **integrated,
    }

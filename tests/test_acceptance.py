"""Acceptance gate: one test per shipped guarantee, one [PASS]/[FAIL] line
each (run with ``pytest tests/test_acceptance.py -s`` to see the lines)."""
import itertools
import math

import numpy as np

from nutaxis import (
    Gaussian,
    Interval,
    ModelParams,
    OdeState,
    build_grid,
    conserved_quantity,
    heat_solve,
    integrate,
    integrated_inequality_audit,
    jensen_gap,
    ode_end_state,
    ode_state,
    sample,
    sign_law_check,
    stabilization_constants,
)


def _gate(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _final_I(preset_runs, name, variant):
    return preset_runs[(name, variant)].records[-1].I


def test_01_mass_bound(preset_runs):
    worst = -math.inf
    for res in preset_runs.values():
        r0 = res.records[0]
        bound = r0.mass_u + r0.mass_w / res.manifest.scenario.params.beta
        peak = max(r.mass_u for r in res.records)
        worst = max(worst, (peak - bound * (1.0 + 1e-8)) / bound)
    _gate("C01 total u-mass stays under the nutrient-augmented bound",
          worst <= 0.0, f"worst relative excess {worst:.3e} over 8 runs")


def test_02_nutrient_sup_decay(preset_runs):
    worst = -math.inf
    for res in preset_runs.values():
        c = res.manifest.constants
        for r in res.records:
            bound = c.sigma_star * math.exp(-c.kappa * r.t) * (1.0 + 1e-6)
            worst = max(worst, r.max_w - bound)
    _gate("C02 max w under sigma*·exp(-kappa·t)",
          worst <= 0.0, f"worst absolute excess {worst:.3e}")


def test_03_v_confinement(preset_runs):
    ok = True
    details = []
    for (name, variant), res in preset_runs.items():
        cfg = res.manifest.scenario
        c = res.manifest.constants
        v0 = sample(cfg.v0, build_grid(cfg.geometry))
        lower = float(v0.min())
        upper = float(v0.max()) * math.exp(min(cfg.params.alpha / c.kappa
                                               * c.sigma_star, 700.0))
        audit = res.manifest.audits["v_bounds"]
        run_ok = (audit["ok"]
                  and audit["observed_min"] >= lower * (1.0 - 1e-12)
                  and audit["observed_max"] <= upper * (1.0 + 1e-6))
        ok = ok and run_ok
        if not run_ok:
            details.append(f"{name}/{variant}: {audit}")
    _gate("C03 v trapped between min v0 and the exponential envelope",
          ok, "; ".join(details) or "all 8 runs inside the envelope")


def test_04_lyapunov_and_integrated_inequality(preset_runs):
    min_slack = math.inf
    min_grad_slack = math.inf
    monotone = True
    for res in preset_runs.values():
        recs = res.records
        for prev, cur in zip(recs, recs[1:]):
            tol = 1e-3 * (cur.t - prev.t) * (1.0 + abs(prev.L_lyap))
            monotone = monotone and cur.L_lyap <= prev.L_lyap + tol
        cfg = res.manifest.scenario
        grid = build_grid(cfg.geometry)
        w0 = sample(cfg.w0, grid)
        audits = integrated_inequality_audit(recs, res.manifest.constants,
                                             cfg.params.D_u,
                                             float(integrate(w0 * w0, grid)))
        min_slack = min(min_slack, audits["integrated_inequality"]["margin"])
        min_grad_slack = min(min_grad_slack,
                             audits["grad_w_budget"]["margin"])
    ok = monotone and min_slack >= 0.0 and min_grad_slack >= 0.0
    _gate("C04 Lyapunov decay, integrated inequality, gradient budget",
          ok, f"monotone={monotone}, min slack {min_slack:.3e}, "
              f"min gradient budget {min_grad_slack:.3e}")


def test_05_initial_gradient_constants(preset_runs):
    targets = {"l=1.4": 170.0, "l=14": 10.0, "l=20": 0.0}
    ok = True
    seen = {}
    for variant, target in targets.items():
        c = preset_runs[("fig1_right", variant)].manifest.constants
        seen[variant] = c.M_star
        ok = ok and c.sigma_star == 20.0
        if target == 0.0:
            ok = ok and c.M_star == 0.0
        else:
            ok = ok and abs(c.M_star - target) <= 0.1 * target
    _gate("C05 M* near {170, 10, 0} (10%), sigma* = 20 exactly",
          ok, ", ".join(f"{k}: {v:.4f}" for k, v in seen.items()))


def test_06_sign_split_in_sigma(preset_runs):
    cfg = preset_runs[("fig1_left", "sigma=60")].manifest.scenario
    assert cfg.t_end == 1000.0 and cfg.geometry.n_cells == 400
    i_low = _final_I(preset_runs, "fig1_left", "sigma=60")
    i_high = _final_I(preset_runs, "fig1_left", "sigma=240")
    _gate("C06 final index negative at sigma=60, positive at sigma=240",
          i_low < 0.0 < i_high, f"I = {i_low:.4f} / {i_high:.4f}")


def test_07_index_increasing_in_l(preset_runs):
    i = [_final_I(preset_runs, "fig1_right", v)
         for v in ("l=1.4", "l=14", "l=20")]
    _gate("C07 final index strictly increasing in the flatness parameter",
          i[0] < i[1] < i[2], f"I = {i[0]:.4f} < {i[1]:.4f} < {i[2]:.4f}")


def test_08_dimension_comparison(preset_runs):
    r1 = preset_runs[("fig3", "d=1")]
    r3 = preset_runs[("fig3", "d=3")]
    i1, i3 = r1.records[-1].I, r3.records[-1].I
    peak1 = max(r.max_grad_u for r in r1.records)
    peak3 = max(r.max_grad_u for r in r3.records)
    _gate("C08 d=3 beats d=1 in index and in peak aggregation slope",
          i3 < i1 < 0.0 and peak3 > peak1,
          f"I: {i3:.3f} < {i1:.3f} < 0; max|du/dr|: {peak3:.2f} > {peak1:.2f}")


def test_09_ode_sign_law_grid():
    values = (0.5, 1.0, 1.5, 2.0, 3.0)
    w0s = (0.1, 1.0, 10.0)
    cases = 0
    for delta, alpha, w0 in itertools.product(values, values, w0s):
        params = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=alpha,
                             beta=1.0, gamma=1.0, delta=delta)
        sign = sign_law_check(1.0, 1.0, w0, params)
        assert sign == (delta > alpha) - (delta < alpha)
        cases += 1

    worst = 0.0
    for delta, alpha, w0 in itertools.product(values, values, w0s):
        params = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=alpha,
                             beta=1.0, gamma=1.0, delta=delta)
        s0 = OdeState(0.0, 1.0, 1.0, w0)
        q0 = conserved_quantity(s0, params)
        # exposure samples over [0, tau_inf], then the end state
        end = ode_end_state(s0, params)
        traj = [ode_state(s0, params, end.tau * k / 1000)
                for k in range(1001)] + [end]
        drift = max(abs(conserved_quantity(s, params) - q0) for s in traj)
        worst = max(worst, drift / abs(q0))
    _gate("C09 winner sign equals sgn(delta - alpha); invariant preserved",
          worst <= 1e-8,
          f"{cases} sign cases ok, worst relative drift {worst:.3e}")


def test_10_heat_gap_constants():
    grid = build_grid(Interval(400))
    field = sample(Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.5), grid)
    c1 = jensen_gap(field, grid).c1
    vol = grid.volume
    L, t0 = stabilization_constants(field, 1.0, grid)
    traj = heat_solve(field, 1.0, grid, t_end=1.0)
    gain = traj.int_ln_u - traj.int_ln_u[0]
    held = bool(np.all(gain[traj.times >= t0] >= L - 1e-12))
    ok = (abs(c1 - 0.462) <= 1e-3
          and abs(gain[-1] - c1 * vol) <= 1e-3
          and 0.0 < t0 < 1.0
          and held)
    _gate("C10 log-mass gain approaches c1·|Omega| and holds half of it",
          ok, f"c1 = {c1:.6f}, final gain {gain[-1]:.6f}, "
              f"t0 = {t0:.4f}, held beyond t0 = {held}")


def test_11_convergence_and_regularization(verify_checks):
    names = ("heat_spatial_order", "heat_temporal_order_sbdf2",
             "transport_spatial_order", "regularization_monotone")
    _gate("C11 second-order convergence; regularization error shrinks with eps",
          all(verify_checks[n].ok for n in names),
          "; ".join(f"{n} {verify_checks[n].detail}" for n in names))


def test_extra_dissipation_integral_tapers(preset_runs):
    # Past the active phase, the dissipation integral grows by <20% per
    # doubling of the horizon.
    recs = preset_runs[("fig1_left", "sigma=60")].records
    checked = 0
    for r in recs:
        if r.t < 100.0:
            continue
        later = [s for s in recs if s.t >= 2.0 * r.t]
        if not later:
            break
        assert later[0].cum_D - r.cum_D <= 0.2 * r.cum_D
        checked += 1
    assert checked > 0


def test_extra_runtime_budget(preset_runs):
    for res in preset_runs.values():
        assert res.manifest.stats["accepted"] <= 10_000_000
        assert res.manifest.wall_time > 0.0

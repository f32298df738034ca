import dataclasses

import numpy as np
import pytest

from nutaxis import (
    Geometry,
    ModelParams,
    NonpositiveField,
    State,
    build_grid,
    competition_index,
    derived_constants,
    evaluate_record,
    integrated_inequality_audit,
    record_fields,
)

PARAMS = ModelParams(D_u=20.0, D_w=1.0, chi=0.5, alpha=2.0, beta=200.0,
                     gamma=200.0, delta=1.0)


@pytest.fixture
def grid():
    return build_grid(Geometry("interval", 40))


def _state(grid, u, v, w):
    n = grid.n
    return State(0.0, np.full(n, float(u)) if np.isscalar(u) else u,
                 np.full(n, float(v)) if np.isscalar(v) else v,
                 np.full(n, float(w)) if np.isscalar(w) else w)


def _record(state, grid, params=PARAMS):
    consts = derived_constants(np.ones(grid.n), np.ones(grid.n), params, grid)
    return evaluate_record(state, consts, params, grid)


def test_competition_index_antisymmetry(grid):
    rng = np.random.default_rng(3)
    u = 0.1 + rng.random(grid.n)
    v = 0.1 + rng.random(grid.n)
    w = np.zeros(grid.n)
    forward = competition_index(_state(grid, u, v, w), grid)
    backward = competition_index(_state(grid, v, u, w), grid)
    assert forward == -backward


def test_competition_index_rescaling_invariance(grid):
    rng = np.random.default_rng(4)
    u = 0.5 + rng.random(grid.n)
    v = 0.5 + rng.random(grid.n)
    base = competition_index(_state(grid, u, v, np.zeros(grid.n)), grid)
    scaled = competition_index(_state(grid, 7.0 * u, 7.0 * v, np.zeros(grid.n)), grid)
    assert scaled == pytest.approx(base, abs=1e-12)


def test_competition_index_log_ratio_value(grid):
    # u = e * v pointwise on the unit interval: I = -|Omega| = -1
    st = _state(grid, np.e, 1.0, 0.0)
    assert competition_index(st, grid) == pytest.approx(-1.0, rel=1e-14)


def test_competition_index_rejects_nonpositive(grid):
    bad = np.ones(grid.n)
    bad[3] = 0.0
    with pytest.raises(NonpositiveField):
        competition_index(_state(grid, bad, 1.0, 0.0), grid)
    with pytest.raises(NonpositiveField):
        competition_index(_state(grid, 1.0, -1.0, 0.0), grid)


def test_quasi_energy_constant_fields(grid):
    # gradients vanish, so F reduces to beta * int u ln u = beta * e
    st = _state(grid, np.e, 1.0, 2.0)
    assert _record(st, grid).F_quasi == pytest.approx(
        PARAMS.beta * np.e, rel=1e-13)


def test_quasi_energy_accepts_snapped_nutrient(grid):
    st = _state(grid, 1.0, 1.0, 0.0)
    assert np.isfinite(_record(st, grid).F_quasi)
    st.w[5] = -1e-9
    with pytest.raises(NonpositiveField):
        _record(st, grid)


def test_dissipation_nonnegative_and_zero_on_constants(grid):
    assert _record(_state(grid, 2.0, 1.0, 3.0), grid).D_dissip == 0.0
    rng = np.random.default_rng(5)
    worst = min(
        _record(_state(grid, 0.05 + rng.random(grid.n), 1.0,
                       rng.random(grid.n)), grid).D_dissip
        for _ in range(200))
    assert worst >= 0.0


def test_lyapunov_constant_state_value(grid):
    v0 = np.ones(grid.n)
    w0 = np.full(grid.n, 3.0)
    consts = derived_constants(v0, w0, PARAMS, grid)
    st = _state(grid, 1.0, 1.0, 3.0)
    # I = 0, so L = a*int w + b*int w^2 = 3a + 9b on the unit interval
    expected = consts.a * 3.0 + consts.b * 9.0
    rec = evaluate_record(st, consts, PARAMS, grid)
    assert rec.L_lyap == pytest.approx(expected, rel=1e-13)


def test_derived_constants_values(grid):
    v0 = 1.0 + grid.centers  # min at first cell center
    w0 = np.full(grid.n, 5.0)
    consts = derived_constants(v0, w0, PARAMS, grid)
    assert consts.kappa == pytest.approx(PARAMS.gamma * v0[0], rel=1e-14)
    assert consts.a == pytest.approx((PARAMS.alpha + 0.25) / consts.kappa, rel=1e-14)
    assert consts.b == pytest.approx(PARAMS.chi ** 2 / (4 * PARAMS.D_u), rel=1e-14)
    assert consts.M_star == 0.0  # constant w0 has no gradient energy
    assert consts.sigma_star == 5.0
    assert np.isnan(consts.jensen_c1)  # u0 not supplied


def test_derived_constants_zero_kappa_gives_infinite_a(grid):
    params = ModelParams(D_u=1.0, D_w=1.0, chi=1.0, alpha=2.0, beta=1.0,
                         gamma=0.0, delta=1.0)
    consts = derived_constants(np.ones(grid.n), np.ones(grid.n), params, grid)
    assert consts.kappa == 0.0
    assert np.isinf(consts.a)


def test_derived_constants_jensen_c1(grid):
    u0 = np.exp(grid.centers)  # c1 = ln(mean e^x) - mean x
    consts = derived_constants(np.ones(grid.n), np.zeros(grid.n), PARAMS,
                               grid, u0=u0)
    mean = np.dot(grid.m, u0) / grid.volume
    expected = np.log(mean) - np.dot(grid.m, grid.centers) / grid.volume
    assert consts.jensen_c1 == pytest.approx(expected, rel=1e-13)
    assert consts.jensen_c1 > 0.0


def test_derived_constants_reject_bad_data(grid):
    with pytest.raises(NonpositiveField):
        derived_constants(np.zeros(grid.n), np.ones(grid.n), PARAMS, grid)
    with pytest.raises(NonpositiveField):
        derived_constants(np.ones(grid.n), np.full(grid.n, -1.0), PARAMS, grid)


def test_record_fields_order():
    assert record_fields() == [
        "t", "I", "mass_u", "mass_w", "max_w", "min_u", "F_quasi", "D_dissip",
        "L_lyap", "fisher_u", "grad_w_L2", "max_grad_u", "cum_D", "cum_w",
    ]


def test_evaluate_record_cumulative_chaining(grid):
    consts = derived_constants(np.ones(grid.n), np.full(grid.n, 2.0), PARAMS, grid)
    st0 = _state(grid, 1.0, 1.0, 2.0)
    r0 = evaluate_record(st0, consts, PARAMS, grid)
    assert r0.cum_D == 0.0 and r0.cum_w == 0.0
    assert r0.t == 0.0

    st1 = _state(grid, 1.0, 1.0, 1.0)
    st1.t = 0.5
    r1 = evaluate_record(st1, consts, PARAMS, grid, prev=r0)
    # trapezoid of mass_w over [0, 0.5]: 0.5 * 0.5 * (2 + 1)
    assert r1.cum_w == pytest.approx(0.75, rel=1e-13)
    assert r1.cum_D == pytest.approx(
        0.25 * (r0.D_dissip + r1.D_dissip), rel=1e-13)

    st2 = _state(grid, 1.0, 1.0, 0.5)
    st2.t = 1.5
    r2 = evaluate_record(st2, consts, PARAMS, grid, prev=r1)
    assert r2.cum_w == pytest.approx(0.75 + 0.5 * (1.0 + 0.5), rel=1e-13)


def test_evaluate_record_scalar_fields(grid):
    consts = derived_constants(np.ones(grid.n), np.full(grid.n, 2.0), PARAMS, grid)
    u = 1.0 + grid.centers
    st = _state(grid, u, 1.0, 2.0)
    rec = evaluate_record(st, consts, PARAMS, grid)
    assert rec.mass_u == pytest.approx(1.5, rel=1e-13)
    assert rec.mass_w == pytest.approx(2.0, rel=1e-13)
    assert rec.max_w == 2.0
    assert rec.min_u == u.min()
    assert rec.max_grad_u == pytest.approx(1.0, rel=1e-12)
    assert rec.L_lyap == pytest.approx(
        rec.I + consts.a * rec.mass_w + consts.b * 4.0, rel=1e-12)


def test_integrated_audit_static_series(grid):
    params = ModelParams(D_u=20.0, D_w=1.0, chi=0.5, alpha=2.0, beta=1.0,
                         gamma=1.0, delta=1.0)  # kappa = 1, so a = 2.25
    consts = derived_constants(np.ones(grid.n), np.full(grid.n, 2.0), params, grid)
    st = _state(grid, 1.0, 1.0, 2.0)
    records = [evaluate_record(st, consts, params, grid)]
    for t in (1.0, 2.0):
        nxt = _state(grid, 1.0, 1.0, 2.0)
        nxt.t = t
        records.append(evaluate_record(nxt, consts, params, grid,
                                       prev=records[-1]))
    mass_w0_sq = 4.0  # int w0^2 with w0 = 2 on the unit interval
    rep = integrated_inequality_audit(records, consts, params.D_u, mass_w0_sq)
    # frozen fields: LHS(t) = I + 0.25 * 2t; RHS = a*2 + b*4
    expected_slack = consts.a * 2.0 + consts.b * 4.0 - 0.5 * np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(rep.slack, expected_slack, rtol=1e-12)
    np.testing.assert_allclose(rep.grad_slack, 2.0, rtol=1e-13)
    assert rep.ok and rep.inequality_ok and rep.grad_budget_ok
    assert rep.min_slack == pytest.approx(expected_slack[-1], rel=1e-12)


def test_integrated_audit_flags_violation(grid):
    params = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=2.0, beta=1.0,
                         gamma=1.0, delta=1.0)
    consts = derived_constants(np.ones(grid.n), np.full(grid.n, 1.0), params, grid)
    st0 = _state(grid, 1.0, 1.0, 1.0)
    r0 = evaluate_record(st0, consts, params, grid)
    # nutrient GROWING over time breaks the integrated bound eventually
    records = [r0]
    for k, t in enumerate((5.0, 10.0, 20.0), start=1):
        st = _state(grid, 1.0, 1.0, 1.0 + 2.0 * k)
        st.t = t
        records.append(evaluate_record(st, consts, params, grid, prev=records[-1]))
    rep = integrated_inequality_audit(records, consts, params.D_u, 1.0)
    assert not rep.inequality_ok
    assert rep.min_slack < 0.0


def test_integrated_audit_requires_records(grid):
    consts = derived_constants(np.ones(grid.n), np.ones(grid.n), PARAMS, grid)
    with pytest.raises(ValueError):
        integrated_inequality_audit([], consts, 1.0, 1.0)


def test_dissipation_random_trials_nonnegative():
    # volume-weighted functionals stay >= 0 for arbitrary positive fields
    grid = build_grid(Geometry("radial", 32, d=3))
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u = 10.0 ** rng.uniform(-6, 3) * (0.1 + rng.random(32))
        w = rng.random(32) * 10.0 ** rng.uniform(-3, 2)
        st = State(0.0, u, np.ones(32), w)
        assert _record(st, grid).D_dissip >= 0.0


def _plain_record(state, consts, params, grid, prev):
    """The record as composed before the one-pass evaluate_record: each
    functional on its own, with its own face differences, in plain numpy."""
    u, v, w = state.u, state.v, state.w
    h, m = grid.h, grid.m
    fm = grid.face_areas[1:-1] * h

    def energy(f, g, p, g_floor=1e-12):
        grad = np.diff(f) / h
        num = grad * grad if p == 2 else (grad * grad) ** 2
        if g is None:
            return float(np.dot(fm, num))
        gf = np.maximum(0.5 * (g[1:] + g[:-1]), g_floor)
        return float(np.dot(fm, num / gf))

    def ln(a):
        return np.log(np.maximum(a, 1e-300))

    i_val = float(np.dot(m, ln(v) - ln(u)))
    face_w = np.zeros(grid.n + 1)
    face_w[1:-1] = np.diff(w) / h
    lap_w = np.diff(grid.face_areas * face_w) / m
    d_val = float(energy(u, u, 2) + float(np.dot(m, lap_w * lap_w))
                  + energy(w, None, 4))
    f_val = params.beta * float(np.dot(m, u * ln(u)))
    gc = params.gamma * params.chi
    if gc > 0.0:
        f_val += gc / (2.0 * params.alpha) * energy(v, v, 2)
    if params.chi > 0.0:
        f_val += 0.5 * params.chi * energy(w, w, 2)
    mass_w = float(np.dot(m, w))
    face_u = np.zeros(grid.n + 1)
    face_u[1:-1] = np.diff(u) / h
    gap = state.t - prev.t
    return (
        state.t, i_val, float(np.dot(m, u)), mass_w, float(w.max()),
        float(u.min()), float(f_val), d_val,
        i_val + consts.a * mass_w + consts.b * float(np.dot(m, w * w)),
        energy(u, u * u, 2, g_floor=1e-100), energy(w, None, 2),
        float(np.max(np.abs(face_u))),
        prev.cum_D + 0.5 * gap * (prev.D_dissip + d_val),
        prev.cum_w + 0.5 * gap * (prev.mass_w + mass_w),
    )


@pytest.mark.parametrize("geometry", [Geometry("interval", 41),
                                      Geometry("radial", 40, d=3)],
                         ids=["interval", "radial3"])
@pytest.mark.parametrize("chi,gamma", [(0.5, 200.0), (0.0, 200.0),
                                       (0.5, 0.0)],
                         ids=["taxis", "chi0", "gamma0"])
def test_evaluate_record_matches_plain_composition(geometry, chi, gamma):
    grid = build_grid(geometry)
    params = ModelParams(D_u=20.0, D_w=1.0, chi=chi, alpha=2.0, beta=200.0,
                         gamma=gamma, delta=1.0)
    rng = np.random.default_rng(11)
    n = grid.n
    u = np.exp(rng.normal(size=n))
    u[7:9] = 1e-52, 3e-52  # a u^2 face weight below its 1e-100 floor
    v = 0.05 + rng.random(n)
    w = 3.0 * rng.random(n)
    w[rng.random(n) < 0.3] = 0.0  # snapped cells: zero face weights
    w[-5:] = 0.0
    w[-3] = 1e-13  # a face weight below the 1e-12 floor, with a gradient
    consts = derived_constants(v, w, params, grid, u0=u)
    prev = evaluate_record(State(0.0, u, v, w), consts, params, grid)
    state = State(0.25, u * 1.5, v * 0.5, w * 0.25)
    rec = evaluate_record(state, consts, params, grid, prev=prev)
    want = _plain_record(state, consts, params, grid, prev)
    assert [x.hex() for x in dataclasses.astuple(rec)] == [
        float(x).hex() for x in want]

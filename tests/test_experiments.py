from dataclasses import replace

import numpy as np
import pytest

import nutaxis.experiments as experiments
from nutaxis import (
    Constant,
    Gaussian,
    Mirrored,
    OutputSchedule,
    PositivityViolation,
    ScenarioFailure,
    SweepSpec,
    UnknownVariant,
    apply_override,
    build_grid,
    derived_constants,
    output_times,
    preset,
    run_scenario,
    run_sweep,
    sample,
)


def _tiny(t_end=0.05):
    return apply_override(preset("fig1_right", "l=14"), "t_end", t_end)


def test_output_times_schedule():
    sched = OutputSchedule(t_first=1e-3, factor=2.0)
    ts = output_times(sched, 0.02)
    assert ts == [1e-3, 2e-3, 4e-3, 8e-3, 16e-3, 0.02]
    assert output_times(sched, 5e-4) == [5e-4]  # horizon before first output
    long = output_times(OutputSchedule(), 1000.0)
    assert long[-1] == 1000.0
    assert all(b > a for a, b in zip(long, long[1:]))


@pytest.mark.parametrize("kwargs", [dict(t_first=0.0), dict(factor=1.0)])
def test_output_schedule_validation(kwargs):
    with pytest.raises(ValueError):
        OutputSchedule(**kwargs)


def test_preset_fig1_left_shape():
    cfg = preset("fig1_left", "sigma=60")
    assert cfg.name == "fig1_left[sigma=60]"
    assert cfg.geometry.kind == "interval" and cfg.geometry.n_cells == 400
    assert cfg.params.D_u == 20.0 and cfg.params.chi == 0.5
    assert cfg.params.beta == cfg.params.gamma == 200.0
    assert cfg.u0 == cfg.v0
    assert cfg.w0 == Constant(60.0)
    assert cfg.t_end == 1000.0


def test_preset_fig1_right_shape():
    cfg = preset("fig1_right", 1.4)
    assert cfg.geometry.n_cells == 401  # odd count puts a center exactly at 1/2
    assert isinstance(cfg.v0, Mirrored) and cfg.v0.inner == cfg.u0
    assert cfg.w0 == Gaussian(base=1.4, amp=20.0 - 1.4, rate=15.0, center=0.5)
    grid = build_grid(cfg.geometry)
    w0 = sample(cfg.w0, grid)
    assert w0.max() == 20.0  # sigma* is attained exactly at the middle cell


def test_preset_fig3_shape():
    cfg = preset("fig3", "d=3")
    assert cfg.geometry.kind == "radial" and cfg.geometry.d == 3
    assert cfg.params.chi == 1000.0
    assert cfg.stepper.cfl_safety == 0.25
    grid = build_grid(cfg.geometry)
    assert grid.volume == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)


def test_preset_variant_forms_are_equivalent():
    assert preset("fig1_left", "sigma=60") == preset("fig1_left", "60")
    assert preset("fig1_left", 60) == preset("fig1_left", 60.0)
    assert preset("fig3", "d=1") == preset("fig3", 1)


@pytest.mark.parametrize("name,variant", [
    ("fig2", 60),
    ("fig1_left", "l=60"),      # wrong key for this family
    ("fig1_left", 61),
    ("fig1_left", "sigma=abc"),
    ("fig3", 2),
])
def test_preset_rejects_unknown(name, variant):
    with pytest.raises(UnknownVariant):
        preset(name, variant)


def test_preset_balanced_start():
    # both species start with the same log-profile, so I(0) = 0
    for name, variant in (("fig1_left", 60), ("fig1_right", 1.4), ("fig3", 3)):
        cfg = preset(name, variant)
        grid = build_grid(cfg.geometry)
        u0, v0 = sample(cfg.u0, grid), sample(cfg.v0, grid)
        i0 = float(np.dot(grid.m, np.log(v0) - np.log(u0)))
        assert abs(i0) < 1e-12


def test_fig1_right_m_star_matches_direct_quadrature():
    cfg = preset("fig1_right", 14)
    grid = build_grid(cfg.geometry)
    w0 = sample(cfg.w0, grid)
    consts = derived_constants(sample(cfg.v0, grid), w0, cfg.params, grid)
    grad = np.diff(w0) / grid.h
    wf = 0.5 * (w0[1:] + w0[:-1])
    expected = float(np.sum(grid.h * grad ** 2 / wf))
    assert consts.M_star == pytest.approx(expected, rel=1e-13)
    assert consts.sigma_star == 20.0


def test_apply_override_paths():
    cfg = preset("fig1_left", 60)
    shorter = apply_override(cfg, "t_end", 1.0)
    assert shorter.t_end == 1.0 and cfg.t_end == 1000.0
    coarse = apply_override(cfg, "geometry.n_cells", 50)
    assert coarse.geometry.n_cells == 50
    fast = apply_override(cfg, "stepper.dt", 0.125)
    assert fast.stepper.dt == 0.125

    with pytest.raises(ValueError):
        apply_override(cfg, "geometry.shape", 3)
    with pytest.raises(ValueError):
        apply_override(cfg, "t_end", -1.0)  # replacement is revalidated


def test_sweep_spec_combos():
    base = _tiny()
    spec = SweepSpec(base=base, overrides=(
        ("t_end", (0.05, 0.1)),
        ("stepper.dt", (0.25, 0.125, 0.0625)),
    ))
    combos = spec.combos()
    assert len(combos) == 6
    assert combos[0] == {"t_end": 0.05, "stepper.dt": 0.25}
    assert combos[-1] == {"t_end": 0.1, "stepper.dt": 0.0625}

    zipped = SweepSpec(base=base, mode="zip", overrides=(
        ("t_end", (0.05, 0.1)),
        ("stepper.dt", (0.25, 0.125)),
    )).combos()
    assert zipped == [{"t_end": 0.05, "stepper.dt": 0.25},
                      {"t_end": 0.1, "stepper.dt": 0.125}]

    assert SweepSpec(base=base, overrides=()).combos() == [{}]


def test_sweep_spec_validation():
    base = _tiny()
    with pytest.raises(ValueError):
        SweepSpec(base=base, overrides=(("t_end", (0.05, 0.1)),), mode="outer")
    with pytest.raises(ValueError):
        SweepSpec(base=base, overrides=(("t_end", ()),))
    with pytest.raises(ValueError):
        SweepSpec(base=base, overrides=(("nope.dt", (0.1,)),))
    with pytest.raises(ValueError):
        SweepSpec(base=base, mode="zip", overrides=(
            ("t_end", (0.05, 0.1)), ("stepper.dt", (0.25,))))


def test_run_scenario_records_and_manifest():
    cfg = _tiny()
    result = run_scenario(cfg)
    times = output_times(cfg.output, cfg.t_end)
    assert len(result.records) == len(times) + 1
    assert result.records[0].t == 0.0
    assert [r.t for r in result.records[1:]] == times
    assert result.state.t == cfg.t_end
    assert result.records[0].I == pytest.approx(0.0, abs=1e-12)

    man = result.manifest
    assert man.scenario == cfg
    assert man.stats["outputs"] == len(result.records)
    assert man.stats["accepted"] > 0
    assert man.stats["backend"] in ("numba", "numpy")
    assert man.wall_time > 0.0
    assert set(man.audits) == {"mass_bound", "sup_decay", "v_bounds",
                               "lyapunov_monotone", "integrated_inequality",
                               "grad_w_budget"}
    assert all(a["ok"] for a in man.audits.values())



def test_lyapunov_audit_is_vacuous_without_decay_rate():
    # gamma = 0 gives kappa = 0, so a = inf and every L_lyap is infinite
    base = preset("fig1_right", 14)
    cfg = replace(base, t_end=0.05, params=replace(base.params, gamma=0.0))
    result = run_scenario(cfg)
    assert result.manifest.constants.kappa == 0.0
    assert all(np.isinf(r.L_lyap) for r in result.records)
    assert result.manifest.audits["lyapunov_monotone"] == {
        "ok": True, "margin": np.inf}

def test_run_scenario_is_deterministic():
    a = run_scenario(_tiny())
    b = run_scenario(_tiny())
    assert a.records[-1] == b.records[-1]
    np.testing.assert_array_equal(a.state.u, b.state.u)
    np.testing.assert_array_equal(a.state.w, b.state.w)


def test_run_scenario_wraps_integrator_failures(monkeypatch):
    def boom(*args, **kwargs):
        raise PositivityViolation("u", 3, 0.5)

    monkeypatch.setattr(experiments, "advance", boom)
    with pytest.raises(ScenarioFailure) as err:
        run_scenario(_tiny())
    assert isinstance(err.value.__cause__, PositivityViolation)
    assert "fig1_right" in str(err.value)


def test_run_sweep_serial_rows(tmp_path):
    spec = SweepSpec(base=_tiny(), overrides=(("t_end", (0.02, 0.05)),))
    rows = run_sweep(spec, out_dir=str(tmp_path))
    assert [r["run"] for r in rows] == [0, 1]
    assert [r["t_end"] for r in rows] == [0.02, 0.05]
    for i, row in enumerate(rows):
        assert row["error"] == ""
        assert row["audit_ok"] is True
        assert row["sigma_star"] == 20.0
        assert (tmp_path / f"run_{i:03d}" / "records.csv").exists()
        assert (tmp_path / f"run_{i:03d}" / "manifest.json").exists()


def test_run_sweep_parallel_matches_serial():
    spec = SweepSpec(base=_tiny(0.02), overrides=(("stepper.dt", (0.25, 0.125)),))
    serial = run_sweep(spec, processes=1)
    parallel = run_sweep(spec, processes=2)
    assert serial == parallel


def test_run_sweep_captures_per_run_errors(monkeypatch):
    calls = {"n": 0}

    def flaky(cfg, backend=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ScenarioFailure("synthetic failure")
        return real(cfg, backend=backend)

    real = experiments.run_scenario
    monkeypatch.setattr(experiments, "run_scenario", flaky)
    spec = SweepSpec(base=_tiny(0.02), overrides=(("t_end", (0.02, 0.03)),))
    rows = run_sweep(spec, processes=1)
    assert rows[0]["error"].startswith("ScenarioFailure")
    assert rows[0]["audit_ok"] is False
    assert rows[1]["error"] == ""


@pytest.mark.parametrize("path, values", [
    ("t_end", (0.01, -1.0)),
    ("geometry.n_cells", (40, 2)),
])
def test_run_sweep_isolates_rejected_override_values(path, values):
    # the second value fails the config's own validation; only its run fails
    spec = SweepSpec(base=_tiny(0.01), overrides=((path, values),))
    rows = run_sweep(spec, processes=1)
    assert [r[path] for r in rows] == list(values)
    assert rows[0]["error"] == "" and rows[0]["audit_ok"] is True
    assert rows[1]["error"].startswith("ValueError")
    assert rows[1]["audit_ok"] is False

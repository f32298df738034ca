import csv
import dataclasses
import json
import math

import pytest

import nutaxis.cli
import nutaxis.verify
from nutaxis import preset
from nutaxis.cli import main
from nutaxis.io import write_config
from nutaxis.stepper import PositivityViolation
from nutaxis.verify import CheckResult


ODE = ["ode", "--delta", "1", "--alpha", "2", "--beta", "1", "--gamma", "1",
       "--u0", "1", "--v0", "1", "--w0", "1"]

SWEEP = {"base": {"preset": "fig1_right", "variant": "l=14"},
         "overrides": [{"path": "t_end", "values": [0.02, 0.04]}]}


def _line_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + " ="):
            return float(line.split("=")[1].split("(")[0])
    raise AssertionError(f"{key} not printed:\n{out}")


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["-h"]) == 0
    assert "run" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run"],                                        # neither config nor preset
    ["run", "--preset", "fig1_left"],               # preset without variant
    ["run", "--preset", "fig1_left", "--variant", "sigma=61"],
    ["run", "nope.json", "--preset", "fig1_left", "--variant", "sigma=60"],
    ["heat", "--diffusion", "0"],                   # D_u must be positive
    ["run", "--preset", "fig4", "--variant", "d=1"],  # unknown preset
    ["constants", "--preset", "fig4", "--variant", "d=1"],
    [*ODE, "--alpha", "nan"],                       # non-finite rate
    [*ODE, "--w0", "nan"],                          # non-finite state
    [*ODE, "--w0", "inf"],
    [*ODE, "--w0", "-1"],                           # negative nutrient
    [*ODE, "--u0", "0"],                            # a species is absent
    [*ODE, "--v0", "-1"],
    ["sweep", "sweep.json", "--threads", "0"],      # no worker process
    ["sweep", "sweep.json", "--threads", "-4"],
])
def test_bad_run_invocations_exit_one(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(json.dumps(SWEEP))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error" in err
    if argv[0] == "sweep":  # rejected before any run starts
        assert f"got {argv[-1]}" in err
        assert not list(tmp_path.rglob("run_*"))
    if "fig4" in argv:  # the preset names come from one list
        assert "expected one of ['fig1_left', 'fig1_right', 'fig3']" in err
    if argv[0] == "ode":  # the message names the bad value
        assert argv[-2][2:].replace("-", "_") in err


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    assert "i/o error" in capsys.readouterr().err


def test_run_preset_writes_artifacts(tmp_path, capsys):
    code = main(["run", "--preset", "fig1_right", "--variant", "l=14",
                 "--t-end", "0.05", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "records.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    out = capsys.readouterr().out
    assert "audits ok" in out
    assert "records.csv" in out


def test_run_config_file_with_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(preset("fig1_right", 14), str(cfg_path))
    code = main(["run", str(cfg_path), "--t-end", "0.02", "--n-cells", "101",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert doc["scenario"]["t_end"] == 0.02
    assert doc["scenario"]["geometry"]["n_cells"] == 101
    capsys.readouterr()


def test_run_without_v_growth_records_an_infinite_quasi_energy(tmp_path,
                                                               capsys):
    # alpha = 0 under gamma*chi > 0: the weight gamma*chi/2alpha of F is
    # infinite, so is every F, as every L is when kappa = 0
    cfg = preset("fig1_right", 14)
    cfg = dataclasses.replace(
        cfg, params=dataclasses.replace(cfg.params, alpha=0.0))
    write_config(cfg, str(tmp_path / "cfg.json"))
    code = main(["run", str(tmp_path / "cfg.json"), "--t-end", "0.02",
                 "--n-cells", "50", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "records.csv", encoding="utf-8") as fh:
        f_quasi = [float(row["F_quasi"]) for row in csv.DictReader(fh)]
    assert f_quasi and all(f == math.inf for f in f_quasi)
    capsys.readouterr()


def test_run_failure_exits_two(tmp_path, capsys, monkeypatch):
    def boom(cfg, **kw):
        raise PositivityViolation("u", 3, 0.5)

    monkeypatch.setattr(nutaxis.cli, "run_scenario", boom)
    code = main(["run", "--preset", "fig1_right", "--variant", "l=14",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "simulation failure" in capsys.readouterr().err


def test_constants_subcommand(capsys):
    assert main(["constants", "--preset", "fig1_left",
                 "--variant", "sigma=60"]) == 0
    out = capsys.readouterr().out
    assert _line_value(out, "sigma_star") == 60.0
    assert _line_value(out, "kappa") == pytest.approx(4.792460381095228,
                                                      rel=1e-9)
    assert _line_value(out, "M_star") == 0.0
    assert _line_value(out, "jensen_c1") == pytest.approx(0.4621434220244197,
                                                          rel=1e-9)


def test_ode_subcommand(capsys):
    assert main(ODE) == 0
    out = capsys.readouterr().out
    assert _line_value(out, "u_final") == pytest.approx(math.sqrt(6.0) - 1.0,
                                                        rel=1e-8)
    assert _line_value(out, "v_final") == pytest.approx(7.0 - 2.0 * math.sqrt(6.0),
                                                        rel=1e-8)
    assert "sign(u - v) = -1" in out


def test_ode_without_uptake_has_no_end_state(capsys):
    assert main([*ODE, "--beta", "0", "--gamma", "0"]) == 1
    captured = capsys.readouterr()
    assert "w never decays" in captured.err and captured.out == ""


def test_ode_without_nutrient_prints_the_initial_state(capsys):
    argv = [*ODE, "--u0", "0.7", "--v0", "0.3", "--w0", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "u_final = 0.7", "v_final = 0.3", "w_final = 0"]


@pytest.mark.parametrize("flag", ["--delta", "--alpha"])
def test_ode_without_a_conserved_quantity(capsys, flag):
    # Q = (beta/delta) u + (gamma/alpha) v + w needs delta, alpha > 0; the
    # trajectory does not, and only the drift line is left out
    argv = list(ODE)
    argv[argv.index(flag) + 1] = "0"
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Q_drift_rel" not in out
    assert _line_value(out, "w_final") < 1e-10
    assert "sign(u - v) = " in out


def test_heat_subcommand(capsys):
    assert main(["heat", "--n-cells", "100"]) == 0
    out = capsys.readouterr().out
    c1 = _line_value(out, "c1")
    assert abs(c1 - 0.462) < 1e-3
    assert _line_value(out, "L") == pytest.approx(0.5 * c1, rel=1e-9)
    assert _line_value(out, "t0") > 0.0


def test_sweep_subcommand(tmp_path, capsys):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(SWEEP))
    out_dir = tmp_path / "sweep_out"
    code = main(["sweep", str(spec_path), "--out-dir", str(out_dir),
                 "--threads", "1"])
    assert code == 0
    assert "2 runs (0 failed)" in capsys.readouterr().out
    table = (out_dir / "sweep_table.csv").read_text().splitlines()
    assert len(table) == 3
    assert (out_dir / "run_000" / "records.csv").exists()
    assert (out_dir / "run_001" / "manifest.json").exists()


def test_a_sweep_over_a_field_the_kind_lacks_exits_one(tmp_path, capsys):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base": {"preset": "fig1_left", "variant": 60},
        "overrides": [{"path": "geometry.d", "values": [1, 3]}]}))
    out_dir = tmp_path / "sweep_out"
    assert main(["sweep", str(spec_path), "--out-dir", str(out_dir)]) == 1
    assert ("sweep.json.overrides[0].path: 'geometry.d' does not name a "
            "config field") in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("axis, values, flag, path", [
    ("geometry", [{"kind": "interval", "n_cells": 40},
                  {"kind": "radial", "n_cells": 40, "d": 3}],
     ["--n-cells", "20"], "geometry.n_cells"),
    ("stepper.dt", [0.01, 0.02], ["--dt", "0.005"], "stepper.dt"),
])
def test_a_sweep_flag_an_axis_overrides_exits_one(tmp_path, capsys, axis,
                                                  values, flag, path):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base": {"preset": "fig1_right", "variant": "l=14"},
        "overrides": [{"path": axis, "values": values}]}))
    out_dir = tmp_path / "sweep_out"
    argv = ["sweep", str(spec_path), "--out-dir", str(out_dir), *flag,
            "--t-end", "0.02"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"sets {path!r}, which the sweep axis {axis!r} overrides" in err
    assert not out_dir.exists()


def test_verify_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(nutaxis.verify, "run_all",
                        lambda seed=0, printer=None: [CheckResult("x", True, "")])
    assert main(["verify"]) == 0
    monkeypatch.setattr(nutaxis.verify, "run_all",
                        lambda seed=0, printer=None: [CheckResult("x", False, "")])
    assert main(["verify"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--n-cells", "10"],
    ["verify", "--out-dir", "x"],
    ["run", "--preset", "fig1_left", "--variant", "sigma=60", "--seed", "1"],
    ["run", "--preset", "fig1_left", "--variant", "sigma=60", "--threads", "2"],
    ["heat", "--dt", "0.1"],
    ["ode", "--delta", "1", "--alpha", "2", "--beta", "1", "--gamma", "1",
     "--u0", "1", "--v0", "1", "--w0", "1", "--n-cells", "10"],
    [*ODE, "--dt", "0.1"],                          # the end state is exact
    [*ODE, "--t-end", "5"],
    ["constants", "--dt", "0.1"],
    ["constants", "--t-end", "5"],
])
def test_options_a_subcommand_does_not_read_exit_one(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


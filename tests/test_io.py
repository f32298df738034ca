import json
import math
import re
from pathlib import Path

import pytest

from nutaxis import (
    DiagnosticsRecord,
    Gaussian,
    Interval,
    Mirrored,
    Radial,
    preset,
    record_fields,
    run_scenario,
    run_sweep,
)
from nutaxis.experiments import apply_override
from nutaxis.io import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    read_config,
    read_records,
    read_sweep_spec,
    write_config,
    write_manifest,
    write_records,
    write_run,
    write_sweep_table,
)
from nutaxis.stepper import StepperConfig

MINIMAL = {
    "name": "demo",
    "geometry": {"kind": "interval", "n_cells": 32},
    "params": {"D_u": 1.0, "D_w": 1.0, "chi": 0.5, "alpha": 2.0,
               "beta": 1.0, "gamma": 1.0, "delta": 1.0},
    "profiles": {"u0": {"type": "constant", "value": 1.0},
                 "v0": {"type": "constant", "value": 1.0},
                 "w0": {"type": "constant", "value": 2.0}},
    "t_end": 1.0,
}


def test_minimal_config_defaults():
    cfg = config_from_dict(MINIMAL)
    assert cfg.name == "demo"
    assert cfg.geometry.x_lo == 0.0 and cfg.geometry.x_hi == 1.0
    assert cfg.output.factor == 1.25
    assert cfg.stepper.dt == 0.25
    assert cfg.params.eps_reg == 0.0


@pytest.mark.parametrize("name,variant", [
    ("fig1_left", 60), ("fig1_right", 1.4), ("fig3", 3),
])
def test_config_round_trip_identity(name, variant):
    cfg = preset(name, variant)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = apply_override(preset("fig1_right", 14), "stepper.dt", 1.0 / 3.0)
    path = tmp_path / "cfg.json"
    write_config(cfg, str(path))
    assert read_config(str(path)) == cfg  # floats survive the file exactly


def test_mirrored_profile_round_trip():
    doc = dict(MINIMAL)
    doc["profiles"] = dict(MINIMAL["profiles"])
    doc["profiles"]["v0"] = {
        "type": "mirrored",
        "inner": {"type": "gaussian", "base": 1.0, "amp": 1.0,
                  "rate": 15.0, "center": 0.0}}
    cfg = config_from_dict(doc)
    assert isinstance(cfg.v0, Mirrored) and isinstance(cfg.v0.inner, Gaussian)
    assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d.pop("t_end"), "t_end"),
    (lambda d: d["params"].pop("chi"), "chi"),
    (lambda d: d["params"].update(Chi=0.5), "Chi"),
    (lambda d: d["profiles"]["u0"].update(type="square"), "square"),
    (lambda d: d["geometry"].update(kind="annulus"), "annulus"),
    (lambda d: d.update(stepper={"step": 0.1}), "step"),
    (lambda d: d.update(t_end="soon"), "t_end"),
    (lambda d: d["geometry"].update(n_cells=2), "geometry"),
    (lambda d: d.update(stepper={"dt": -1.0}), "stepper"),
    (lambda d: d.update(params=3), "config.params: expected an object, got int"),
    (lambda d: d["profiles"]["u0"].pop("type"),
     "config.profiles.u0: profile needs a 'type' key"),
    (lambda d: d["geometry"].pop("kind"),
     "config.geometry: geometry needs a 'kind' key"),
    (lambda d: d["geometry"].update(kind="radial"),
     "config.geometry: missing required key(s) ['d']"),
])
def test_config_errors_carry_the_offending_path(mutate, needle):
    doc = json.loads(json.dumps(MINIMAL))  # deep copy
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert needle in str(err.value)


def test_read_config_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("geometry: interval\n")
    with pytest.raises(ConfigError) as err:
        read_config(str(path))
    assert str(err.value).startswith(f"{path}: invalid JSON: ")


@pytest.mark.parametrize("key", ["flux", "positivity_floor", "sink_dt_cap",
                                 "source_dt_cap", "w_snap_rel", "dt_min",
                                 "max_retries", "scheme", "cfl_safety"])
def test_retired_stepper_keys_are_rejected(key):
    doc = json.loads(json.dumps(MINIMAL))
    doc["stepper"] = {key: {"flux": "upwind", "scheme": "sbdf2"}.get(key, 0.45)}
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert key in str(err.value)


def test_records_round_trip_exact(tmp_path):
    values = [math.pi, 1e-250, -1.0 / 3.0, 6.02214076e23, 0.1, 1e308,
              4.9406564584124654e-324, 2.0, -0.0, 1.25e-3, 7.0, 1.0, 0.0, 3.0]
    rec = DiagnosticsRecord(**dict(zip(record_fields(), values)))
    later = DiagnosticsRecord(**dict(zip(record_fields(),
                                         [v * 1.0000001 for v in values])))
    path = tmp_path / "records.csv"
    write_records([rec, later], str(path))
    back = read_records(str(path))
    assert back == [rec, later]  # 17 significant digits round-trip doubles
    header = path.read_text().splitlines()[0]
    assert header.split(",") == record_fields()
    assert len(header.split(",")) == 14


def test_read_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_records(str(path))


def test_write_run_and_manifest_content(tmp_path):
    cfg = apply_override(preset("fig1_right", 14), "t_end", 0.02)
    result = run_scenario(cfg)
    records_path, manifest_path = write_run(result, str(tmp_path / "out"))

    back = read_records(records_path)
    assert back == result.records

    doc = json.loads(open(manifest_path).read())
    assert doc["version"] == result.manifest.version
    assert doc["scenario"] == config_to_dict(cfg)
    assert set(doc["constants"]) == {"kappa", "a", "b", "M_star",
                                     "sigma_star", "jensen_c1"}
    assert doc["stats"]["accepted"] > 0
    assert set(doc["audits"]) == set(result.manifest.audits)


def test_manifest_tolerates_nonfinite_values(tmp_path):
    cfg = apply_override(preset("fig1_right", 14), "t_end", 0.02)
    result = run_scenario(cfg)
    result.manifest.stats["min_dt"] = math.inf
    path = tmp_path / "manifest.json"
    write_manifest(result.manifest, str(path))
    doc = json.loads(open(path).read())  # Python json reads Infinity back
    assert doc["stats"]["min_dt"] == math.inf


def test_read_sweep_spec_with_preset_base(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "base": {"preset": "fig1_right", "variant": "l=14"},
        "overrides": [{"path": "t_end", "values": [0.02, 0.05]},
                      {"path": "stepper.dt", "values": [0.25, 0.125]}],
        "mode": "zip",
    }))
    spec = read_sweep_spec(str(path))
    assert spec.base == preset("fig1_right", 14)
    assert spec.mode == "zip"
    assert spec.combos() == [{"t_end": 0.02, "stepper.dt": 0.25},
                             {"t_end": 0.05, "stepper.dt": 0.125}]


def test_read_sweep_spec_with_inline_base_and_profile_values(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "base": MINIMAL,
        "overrides": [{"path": "w0",
                       "values": [{"type": "constant", "value": 1.0},
                                  {"type": "constant", "value": 2.0}]}],
    }))
    spec = read_sweep_spec(str(path))
    assert spec.mode == "product"
    combos = spec.combos()
    assert [c["w0"].value for c in combos] == [1.0, 2.0]


def test_read_sweep_spec_decodes_object_values_as_the_field_type(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "base": MINIMAL,
        "overrides": [{"path": "stepper", "values": [{"dt": 0.1}]}],
    }))
    spec = read_sweep_spec(str(path))
    assert spec.overrides == (("stepper", (StepperConfig(dt=0.1),)),)


@pytest.mark.parametrize("doc,needle", [
    ({}, "base"),
    ({"base": {"preset": "fig9", "variant": 1}}, "fig9"),
    ({"base": MINIMAL, "overrides": [{"path": "t_end"}]}, "values"),
    ({"base": MINIMAL, "overrides": [{"path": "t_end", "values": []}]}, "values"),
    ({"base": MINIMAL, "mode": "outer"}, "outer"),
    ({"base": MINIMAL, "overrides": [{"path": "nope", "values": [1]}]}, "nope"),
    ({"base": MINIMAL, "overrides": [{"path": "t_end", "values": ["0.01"]}]},
     "overrides[0].values[0]"),
    ({"base": MINIMAL, "overrides": [{"path": "t_end", "values": [True]}]},
     "overrides[0].values[0]"),
    # a bool is not a variant, nor are null and a list; a preset is a string
    ({"base": {"preset": "fig3", "variant": True}}, "base.variant"),
    ({"base": {"preset": "fig3", "variant": None}}, "base.variant"),
    ({"base": {"preset": "fig3", "variant": [3]}}, "base.variant"),
    ({"base": {"preset": [], "variant": 3}}, "base.preset"),
    # the taxis CFL number is a kernel constant, not a config field
    ({"base": MINIMAL,
      "overrides": [{"path": "stepper.cfl_safety", "values": [0.25]}]},
     "stepper.cfl_safety"),
    # a second axis on one path would overwrite the first in every combo
    ({"base": MINIMAL,
      "overrides": [{"path": "t_end", "values": [0.01, 0.02]},
                    {"path": "t_end", "values": [0.03, 0.04]}]},
     "sweep.json: override 't_end' is repeated"),
    # a field the interval lacks: before, two runs labelled d = 1 and
    # d = 3 ran the same interval
    ({"base": {"preset": "fig1_left", "variant": 60},
      "overrides": [{"path": "geometry.d", "values": [1, 3]}]},
     "sweep.json.overrides[0].path: 'geometry.d' does not name a config "
     "field"),
])
def test_read_sweep_spec_errors(tmp_path, doc, needle):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises((ConfigError, ValueError)) as err:
        read_sweep_spec(str(path))
    assert needle in str(err.value)


def test_a_sweep_over_geometry_kinds_overrides_the_whole_geometry(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "base": dict(MINIMAL, t_end=0.05),
        "overrides": [{"path": "geometry", "values": [
            {"kind": "interval", "n_cells": 32, "x_hi": 2.0},
            {"kind": "radial", "n_cells": 32, "d": 3}]}],
    }))
    spec = read_sweep_spec(str(path))
    assert spec.overrides == (
        ("geometry", (Interval(32, x_hi=2.0), Radial(32, d=3))),)
    out = tmp_path / "out"
    rows = run_sweep(spec, out_dir=str(out))
    assert [row["error"] for row in rows] == ["", ""]
    docs = [json.loads((out / f"run_{i:03d}" / "manifest.json").read_text())
            for i in (0, 1)]
    assert [doc["scenario"]["geometry"] for doc in docs] == [
        {"kind": "interval", "n_cells": 32, "x_lo": 0.0, "x_hi": 2.0},
        {"kind": "radial", "n_cells": 32, "d": 3, "R": 1.0}]
    assert [(doc["grid_summary"]["kind"], doc["grid_summary"]["d"])
            for doc in docs] == [("interval", 1), ("radial", 3)]
    assert docs[0]["grid_summary"]["volume"] == pytest.approx(2.0, rel=1e-14)
    assert docs[1]["grid_summary"]["volume"] == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-12)


@pytest.mark.parametrize("geometry", [
    {"kind": "interval", "n_cells": 32, "x_hi": math.inf},
    {"kind": "interval", "n_cells": 32, "x_lo": -math.inf},
    {"kind": "radial", "n_cells": 32, "d": 3, "R": math.inf},
])
def test_read_config_rejects_infinite_geometry_bounds(tmp_path, geometry):
    doc = dict(MINIMAL, geometry=geometry)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))  # as the JSON literal Infinity
    with pytest.raises(ConfigError) as err:
        read_config(str(path))
    assert "config.json.geometry" in str(err.value)
    assert "must be finite" in str(err.value)


def test_read_config_rejects_an_infinite_base_step(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, stepper={"dt": math.inf})))
    with pytest.raises(ConfigError) as err:
        read_config(str(path))
    assert "config.json.stepper" in str(err.value)
    assert "positive and finite" in str(err.value)


def test_write_sweep_table(tmp_path):
    rows = [{"run": 0, "t_end": 0.5, "final_I": -0.25, "error": ""},
            {"run": 1, "t_end": 1.0, "final_I": 0.125, "error": ""}]
    path = tmp_path / "table.csv"
    write_sweep_table(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "run,t_end,final_I,error"
    assert lines[1].startswith("0,0.5,-0.25")
    with pytest.raises(ValueError):
        write_sweep_table([], str(path))


def test_readme_json_examples_decode(tmp_path):
    # the README's config and sweep spec examples, so that a retired key
    # cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config, sweep = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert config_from_dict(json.loads(config)).stepper == StepperConfig()
    path = tmp_path / "sweep.json"
    path.write_text(sweep)
    spec = read_sweep_spec(str(path))
    assert spec.base == preset("fig1_left", 60)
    assert spec.overrides == (("params.chi", (0.25, 0.5, 1.0)),)

"""Configuration and artifact serialization.

Formats:

* scenario config — UTF-8 JSON, strict schema (unknown keys are fatal, with
  the offending path in the message; a typo in a rate constant must not
  silently produce a differently-parameterized run),
* ``records.csv`` — one row per output time, header = the DiagnosticsRecord
  field names, every value printed with 17 significant digits,
* ``manifest.json`` — run manifest; non-finite floats (e.g. an untouched
  min_dt of inf) are written in Python's extended JSON form (``Infinity``),
* ``sweep_table.csv`` — one row per sweep run.

Config schema (all keys shown; (*) optional)::

    {
      "name": str,
      "geometry": {"kind": "interval", "n_cells": int,
                   "x_lo"*: float, "x_hi"*: float}
                | {"kind": "radial", "n_cells": int, "d": 1|2|3, "R"*: float},
      "params": {"D_u","D_w","chi","alpha","beta","gamma","delta","eps_reg"*},
      "profiles": {"u0": P, "v0": P, "w0": P},
      "t_end": float,
      "output"*: {"t_first"*: float, "factor"*: float},
      "stepper"*: {"dt"*, "dt_min"*, "cfl_safety"*, "max_retries"*,
                   "scheme"*}
    }

with profile P one of ``{"type": "constant", "value": float}``,
``{"type": "gaussian", "base", "amp", "rate", "center"}`` (the field
base + amp*exp(-rate*(x-center)^2)), or ``{"type": "mirrored", "inner": P}``.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import os
from typing import Any, Mapping, Optional, Sequence

from .diagnostics import DiagnosticsRecord, record_fields
from .experiments import (
    OutputSchedule,
    RunManifest,
    RunResult,
    ScenarioConfig,
    SweepSpec,
    preset,
)
from .grid import Geometry
from .model import ModelParams
from .profiles import Constant, Gaussian, Mirrored, Profile
from .stepper import StepperConfig

__all__ = [
    "ConfigError",
    "read_config",
    "write_config",
    "config_to_dict",
    "config_from_dict",
    "read_sweep_spec",
    "write_records",
    "read_records",
    "write_manifest",
    "manifest_to_dict",
    "write_run",
    "write_sweep_table",
]


class ConfigError(ValueError):
    """Schema violation in a config document; message carries the key path."""


def _check_keys(d: Mapping, path: str, required: Sequence[str],
                optional: Sequence[str] = ()) -> None:
    if not isinstance(d, Mapping):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    allowed = set(required) | set(optional)
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _number(d: Mapping, key: str, path: str) -> float:
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)


def _integer(d: Mapping, key: str, path: str) -> int:
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _string(d: Mapping, key: str, path: str) -> str:
    v = d[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {v!r}")
    return v


def _profile_from_dict(d: Mapping, path: str) -> Profile:
    if not isinstance(d, Mapping) or "type" not in d:
        raise ConfigError(f"{path}: profile needs a 'type' key")
    kind = d["type"]
    if kind == "constant":
        _check_keys(d, path, ["type", "value"])
        return Constant(value=_number(d, "value", path))
    if kind == "gaussian":
        _check_keys(d, path, ["type", "base", "amp", "rate", "center"])
        return Gaussian(base=_number(d, "base", path),
                        amp=_number(d, "amp", path),
                        rate=_number(d, "rate", path),
                        center=_number(d, "center", path))
    if kind == "mirrored":
        _check_keys(d, path, ["type", "inner"])
        return Mirrored(inner=_profile_from_dict(d["inner"], f"{path}.inner"))
    raise ConfigError(f"{path}.type: unknown profile type {kind!r}")


def profile_to_dict(p: Profile) -> dict:
    if isinstance(p, Constant):
        return {"type": "constant", "value": p.value}
    if isinstance(p, Gaussian):
        return {"type": "gaussian", "base": p.base, "amp": p.amp,
                "rate": p.rate, "center": p.center}
    if isinstance(p, Mirrored):
        return {"type": "mirrored", "inner": profile_to_dict(p.inner)}
    raise TypeError(f"not a profile: {p!r}")


def _geometry_from_dict(d: Mapping, path: str) -> Geometry:
    if not isinstance(d, Mapping) or "kind" not in d:
        raise ConfigError(f"{path}: geometry needs a 'kind' key")
    kind = d["kind"]
    try:
        if kind == "interval":
            _check_keys(d, path, ["kind", "n_cells"], ["x_lo", "x_hi"])
            return Geometry(kind="interval", n_cells=_integer(d, "n_cells", path),
                            x_lo=_number(d, "x_lo", path) if "x_lo" in d else 0.0,
                            x_hi=_number(d, "x_hi", path) if "x_hi" in d else 1.0)
        if kind == "radial":
            _check_keys(d, path, ["kind", "n_cells", "d"], ["R"])
            return Geometry(kind="radial", n_cells=_integer(d, "n_cells", path),
                            d=_integer(d, "d", path),
                            R=_number(d, "R", path) if "R" in d else 1.0)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: expected 'interval' or 'radial', got {kind!r}")


def _geometry_to_dict(g: Geometry) -> dict:
    if g.kind == "interval":
        return {"kind": "interval", "n_cells": g.n_cells,
                "x_lo": g.x_lo, "x_hi": g.x_hi}
    return {"kind": "radial", "n_cells": g.n_cells, "d": g.d, "R": g.R}


_PARAM_KEYS = ["D_u", "D_w", "chi", "alpha", "beta", "gamma", "delta"]
_STEPPER_NUMBERS = ["dt", "dt_min", "cfl_safety"]


def _params_from_dict(d: Mapping, path: str) -> ModelParams:
    _check_keys(d, path, _PARAM_KEYS, ["eps_reg"])
    kw = {k: _number(d, k, path) for k in _PARAM_KEYS}
    if "eps_reg" in d:
        kw["eps_reg"] = _number(d, "eps_reg", path)
    try:
        return ModelParams(**kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _stepper_from_dict(d: Mapping, path: str) -> StepperConfig:
    _check_keys(d, path, [], _STEPPER_NUMBERS + ["max_retries", "scheme"])
    kw: dict[str, Any] = {k: _number(d, k, path) for k in _STEPPER_NUMBERS if k in d}
    if "max_retries" in d:
        kw["max_retries"] = _integer(d, "max_retries", path)
    if "scheme" in d:
        kw["scheme"] = _string(d, "scheme", path)
    try:
        return StepperConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(d: Mapping, path: str = "config") -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON object, strictly."""
    _check_keys(d, path, ["name", "geometry", "params", "profiles", "t_end"],
                ["output", "stepper"])
    profiles = d["profiles"]
    _check_keys(profiles, f"{path}.profiles", ["u0", "v0", "w0"])
    output = OutputSchedule()
    if "output" in d:
        od = d["output"]
        _check_keys(od, f"{path}.output", [], ["t_first", "factor"])
        try:
            output = OutputSchedule(
                t_first=_number(od, "t_first", f"{path}.output") if "t_first" in od else 1e-3,
                factor=_number(od, "factor", f"{path}.output") if "factor" in od else 1.25)
        except ValueError as exc:
            raise ConfigError(f"{path}.output: {exc}") from exc
    stepper = StepperConfig()
    if "stepper" in d:
        stepper = _stepper_from_dict(d["stepper"], f"{path}.stepper")
    try:
        return ScenarioConfig(
            name=_string(d, "name", path),
            geometry=_geometry_from_dict(d["geometry"], f"{path}.geometry"),
            params=_params_from_dict(d["params"], f"{path}.params"),
            u0=_profile_from_dict(profiles["u0"], f"{path}.profiles.u0"),
            v0=_profile_from_dict(profiles["v0"], f"{path}.profiles.v0"),
            w0=_profile_from_dict(profiles["w0"], f"{path}.profiles.w0"),
            t_end=_number(d, "t_end", path),
            output=output,
            stepper=stepper)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Full (all keys explicit) JSON-ready echo of a ScenarioConfig."""
    return {
        "name": cfg.name,
        "geometry": _geometry_to_dict(cfg.geometry),
        "params": {k: getattr(cfg.params, k) for k in _PARAM_KEYS + ["eps_reg"]},
        "profiles": {"u0": profile_to_dict(cfg.u0),
                     "v0": profile_to_dict(cfg.v0),
                     "w0": profile_to_dict(cfg.w0)},
        "t_end": cfg.t_end,
        "output": {"t_first": cfg.output.t_first, "factor": cfg.output.factor},
        "stepper": dataclasses.asdict(cfg.stepper),
    }


def read_config(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(doc, path=os.path.basename(path))


def write_config(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def read_sweep_spec(path: str) -> SweepSpec:
    """Sweep file: {"base": <config or {"preset","variant"}>,
    "overrides": [{"path","values"}], "mode": "product"|"zip"}."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    name = os.path.basename(path)
    _check_keys(doc, name, ["base"], ["overrides", "mode"])
    base_doc = doc["base"]
    if isinstance(base_doc, Mapping) and "preset" in base_doc:
        _check_keys(base_doc, f"{name}.base", ["preset", "variant"])
        base = preset(base_doc["preset"], base_doc["variant"])
    else:
        base = config_from_dict(base_doc, path=f"{name}.base")
    overrides = []
    for i, ov in enumerate(doc.get("overrides", [])):
        opath = f"{name}.overrides[{i}]"
        _check_keys(ov, opath, ["path", "values"])
        values = ov["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{opath}.values: expected a nonempty list")
        parsed = tuple(
            _profile_from_dict(v, f"{opath}.values[{j}]") if isinstance(v, Mapping)
            else v
            for j, v in enumerate(values))
        overrides.append((_string(ov, "path", opath), parsed))
    mode = doc.get("mode", "product")
    try:
        return SweepSpec(base=base, overrides=tuple(overrides), mode=mode)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_records(records: Sequence[DiagnosticsRecord], path: str) -> None:
    names = record_fields()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in records:
            writer.writerow(_fmt(getattr(r, k)) for k in names)


def read_records(path: str) -> list[DiagnosticsRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != record_fields():
            raise ConfigError(f"{path}: unexpected columns {header}")
        return [DiagnosticsRecord(**{k: float(v) for k, v in zip(header, row)})
                for row in reader]


def manifest_to_dict(m: RunManifest) -> dict:
    return {
        "version": m.version,
        "scenario": config_to_dict(m.scenario),
        "constants": dataclasses.asdict(m.constants),
        "grid_summary": m.grid_summary,
        "stats": m.stats,
        "audits": m.audits,
        "wall_time": m.wall_time,
    }


def write_manifest(m: RunManifest, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest_to_dict(m), fh, indent=2)
        fh.write("\n")


def write_run(result: RunResult, out_dir: str) -> tuple[str, str]:
    """Write records.csv and manifest.json under out_dir; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_records(result.records, records_path)
    write_manifest(result.manifest, manifest_path)
    return records_path, manifest_path


def write_sweep_table(rows: Sequence[Mapping[str, Any]], path: str) -> None:
    if not rows:
        raise ValueError("no sweep rows to write")
    names = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow(_fmt(row.get(k, "")) for k in names)

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
      "stepper"*: {"dt"*, "cfl_safety"*, "scheme"*}
    }

with profile P one of ``{"type": "constant", "value": float}``,
``{"type": "gaussian", "base", "amp", "rate", "center"}`` (the field
base + amp*exp(-rate*(x-center)^2)), or ``{"type": "mirrored", "inner": P}``.

Sweep override values are checked against the type of the config field
their path names, by the same decoder; an object value decodes as that
field's dataclass, or as a profile P where the field holds a profile.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import MISSING
from typing import Any, Iterable, Mapping, Sequence, get_args, get_type_hints

from .diagnostics import DiagnosticsRecord, record_fields
from .experiments import (
    RunManifest,
    RunResult,
    ScenarioConfig,
    SweepSpec,
    preset,
    walk,
)
from .grid import Geometry
from .profiles import Profile

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


# The schema is the dataclasses' fields and type hints; a field without a
# default is a required key.  Only what the fields cannot say is data here:
# a profile is tagged by its class name, lowercased, under "type"; each
# geometry kind has its own keys besides "kind" and "n_cells" (key ->
# required); a scenario nests its three profiles under "profiles".
_PROFILES = {cls.__name__.lower(): cls for cls in get_args(Profile)}
_GEOMETRY_KEYS = {"interval": {"x_lo": False, "x_hi": False},
                  "radial": {"d": True, "R": False}}
_SCENARIO_PROFILES = ("u0", "v0", "w0")
# leaf type -> (accepted JSON types, its name in messages); bools are
# never numbers
_LEAVES = {float: ((int, float), "a number"), int: (int, "an integer"),
           str: (str, "a string")}


def _check_keys(d: Any, path: str, keys: Mapping[str, bool]) -> None:
    """Check d is an object whose keys are ``keys`` (key -> required)."""
    if not isinstance(d, Mapping):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(k for k, required in keys.items() if required and k not in d)
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _field_keys(cls: type) -> dict[str, bool]:
    """Field name -> required; a field without a default is required."""
    return {f.name: f.default is MISSING and f.default_factory is MISSING
            for f in dataclasses.fields(cls)}


def _tag(d: Any, path: str, key: str, what: str, choices: Mapping) -> str:
    if not isinstance(d, Mapping) or key not in d:
        raise ConfigError(f"{path}: {what} needs a {key!r} key")
    tag = d[key]
    if not isinstance(tag, str) or tag not in choices:
        raise ConfigError(f"{path}.{key}: expected one of {sorted(choices)}, "
                          f"got {tag!r}")
    return tag


def _decode(tp: Any, value: Any, path: str) -> Any:
    """Decode the JSON value found at ``path`` as type ``tp``, strictly."""
    if tp in _LEAVES:
        accepted, what = _LEAVES[tp]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        return float(value) if tp is float else value
    if tp == Profile:
        tp = _PROFILES[_tag(value, path, "type", "profile", _PROFILES)]
        keys = {"type": True, **_field_keys(tp)}
    elif tp is Geometry:
        kind = _tag(value, path, "kind", "geometry", _GEOMETRY_KEYS)
        keys = {"kind": True, "n_cells": True, **_GEOMETRY_KEYS[kind]}
    else:
        keys = _field_keys(tp)
    paths = {k: f"{path}.{k}" for k in keys}
    if tp is ScenarioConfig:
        nested = {k: keys.pop(k) for k in _SCENARIO_PROFILES}
        _check_keys(value, path, {**keys, "profiles": True})
        _check_keys(value["profiles"], f"{path}.profiles", nested)
        value = {**value, **value["profiles"]}
        paths.update((k, f"{path}.profiles.{k}") for k in nested)
    else:
        _check_keys(value, path, keys)
    hints = get_type_hints(tp)
    kw = {f.name: _decode(hints[f.name], value[f.name], paths[f.name])
          for f in dataclasses.fields(tp) if f.name in value}
    try:
        return tp(**kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _encode(obj: Any) -> Any:
    """JSON-ready echo of a schema dataclass, with every key explicit."""
    if not dataclasses.is_dataclass(obj):
        return obj
    d = {f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, get_args(Profile)):
        return {"type": type(obj).__name__.lower(), **d}
    if isinstance(obj, Geometry):
        keep = ("kind", "n_cells", *_GEOMETRY_KEYS[obj.kind])
        return {k: v for k, v in d.items() if k in keep}
    if isinstance(obj, ScenarioConfig):
        out: dict = {}
        for k, v in d.items():
            if k in _SCENARIO_PROFILES:
                out.setdefault("profiles", {})[k] = v
            else:
                out[k] = v
        return out
    return d


def config_from_dict(d: Mapping, path: str = "config") -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON object, strictly."""
    return _decode(ScenarioConfig, d, path)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Full (all keys explicit) JSON-ready echo of a ScenarioConfig."""
    return _encode(cfg)


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def read_config(path: str) -> ScenarioConfig:
    return config_from_dict(_load_json(path), path=os.path.basename(path))


def write_config(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def read_sweep_spec(path: str) -> SweepSpec:
    """Sweep file: {"base": <config or {"preset","variant"}>,
    "overrides": [{"path","values"}], "mode": "product"|"zip"}.

    Each override value is decoded as the type of the field its path names.
    """
    doc = _load_json(path)
    name = os.path.basename(path)
    _check_keys(doc, name, {"base": True, "overrides": False, "mode": False})
    base_doc = doc["base"]
    if isinstance(base_doc, Mapping) and "preset" in base_doc:
        bpath = f"{name}.base"
        _check_keys(base_doc, bpath, {"preset": True, "variant": True})
        variant = base_doc["variant"]
        if isinstance(variant, bool) or not isinstance(variant, (str, int, float)):
            raise ConfigError(f"{bpath}.variant: expected a string or a number, "
                              f"got {variant!r}")
        base = preset(_decode(str, base_doc["preset"], f"{bpath}.preset"), variant)
    else:
        base = config_from_dict(base_doc, path=f"{name}.base")
    overrides = []
    for i, ov in enumerate(doc.get("overrides", [])):
        opath = f"{name}.overrides[{i}]"
        _check_keys(ov, opath, {"path": True, "values": True})
        field_path = _decode(str, ov["path"], f"{opath}.path")
        try:
            node, attr = walk(base, field_path)[-1]
            tp = get_type_hints(type(node))[attr]
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{opath}.path: {field_path!r} does not name "
                              f"a config field") from exc
        values = ov["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{opath}.values: expected a nonempty list")
        overrides.append((field_path, tuple(
            _decode(tp, v, f"{opath}.values[{j}]") for j, v in enumerate(values))))
    mode = doc.get("mode", "product")
    try:
        return SweepSpec(base=base, overrides=tuple(overrides), mode=mode)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _write_csv(path: str, names: Sequence[str],
               rows: Iterable[Iterable[Any]]) -> None:
    """Header, then rows; floats get 17 significant digits (exact round trip)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow(f"{v:.17g}" if isinstance(v, float) else str(v)
                            for v in row)


def write_records(records: Sequence[DiagnosticsRecord], path: str) -> None:
    names = record_fields()
    _write_csv(path, names, ([getattr(r, k) for k in names] for r in records))


def read_records(path: str) -> list[DiagnosticsRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != record_fields():
            raise ConfigError(f"{path}: unexpected columns {header}")
        return [DiagnosticsRecord(**{k: float(v) for k, v in zip(header, row)})
                for row in reader]


def manifest_to_dict(m: RunManifest) -> dict:
    return _encode(m)


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
    _write_csv(path, names, ([row.get(k, "") for k in names] for row in rows))

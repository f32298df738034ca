#!/usr/bin/env python3
"""Digest a golden set of runs, to show that a refactor changes no result.

    python3 benchmarks/golden_digest.py run --out FILE [--checkout DIR]
    python3 benchmarks/golden_digest.py compare A B

``run`` integrates, in one subprocess on ``DIR/src`` (default: this
checkout), the eight presets to their ``t_end``, ``fig1_right`` l = 14
with ``gamma = 0`` to its ``t_end`` and the seed-1 ``dense-records`` config
of ``perfbench.workloads``, and writes one JSON object per run to
``FILE``.  The ``gamma = 0`` run is the one where kappa = 0, so the
Lyapunov weight ``a`` and every ``L_lyap`` are infinite, and where the
nutrient phase ends at the snap (near t = 1.94) rather than at its
certified tail; its ``mass_bound`` audit fails (see ROADMAP) and is
digested as it stands.  Each object holds:

* ``sha256_u``, ``sha256_v``, ``sha256_w`` -- of the final arrays' bytes,
* ``sha256_records`` -- of the ``records.csv`` the run writes,
* ``manifest`` -- ``manifest.json`` as a dict, without ``wall_time``,
* ``accepted``, ``rejected``, ``rebuilds`` -- the step counts,
* ``min_dt`` and ``I_end`` (the last record's ``I``) as ``float.hex``.

It adds one more object, ``heat[n=400]`` (:func:`digest_heat`), for the
other users of the diffusion operator, which no preset run reaches:

* ``L`` and ``t0`` -- ``reduced.stabilization_constants`` with the
  defaults of ``nutaxis heat``, and ``L_radial_d3`` and ``t0_radial_d3``
  of the same data on the radial d = 3 grid (n = 400), the geometry whose
  slowest mode decays slowest,
* ``heat_interval`` and ``heat_radial_d3`` -- ``reduced.heat_solve`` of
  that initial data (n = 400, D = 1, t_end = 10): ``sha256`` of the
  trajectory's arrays and mean, and ``int_ln_U_mid`` and ``int_ln_U_end``
  at the middle observation time ``t_mid`` and at t_end,
* ``transport_error_n100``, ``_n200``, ``_n400`` --
  ``verify.transport_error`` at those resolutions,

each float as ``float.hex``, and one object ``verify``
(:func:`digest_verify`), the ``nutaxis verify`` suite: each check's name,
``ok`` flag and detail string, so that a change to an oracle or to
``reduced`` shows as a value difference.

``compare`` prints every value that differs between two such files, by run
and dotted key, and exits 1 if there is any; a differing ``float.hex``
value (``HEX_KEYS``) is also shown in decimal, with its relative change.
A key present on one side only (a config key added or retired) is printed as a
schema line and does not by itself make ``compare`` exit 1.  For each run
it also prints the largest relative change over the numeric leaves both
sides have (``I_end`` and ``min_dt`` included).  Equal digests mean
bitwise equal final arrays and records.  One ``run`` takes about 13 s on a
2-vCPU host (12.4, 13.0 and 16.6 s measured), most of it in the two fig3
presets; ``verify`` takes about 1 s of it.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = [("fig1_left", 60), ("fig1_left", 120), ("fig1_left", 240),
           ("fig1_right", 1.4), ("fig1_right", 14), ("fig1_right", 20),
           ("fig3", 1), ("fig3", 3)]
DENSE_SEED = 1
HEAT_N = 400
HEAT_T_END = 10.0
TRANSPORT_N = (100, 200, 400)
# digested as float.hex
HEX_KEYS = ("I_end", "min_dt", "L", "t0", "L_radial_d3", "t0_radial_d3",
            "t_mid", "int_ln_U_mid", "int_ln_U_end",
            *(f"transport_error_n{n}" for n in TRANSPORT_N))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(result, out_dir: str) -> dict:
    """The digest of one finished run; writes its artifacts under out_dir."""
    from nutaxis import io as nio

    records_path, _ = nio.write_run(result, out_dir)
    manifest = nio.manifest_to_dict(result.manifest)
    del manifest["wall_time"]
    stats = result.manifest.stats
    return {
        **{f"sha256_{k}": _sha256(getattr(result.state, k).tobytes())
           for k in ("u", "v", "w")},
        "sha256_records": _sha256(Path(records_path).read_bytes()),
        "manifest": manifest,
        "accepted": stats["accepted"],
        "rejected": stats["rejected"],
        "rebuilds": stats["rebuilds"],
        "min_dt": float(stats["min_dt"]).hex(),
        "I_end": float(result.records[-1].I).hex(),
    }


def digest_heat() -> dict:
    """The ``heat[n=400]`` object: the heat flow, the stabilization
    constants and the transport oracle, each of which builds the diffusion
    operator itself instead of stepping a preset."""
    import numpy as np

    from nutaxis import Gaussian, build_grid, preset, reduced, sample
    from nutaxis.verify import transport_error

    u0 = Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.5)  # nutaxis heat
    # the presets' n = 400 geometries, so one script runs on either
    # geometry API
    grids = {"interval": build_grid(preset("fig1_left", 60).geometry),
             "radial_d3": build_grid(preset("fig3", 3).geometry)}
    out = {}
    for suffix, label in (("", "interval"), ("_radial_d3", "radial_d3")):
        grid = grids[label]
        L, t0 = reduced.stabilization_constants(sample(u0, grid), 1.0, grid)
        out[f"L{suffix}"], out[f"t0{suffix}"] = L.hex(), t0.hex()
    for label, grid in grids.items():
        traj = reduced.heat_solve(sample(u0, grid), 1.0, grid, HEAT_T_END)
        mid = len(traj.times) // 2
        arrays = (traj.times, traj.int_ln_u, traj.sup_dist,
                  np.array([traj.mean]))
        out[f"heat_{label}"] = {
            "sha256": _sha256(b"".join(a.tobytes() for a in arrays)),
            "t_mid": float(traj.times[mid]).hex(),
            "int_ln_U_mid": float(traj.int_ln_u[mid]).hex(),
            "int_ln_U_end": float(traj.int_ln_u[-1]).hex(),
        }
    for n in TRANSPORT_N:
        out[f"transport_error_n{n}"] = transport_error(n).hex()
    return out


def digest_verify() -> dict:
    """The ``verify`` object: ``{name: {"ok", "detail"}}`` of every check
    of ``verify.run_all``."""
    from nutaxis.verify import run_all

    return {c.name: {"ok": c.ok, "detail": c.detail}
            for c in run_all(printer=None)}


def digest_all() -> dict:
    """Run the golden set in this process (the subprocess side of ``run``)."""
    import nutaxis
    from nutaxis import experiments
    from perfbench import workloads

    configs = [(f"{name}[{value:g}]", experiments.preset(name, value))
               for name, value in PRESETS]
    l14 = experiments.preset("fig1_right", 14)
    configs.append(("fig1_right[14,gamma=0]", dataclasses.replace(
        l14, params=dataclasses.replace(l14.params, gamma=0.0))))
    dense = workloads.make("dense-records", DENSE_SEED).configs[0]
    configs.append((f"dense-records[seed={DENSE_SEED}]", dense))
    out = {"nutaxis": nutaxis.__file__, "runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, cfg) in enumerate(configs):
            result = experiments.run_scenario(cfg)
            out["runs"][label] = digest(result, os.path.join(tmp, str(i)))
            print(f"  {label}: {result.manifest.stats['accepted']} steps",
                  file=sys.stderr, flush=True)
    out["runs"][f"heat[n={HEAT_N}]"] = digest_heat()
    out["runs"]["verify"] = digest_verify()
    return out


def run(out: str, checkout: str) -> int:
    root = Path(checkout).resolve()
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import golden_digest; "
            "json.dump(golden_digest.digest_all(), sys.stdout)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "benchmarks")],
                          env=env, cwd=root, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return done.returncode
    doc = json.loads(done.stdout)
    if not Path(doc["nutaxis"]).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"imported {doc['nutaxis']}, not {root / 'src'}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc["runs"], fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}: {len(doc['runs'])} runs of {root}")
    return 0


def differences(a, b, path: str = "") -> tuple[list[str], list[str]]:
    """The dotted keys present on one side only (schema lines) and every
    value that differs between a and b (value lines)."""
    schema: list[str] = []
    values: list[str] = []
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            sub = f"{path}.{k}" if path else str(k)
            if k not in a or k not in b:
                schema.append(f"{sub}: only in {'A' if k in a else 'B'}")
            else:
                more_schema, more_values = differences(a[k], b[k], sub)
                schema += more_schema
                values += more_values
    elif a != b:
        line = f"{path}: {a!r} != {b!r}"
        if isinstance(a, str) and path.rsplit(".", 1)[-1] in HEX_KEYS:
            line += f" ({moved(a, b)})"
        values.append(line)
    return schema, values


def moved(a: str, b: str) -> str:
    """Two float.hex strings in decimal, with the relative change."""
    x, y = float.fromhex(a), float.fromhex(b)
    text = f"{x!r} -> {y!r}"
    if x != 0.0 and math.isfinite(x) and math.isfinite(y):
        text += f", relative {(y - x) / abs(x):+.3g}"
    return text


def _numbers(a, b, path: str = ""):
    # (key, x, y) of every numeric leaf both a and b have; the HEX_KEYS
    # strings are read as the floats they encode
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) & set(b)):
            yield from _numbers(a[k], b[k], f"{path}.{k}" if path else str(k))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _numbers(x, y, f"{path}[{i}]")
    elif isinstance(a, str) and isinstance(b, str):
        if path.rsplit(".", 1)[-1] in HEX_KEYS:
            yield path, float.fromhex(a), float.fromhex(b)
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        yield path, float(a), float(b)


def largest_change(a, b) -> tuple[float, str]:
    """The largest relative change ``|y - x| / |x|`` over the numeric
    leaves of two digests of one run, and its key (``inf`` where a 0 or
    non-finite value changed)."""
    worst, where = 0.0, ""
    for key, x, y in _numbers(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        rel = (abs(y - x) / abs(x) if x != 0.0 and math.isfinite(x)
               and math.isfinite(y) else math.inf)
        if rel > worst:
            worst, where = rel, key
    return worst, where


def compare(path_a: str, path_b: str) -> int:
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    schema, values = differences(*docs)
    for line in schema:
        print(f"schema: {line}")
    for line in values:
        print(line)
    for run in sorted(set(docs[0]) & set(docs[1])):
        worst, where = largest_change(docs[0][run], docs[1][run])
        print(f"{run}: largest relative change {worst:.3g}"
              + (f" ({where})" if where else ""))
    print(f"{len(values)} value difference(s) and {len(schema)} schema "
          f"line(s) over {len(set(docs[0]) | set(docs[1]))} runs")
    return 1 if values else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--checkout", default=str(ROOT))
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)
    if args.cmd == "run":
        return run(args.out, args.checkout)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

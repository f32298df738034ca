"""Command-line interface.

Subcommands: run, sweep, ode, heat, constants, verify.  Exit codes:
0 success, 1 usage/config error, 2 simulation failure (positivity or linear
solve), 3 verification-audit failure.  ``--threads`` (default 1) controls
sweep parallelism only (single runs are deterministically single-threaded).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional

from .diagnostics import derived_constants, jensen_gap
from .experiments import (
    ScenarioFailure,
    UnknownVariant,
    apply_override,
    preset,
    run_scenario,
    run_sweep,
)
from .grid import Interval, build_grid
from .model import ModelParams
from .profiles import Gaussian, init_state, sample
from .reduced import (
    OdeState,
    conserved_quantity,
    ode_end_state,
    ode_state,
    stabilization_constants,
)
from .stepper import LinearSolveFailure, PositivityViolation

__all__ = ["main", "build_parser"]


# the config paths of --n-cells, --dt and --t-end, each named by its last key
_OVERRIDE_PATHS = ("geometry.n_cells", "stepper.dt", "t_end")


def _add_overrides(p: argparse.ArgumentParser) -> None:
    """Scenario overrides, applied by :func:`_apply_overrides`."""
    p.add_argument("--n-cells", type=int, help="override the grid resolution")
    p.add_argument("--dt", type=float, help="override the base time step")
    p.add_argument("--t-end", type=float, help="override the time horizon")


def _apply_overrides(cfg, args: argparse.Namespace):
    for path in _OVERRIDE_PATHS:
        # `constants` has only --n-cells
        value = getattr(args, path.rpartition(".")[2], None)
        if value is not None:
            cfg = apply_override(cfg, path, value)
    return cfg


def _resolve_config(args: argparse.Namespace):
    from .io import read_config

    if args.config is not None:
        if args.preset is not None:
            raise UnknownVariant("give either a config file or --preset, not both")
        cfg = read_config(args.config)
    elif args.preset is not None:
        if args.variant is None:
            raise UnknownVariant(f"preset {args.preset!r} needs --variant")
        cfg = preset(args.preset, args.variant)
    else:
        raise UnknownVariant("need a config file or --preset NAME --variant V")
    return _apply_overrides(cfg, args)


def _cmd_run(args: argparse.Namespace) -> int:
    from .io import write_run

    cfg = _resolve_config(args)
    result = run_scenario(cfg)
    records_path, manifest_path = write_run(result, args.out_dir)
    final = result.records[-1]
    audits_ok = all(a["ok"] for a in result.manifest.audits.values())
    print(f"{cfg.name}: I(t_end) = {final.I:.6g}, "
          f"steps = {result.manifest.stats['accepted']}, "
          f"audits {'ok' if audits_ok else 'FAILED'}")
    print(f"wrote {records_path} and {manifest_path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .io import read_sweep_spec, write_sweep_table

    spec = read_sweep_spec(args.spec)
    for path in _OVERRIDE_PATHS:
        # an axis on the option's (leaf) path or on a prefix of it would
        # replace the option's value in every run
        option = path.rpartition(".")[2]
        axes = [a for a, _ in spec.overrides if f"{path}.".startswith(f"{a}.")]
        if getattr(args, option) is not None and axes:
            raise ValueError(f"--{option.replace('_', '-')} sets {path!r}, "
                             f"which the sweep axis {axes[0]!r} overrides")
    spec = dataclasses.replace(spec, base=_apply_overrides(spec.base, args))
    os.makedirs(args.out_dir, exist_ok=True)
    rows = run_sweep(spec, processes=args.threads, out_dir=args.out_dir)
    table = os.path.join(args.out_dir, "sweep_table.csv")
    write_sweep_table(rows, table)
    failures = sum(1 for r in rows if r["error"])
    print(f"{len(rows)} runs ({failures} failed); wrote {table}")
    return 0


def _cmd_ode(args: argparse.Namespace) -> int:
    params = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=args.alpha,
                         beta=args.beta, gamma=args.gamma, delta=args.delta)
    s0 = OdeState(0.0, args.u0, args.v0, args.w0)
    end = ode_end_state(s0, params)
    sign = (end.u > end.v) - (end.u < end.v)
    print(f"u_final = {end.u:.12g}")
    print(f"v_final = {end.v:.12g}")
    print(f"w_final = {end.w:.6g}")
    if params.delta > 0.0 and params.alpha > 0.0:  # Q is defined
        q0 = conserved_quantity(s0, params)
        drift = max(abs(conserved_quantity(
            ode_state(s0, params, end.tau * k / 1000), params) - q0)
            for k in range(1001))
        print(f"Q_drift_rel = {drift / abs(q0):.3e}" if q0
              else "Q_drift_rel = 0")
    print(f"sign(u - v) = {sign}  (sign(delta - alpha) = "
          f"{(args.delta > args.alpha) - (args.delta < args.alpha)})")
    return 0


def _cmd_heat(args: argparse.Namespace) -> int:
    grid = build_grid(Interval(args.n_cells))
    u0 = Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.5)
    field = sample(u0, grid)
    c1 = jensen_gap(field, grid).c1
    L, t0 = stabilization_constants(field, args.diffusion, grid)
    print(f"c1 = {c1:.12g}")
    print(f"L = {L:.12g}")
    print(f"t0 = {t0:.12g}")
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    grid = build_grid(cfg.geometry)
    state, _ = init_state(cfg.u0, cfg.v0, cfg.w0, grid)
    consts = derived_constants(state.v, state.w, cfg.params, grid, u0=state.u)
    print(f"kappa = {consts.kappa:.12g}")
    print(f"a = {consts.a:.12g}")
    print(f"b = {consts.b:.12g}")
    print(f"M_star = {consts.M_star:.12g}")
    print(f"sigma_star = {consts.sigma_star:.12g}")
    print(f"jensen_c1 = {consts.jensen_c1:.12g}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all

    results = run_all(seed=args.seed)
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nutaxis",
        description="Finite-volume simulator and diagnostics for two-species "
                    "nutrient-taxis competition.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario, write records + manifest")
    p_run.add_argument("config", nargs="?", default=None,
                       help="JSON scenario config")
    p_run.add_argument("--preset", help="shipped preset name, e.g. fig3")
    p_run.add_argument("--variant", default=None,
                       help="e.g. sigma=60, l=14, d=3")
    p_run.add_argument("--out-dir", default=".", help="artifact directory")
    _add_overrides(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec, write a table")
    p_sweep.add_argument("spec", help="JSON sweep spec")
    p_sweep.add_argument("--out-dir", default=".", help="artifact directory")
    _add_overrides(p_sweep)
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ode = sub.add_parser("ode", help="well-mixed end state at t = inf")
    p_ode.add_argument("--delta", type=float, required=True)
    p_ode.add_argument("--alpha", type=float, required=True)
    p_ode.add_argument("--beta", type=float, required=True)
    p_ode.add_argument("--gamma", type=float, required=True)
    p_ode.add_argument("--u0", type=float, required=True)
    p_ode.add_argument("--v0", type=float, required=True)
    p_ode.add_argument("--w0", type=float, required=True)
    p_ode.set_defaults(func=_cmd_ode)

    p_heat = sub.add_parser("heat", help="heat comparison constants L and t0")
    p_heat.add_argument("--diffusion", type=float, default=1.0)
    p_heat.add_argument("--n-cells", type=int, default=400,
                        help="grid resolution")
    p_heat.set_defaults(func=_cmd_heat)

    p_const = sub.add_parser("constants",
                             help="print derived constants without simulating")
    p_const.add_argument("config", nargs="?", default=None)
    p_const.add_argument("--preset", help="shipped preset name")
    p_const.add_argument("--variant", default=None)
    p_const.add_argument("--n-cells", type=int,
                         help="override the grid resolution")
    p_const.set_defaults(func=_cmd_constants)

    p_verify = sub.add_parser("verify", help="run the oracle/invariant suite")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized property checks")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors; remap to 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ScenarioFailure, PositivityViolation, LinearSolveFailure) as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return 2
    except (UnknownVariant, ValueError) as exc:  # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: nutaxis is imported from
``./src``, and artifacts go to ``./.perfbench/``.  Repetitions of the
workload run back to back (a closed loop) until ``--seconds`` have passed;
every repetition's outputs are checked (see ``workloads.check``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: mean wall
time of a repetition over the run (timed seconds / repetitions), mean set-up
time over ``SETUP_PROBES`` fresh processes, accepted steps and peak RSS.
Means, not medians: the host this was written on (a 2-vCPU VM) runs the same
code at one of two speeds about 2x apart and switches every few seconds, so
a median or a minimum jumps between the two levels from run to run, while a
mean moves only with the share of slow seconds.

``--trace 1`` prints the per-layer metrics: it times ``SETUP_PROBES`` traced
set-ups, then pairs of one untraced and one traced repetition (alternating
which runs first) for ``--seconds``.
The span wrappers of ``perfbench/trace.py`` are installed only around the
traced set-ups and traced repetitions.

stdout ends with an ``env: {...}`` line (backend, library versions, cores,
commit, seed, repetition counts) and then the JSON result, whose ``failed``
and ``attempted`` count scenario runs.  Exits 2 without a result when the
checkout holds no ``src/nutaxis``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
GLUE_SLACK_S = 1e-3  # harness time allowed between spans of one repetition


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up sample, in a child
    return p.parse_args(argv)


@dataclass
class Rep:
    wall: float
    checked: object
    bytes_written: int
    spans: object = None


@dataclass
class Totals:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, rep: Rep) -> None:
        for reasons in rep.checked.failures:
            self.attempted += 1
            if reasons:
                self.failed += 1
                self.reasons.extend(reasons)


def run_rep(work, totals, tracer=None) -> Rep:
    """One checked repetition, traced when ``tracer`` is given.

    The span wrappers are installed only around a traced repetition.
    """
    from perfbench import trace, workloads

    out_dir = OUT / "out" / work.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    with trace.installed(tracer) if tracer else contextlib.nullcontext():
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        began = time.perf_counter_ns()
        runs = workloads.run_once(work, out_dir)
        wall = (time.perf_counter_ns() - began) * 1e-9
    checked = workloads.check(work, runs, out_dir)
    size = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    rep = Rep(wall, checked, size)
    if tracer is not None:
        rep.spans = trace.Spans(tracer.spans)
    totals.add(rep)
    return rep


def probe_setup(args) -> int:
    began = time.perf_counter()
    from perfbench import workloads

    workloads.setup(args.workload, args.seed)
    print(time.perf_counter() - began)
    return 0


def setup_seconds(args) -> float:
    """Mean set-up time over fresh processes (imports included)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.fmean(samples)


def end_to_end(args, reps: list[Rep], rss_mb: float) -> dict:
    steps = [sum(m["stats"]["accepted"] for m in r.checked.manifests)
             for r in reps]
    return {
        "wall_s": statistics.fmean(r.wall for r in reps),
        "setup_s": setup_seconds(args),
        "steps_accepted": statistics.median(steps),
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile_us(samples, q) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) * 1e6 if len(samples) else 0.0


def rep_layers(work, rep: Rep) -> dict:
    """Per-layer numbers of one traced repetition."""
    from perfbench.trace import SEGMENT_RUNNERS

    s = rep.spans
    attempts = s.count("kernels.attempt_step_numpy")
    advances = s.notes("stepper.advance")
    accepted = sum(a[0] for a in advances)
    rejected = sum(a[1] for a in advances)
    rebuilds = sum(a[2] for a in advances)
    run_wall = sum(m["wall_time"] for m in rep.checked.manifests)
    if work.spec is not None:
        outer_wall = s.total("experiments.run_sweep")
    else:
        outer_wall = rep.wall
    return {
        "kernels.segment_calls": s.count(*SEGMENT_RUNNERS),
        "kernels.segment_s": s.total(*SEGMENT_RUNNERS),
        "kernels.attempts": attempts,
        "kernels.loop_self_us": (s.self_total(*SEGMENT_RUNNERS) / attempts * 1e6
                                 if attempts else 0.0),
        "kernels.accept_ratio": accepted / max(accepted + rejected, 1),
        "stepper.advance_s": s.total("stepper.advance"),
        "stepper.self_s": s.layer_self("stepper"),
        "stepper.rejected": rejected,
        "stepper.rebuilds": rebuilds,
        "stepper.rebuild_ratio": rebuilds / max(accepted, 1),
        "stepper.min_dt": min((a[3] for a in advances), default=0.0),
        "diagnostics.records": s.count("diagnostics.evaluate_record"),
        "diagnostics.audit_s": s.total("diagnostics.integrated_inequality_audit"),
        "operators.calls": s.layer_calls("operators"),
        "operators.s": s.layer_self("operators"),
        "io.write_s": s.total("io.write_run"),
        "io.bytes_written": rep.bytes_written,
        "io.sweep_table_s": s.total("io.write_sweep_table"),
        "experiments.run_s": s.total("experiments.run_scenario"),
        "experiments.self_s": s.self_total("experiments.run_scenario",
                                           "experiments.observe"),
        "experiments.pool_util": run_wall / outer_wall,
    }


def traced_setups(args, tracer) -> dict:
    from perfbench import workloads
    from perfbench.trace import Spans

    samples = []
    for _ in range(SETUP_PROBES):
        tracer.reset()
        tracer.active = True
        workloads.setup(args.workload, args.seed)
        tracer.active = False
        s = Spans(tracer.spans)
        samples.append({
            "grid.build_s": s.total("grid.build_grid"),
            "profiles.init_s": s.total("profiles.init_state"),
            "diagnostics.constants_s": s.total("diagnostics.derived_constants"),
        })
    return {k: statistics.median(x[k] for x in samples) for k in samples[0]}


def per_layer(work, untraced, traced, setup_layers) -> tuple[dict, list]:
    """Median per-layer numbers over the traced repetitions.

    ``untraced[i]`` and ``traced[i]`` ran back to back; the tracing overhead
    is the median of their differences.
    Returns the metrics and the reasons, if any, why the trace does not
    account for the traced wall time.
    """
    import numpy as np

    per_rep = [rep_layers(work, r) for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    attempts = np.concatenate([r.spans.durations("kernels.attempt_step_numpy")
                               for r in traced])
    records = np.concatenate([r.spans.durations("diagnostics.evaluate_record")
                              for r in traced])
    metrics["kernels.attempt_us_p50"] = _percentile_us(attempts, 50)
    metrics["kernels.attempt_us_p99"] = _percentile_us(attempts, 99)
    metrics["diagnostics.record_us_p50"] = _percentile_us(records, 50)
    metrics["diagnostics.record_us_p99"] = _percentile_us(records, 99)
    metrics.update(setup_layers)
    overhead = statistics.median(t.wall - u.wall
                                 for t, u in zip(traced, untraced))
    metrics["trace.overhead_s"] = overhead
    problems = []
    for r in traced:
        gap = r.wall - r.spans.attributed_s()
        if not 0.0 <= gap <= abs(overhead) + GLUE_SLACK_S:
            problems.append(f"span self-times miss {gap:.6f} s of the traced "
                            f"wall {r.wall:.6f} s (overhead {overhead:.6f} s)")
    return metrics, problems


def write_spans(work, rep: Rep) -> Path:
    path = OUT / "trace" / f"{work.name}.spans.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,name,duration_s\n")
        for row in rep.spans.rows():
            fh.write("%d,%d,%s,%.9f\n" % row)
    return path


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, work, reps, traced) -> dict:
    import numpy as np

    backends = sorted({m["stats"]["backend"] for r in reps + traced
                       for m in r.checked.manifests})
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "setup_probes": SETUP_PROBES,
        "backend": ",".join(backends) or "none",
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": _version("scipy"), "numba": _version("numba"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_sha256": source_sha256(),
    }


def declared_units(key: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nutaxis" / "__init__.py").is_file():
        print(f"error: no nutaxis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.probe_setup:
        return probe_setup(args)

    from perfbench import trace, workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {workloads.NAMES}", file=sys.stderr)
        return 2
    work = workloads.setup(args.workload, args.seed)
    totals = Totals()
    reps: list[Rep] = []
    traced: list[Rep] = []
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        tracer = trace.Tracer()
        with trace.installed(tracer):
            setup_layers = traced_setups(args, tracer)
        while not traced or time.perf_counter() < deadline:
            order = (None, tracer) if len(traced) % 2 == 0 else (tracer, None)
            for t in order:
                (traced if t else reps).append(run_rep(work, totals, t))
        values, problems = per_layer(work, reps, traced, setup_layers)
        units = declared_units("per_layer")
        print(f"spans of the last traced repetition: {write_spans(work, traced[-1])}")
    else:
        while not reps or time.perf_counter() < deadline:
            reps.append(run_rep(work, totals))
        values = end_to_end(args, reps, peak_rss_mb())
        problems = []
        units = declared_units("end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(units)}")

    for reason in (totals.reasons + problems)[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)
    for name in units:
        print(f"{name:<28} {values[name]:>16.6g} {units[name]}")
    print(f"{'fail_ratio':<28} {totals.failed:>10d}/{totals.attempted} scenario runs")
    print("wall_s of each repetition:",
          " ".join(f"{r.wall:.4f}" for r in reps + traced))
    print("env: " + json.dumps(environment(args, work, reps, traced),
                               sort_keys=True))
    print(json.dumps({
        "correct": totals.failed == 0 and not problems,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Turn ``perfbench`` suite runs into a committed ``BENCH_*.json`` file.

    python3 benchmarks/bench_report.py run --out change.jsonl --seeds 1 2
        [--checkout DIR] [--trace 0 1] [--workloads NAME ...]
    python3 benchmarks/bench_report.py report --out BENCH_6.json
        --side parent=parent.jsonl --side change=change.jsonl
        [--spans parent=PARENT_DIR --spans change=CHANGE_DIR]

``run`` calls ``perfbench/suite.py run`` of the checkout at ``--checkout``
(default: this one) once per ``--trace`` mode, appending its JSON lines to
``--out``.  Run it on a parent checkout and on the change in turn, one seed
at a time, so that both sides see the same host.

``report`` reads those JSON-lines files, one per side, and writes:

* per side, workload and metric of ``BENCHMARK.json``: median, quartiles,
  sample count and every value; the end-to-end metrics come from the
  ``--trace 0`` runs, the per-layer metrics from the ``--trace 1`` runs;
* per side and workload, microseconds per accepted step
  (``wall_s / steps_accepted`` of each run), the seeds, the repetitions
  per run and the environment (library versions, ``nproc``, commit);
* when a side is named ``parent`` and another ``change``: per workload and
  end-to-end metric, the relative change of the median, the bound of
  ``BENCHMARK.json``, and the seeds on which the change was better;
* with ``--spans NAME=CHECKOUT``, per side and workload, the record layer
  of the checkout's last traced repetition (its ``.perfbench/trace`` spans
  and ``.perfbench/out`` records): calls and seconds of each record span,
  and microseconds per output record.

All runs must share one kernel backend; it is stated at the top level.
"""
from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.suite import benchmark, load, quartiles  # noqa: E402

RECORD_SPANS = ("diagnostics.evaluate_records",)
RECORD_NOTE = (
    "per-layer diagnostics.records and diagnostics.record_us_p50/p99 count "
    "only diagnostics.evaluate_record spans, a one-row function that no "
    "run calls (run_scenario evaluates records in blocks through "
    "diagnostics.evaluate_records) and that is now gone, so they read 0; "
    "the record cost is the evaluate_records span time per record given "
    "here; span times include the tracer's cost for the operators spans "
    "nested in them")
ENV_KEYS = ("python", "numpy", "scipy", "numba", "nproc", "git_commit",
            "source_sha256", "seconds", "setup_probes")


def summary(values: list) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def side_report(records: list[dict], spec: dict) -> dict:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    out: dict = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        e2e = [r for r in runs if r["trace"] == 0]
        layer = [r for r in runs if r["trace"] == 1]
        entry: dict = {
            "seeds": {"trace0": [r["seed"] for r in e2e],
                      "trace1": [r["seed"] for r in layer]},
            "repetitions": {"trace0": [r["env"]["repetitions"] for r in e2e],
                            "trace1": [r["env"]["traced_repetitions"]
                                       for r in layer]},
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "env": {k: sorted({str(r["env"][k]) for r in runs})
                    for k in ENV_KEYS},
        }
        for key, group, names in (("end_to_end", e2e, spec["end_to_end"]),
                                  ("per_layer", layer, spec["per_layer"])):
            entry[key] = {
                m["name"]: dict(summary([r["result"]["metrics"][m["name"]]
                                         ["value"] for r in group]),
                                unit=units[m["name"]])
                for m in names if group}
        if e2e:
            entry["us_per_step"] = summary([
                r["result"]["metrics"]["wall_s"]["value"]
                / r["result"]["metrics"]["steps_accepted"]["value"] * 1e6
                for r in e2e])
        out[workload] = entry
    return out


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """Median changes and per-seed wins of the change's end-to-end runs."""
    out: dict = {}
    for workload in sorted({r["workload"] for r in parent + change}):
        by_seed = [{r["seed"]: r["result"]["metrics"]
                    for r in side if r["workload"] == workload
                    and r["trace"] == 0} for side in (parent, change)]
        seeds = sorted(set(by_seed[0]) & set(by_seed[1]))
        if not seeds:
            continue
        rows = {}
        for m in spec["end_to_end"]:
            a = [by_seed[0][s][m["name"]]["value"] for s in seeds]
            b = [by_seed[1][s][m["name"]]["value"] for s in seeds]
            pa, pb = quartiles(a), quartiles(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            rows[m["name"]] = {
                "parent_median": pa[1], "change_median": pb[1],
                "change": (pb[1] - pa[1]) / pa[1] if pa[1] else 0.0,
                "parent_quartile_distance": pa[2] - pa[0],
                "bound": m["bound"], "better": m["better"],
                "change_better_seeds": [s for s, x, y in zip(seeds, a, b)
                                        if sign * (x - y) > 0.0],
                "seeds": seeds,
            }
        out[workload] = rows
    return out


def record_layer(checkout: Path) -> dict:
    """Record spans of the last traced repetition of each workload."""
    out: dict = {}
    perf = checkout / ".perfbench"
    for path in sorted((perf / "trace").glob("*.spans.csv")):
        workload = path.name.removesuffix(".spans.csv")
        with open(path, encoding="utf-8") as fh:
            spans = list(csv.DictReader(fh))
        records = 0
        for rec in (perf / "out" / workload).glob("run_*/records.csv"):
            with open(rec, encoding="utf-8") as fh:
                records += sum(1 for _ in fh) - 1
        entry: dict = {"records": records}
        for name in RECORD_SPANS:
            secs = [float(s["duration_s"]) for s in spans if s["name"] == name]
            entry[name] = {"calls": len(secs), "s": sum(secs),
                           "us_per_record": (sum(secs) / records * 1e6
                                             if records else 0.0)}
        out[workload] = entry
    return out


def report(sides: dict[str, list[dict]]) -> dict:
    spec = benchmark()
    backends = sorted({r["env"]["backend"] for recs in sides.values()
                       for r in recs})
    if len(backends) != 1:
        raise SystemExit(f"runs use different kernel backends: {backends}")
    doc = {"backend": backends[0],
           "note": f"every number comes from the {backends[0]} kernel backend",
           "command": spec["command"],
           "sides": {name: side_report(recs, spec)
                     for name, recs in sides.items()}}
    if "parent" in sides and "change" in sides:
        doc["comparison"] = compare(sides["parent"], sides["change"], spec)
    return doc


def run(args) -> int:
    suite = Path(args.checkout).resolve() / "perfbench" / "suite.py"
    out = str(Path(args.out).resolve())
    for trace in args.trace:
        cmd = [sys.executable, str(suite), "run", "--out", out,
               "--trace", str(trace), "--seeds", *map(str, args.seeds)]
        if args.workloads:
            cmd += ["--workloads", *args.workloads]
        done = subprocess.run(cmd, cwd=suite.parent.parent)
        if done.returncode != 0:
            return done.returncode
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", type=int, nargs="+", required=True)
    r.add_argument("--checkout", default=str(ROOT))
    r.add_argument("--trace", type=int, nargs="+", choices=(0, 1),
                   default=[0, 1])
    r.add_argument("--workloads", nargs="+")
    s = sub.add_parser("report")
    s.add_argument("--out", required=True)
    s.add_argument("--side", action="append", required=True,
                   metavar="NAME=FILE.jsonl")
    s.add_argument("--spans", action="append", default=[],
                   metavar="NAME=CHECKOUT")
    args = p.parse_args(argv)

    if args.cmd == "run":
        return run(args)
    sides = dict(item.split("=", 1) for item in args.side)
    doc = report({name: load(path) for name, path in sides.items()})
    if args.spans:
        doc["record_layer"] = {
            "note": RECORD_NOTE,
            "sides": {name: record_layer(Path(path).resolve())
                      for name, path in (item.split("=", 1)
                                         for item in args.spans)}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}: backend {doc['backend']}, "
          f"sides {', '.join(sides)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

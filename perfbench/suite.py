#!/usr/bin/env python3
"""Run every workload over several seeds, summarise, and compare two sets.

    python3 perfbench/suite.py run --seeds 1 2 3 --out A.jsonl [--trace 1]
        [--workloads sigma-sweep ...] [--seconds S]
    python3 perfbench/suite.py compare A.jsonl B.jsonl

``run`` calls ``perfbench/run.py`` once per (workload, seed), one after the
other, appends each result with its environment block to the JSON-lines
file, and prints each metric's median, quartiles and spread (quartile
distance over median).  ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``.

``compare`` prints, per workload and metric, both medians and their change
against the metric's bound.  It flags results whose kernel backends differ
(for example numba against numpy), and then exits 3: such numbers measure
different code.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[-2].removeprefix("env: "))
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "result": json.loads(lines[-1])}


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_metric(records: list[dict]) -> dict:
    """{(workload, trace): {metric: [values]}} plus failures per group."""
    groups: dict = {}
    for rec in records:
        group = groups.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["result"]["metrics"].items():
            group.setdefault(name, []).append(m["value"])
        group.setdefault("_failed", []).append(rec["result"]["failed"])
    return groups


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(records: list[dict]) -> None:
    for (workload, trace), metrics in sorted(by_metric(records).items()):
        failed = metrics.pop("_failed")
        print(f"== {workload} (trace {trace}): {len(failed)} runs, "
              f"{sum(failed)} failed scenario runs")
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<28} median {med:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}")


def compare(a: list[dict], b: list[dict]) -> int:
    backends = {side: sorted({r["env"]["backend"] for r in recs})
                for side, recs in (("A", a), ("B", b))}
    bounds = {m["name"]: m for m in benchmark()["end_to_end"]}
    ga, gb = by_metric(a), by_metric(b)
    for key in sorted(set(ga) & set(gb)):
        print(f"== {key[0]} (trace {key[1]}): failed runs "
              f"A {sum(ga[key].pop('_failed'))}, B {sum(gb[key].pop('_failed'))}")
        for name in ga[key]:
            if name not in gb[key]:
                continue
            ma = statistics.median(ga[key][name])
            mb = statistics.median(gb[key][name])
            change = (mb - ma) / ma if ma else 0.0
            line = f"  {name:<28} A {ma:<14.6g} B {mb:<14.6g} {change:+.2%}"
            spec = bounds.get(name) if key[1] == 0 else None
            if spec is not None:
                worse = change if spec["better"] == "lower" else -change
                verdict = "WORSE" if worse > spec["bound"] else "within"
                line += f"  {verdict} bound {spec['bound']}"
            print(line)
    if backends["A"] != backends["B"]:
        print(f"FLAG: kernel backends differ: A {backends['A']}, "
              f"B {backends['B']}; these results are not comparable")
        return 3
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", type=int, nargs="+", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", nargs="+")
    r.add_argument("--seconds", type=float)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)

    if args.cmd == "compare":
        return compare(load(args.a), load(args.b))
    spec = benchmark()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    records = []
    with open(args.out, "a", encoding="utf-8") as fh:
        for workload in workloads:
            for seed in args.seeds:
                rec = run_one(workload, seed, seconds, args.trace)
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                records.append(rec)
    summarise(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())

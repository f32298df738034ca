"""Tests of the benchmark itself: metric output, output checks, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import csv
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace_flag", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_one_run_prints_every_metric_with_its_unit(workload, trace_flag):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace_flag))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace_flag else "end_to_end"]
    assert ({k: m["unit"] for k, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    env = json.loads(lines[-2].removeprefix("env: "))
    assert env["backend"] in ("numpy", "numba")
    assert env["seed"] == 3 and env["repetitions"] >= 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "sigma-sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_only_dense_records_depends_on_the_seed():
    for name in ("fig3-front", "sigma-sweep"):
        assert workloads.make(name, 1).configs == workloads.make(name, 2).configs
    one, two = (workloads.make("dense-records", s).configs[0] for s in (1, 2))
    assert one.output != two.output
    assert one.output == workloads.make("dense-records", 1).configs[0].output


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    work = workloads.setup("sigma-sweep", 0)
    return work, workloads.run_once(work, out), out


def _flip_memory_sign(runs, out):
    runs[1]["I"], runs[1]["sign"] = -runs[1]["I"], -runs[1]["sign"]


def _flip_table_sign(runs, out):
    path = out / "sweep_table.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[1]["sign_final_I"] = str(-int(rows[1]["sign_final_I"]))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _fail_an_audit(runs, out):
    path = workloads.run_dir(out, 1) / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["audits"]["sup_decay"]["ok"] = False
    path.write_text(json.dumps(manifest))


def _set_last_records_i(out, value):
    path = workloads.run_dir(out, 1) / "records.csv"
    lines = path.read_text().splitlines()
    header, last = lines[0].split(","), lines[-1].split(",")
    last[header.index("I")] = repr(value)
    path.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")


def _alter_records_csv(runs, out):
    _set_last_records_i(out, 2.0 * runs[1]["I"])


def _move_i_off_reference(runs, out):
    runs[1]["I"] *= 1.05
    _set_last_records_i(out, runs[1]["I"])


def _raise_in_run(runs, out):
    runs[1].update(I=None, sign=None, error="ScenarioFailure: positivity")


def test_clean_sweep_passes_its_checks(sweep_out):
    work, runs, out = sweep_out
    assert workloads.check(work, runs, out).failures == [[], [], []]


@pytest.mark.parametrize("corrupt", [
    _flip_memory_sign, _flip_table_sign, _fail_an_audit, _alter_records_csv,
    _move_i_off_reference, _raise_in_run])
def test_corrupted_sweep_run_is_a_failure(sweep_out, tmp_path, corrupt):
    work, runs, out = sweep_out
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    runs = [dict(r) for r in runs]
    corrupt(runs, copy)
    failures = workloads.check(work, runs, copy).failures
    assert [bool(f) for f in failures] == [False, True, False]


def _nutaxis_functions():
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            if name == "nutaxis" or name.startswith("nutaxis.")
            for attr, obj in vars(mod).items() if inspect.isfunction(obj)}


def test_traced_setup_records_layer_spans_and_removes_wrappers():
    before = _nutaxis_functions()
    tracer = trace.Tracer()
    with trace.installed(tracer):
        assert _nutaxis_functions() != before
        tracer.active = True
        workloads.setup("dense-records", 0)
        tracer.active = False
    assert _nutaxis_functions() == before
    spans = trace.Spans(tracer.spans)
    for name in ("grid.build_grid", "profiles.init_state",
                 "diagnostics.derived_constants", "stepper.advance"):
        assert spans.count(name) == 1, name
    assert spans.count(*trace.SEGMENT_RUNNERS) == 1
    assert (spans.self_s >= 0).all()
    roots = spans.parent < 0
    assert spans.attributed_s() == pytest.approx(spans.dur[roots].sum())

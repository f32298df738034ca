"""The spans the benchmark's per-layer metrics read must all be recorded.

``perfbench/run.py`` sums spans by function name, so a renamed or inlined
function reads 0 there instead of failing; this test traces a one-run
sweep, with its artifacts and its table.
"""
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

import nutaxis.experiments as experiments  # noqa: E402
import nutaxis.io as nio  # noqa: E402
from perfbench import trace  # noqa: E402

# every span name a per-layer metric of perfbench/run.py totals, except
# diagnostics.evaluate_record, a one-row function that no run called and
# that is gone, so diagnostics.records and record_us_* read 0
READ_BY_RUN = ("stepper.advance", "kernels.segment_numpy",
               "kernels.attempt_step_numpy",
               "diagnostics.integrated_inequality_audit",
               "experiments.run_scenario", "io.write_run",
               "experiments.run_sweep", "io.write_sweep_table",
               "grid.build_grid", "profiles.init_state",
               "diagnostics.derived_constants")


def test_traced_run_records_every_span_the_benchmark_reads(tmp_path):
    base = replace(experiments.preset("fig1_left", 60), t_end=0.01)
    spec = experiments.SweepSpec(base=base, overrides=(("w0.value", (60.0,)),))
    tracer = trace.Tracer()
    with trace.installed(tracer):
        tracer.active = True
        rows = experiments.run_sweep(spec, out_dir=str(tmp_path))
        nio.write_sweep_table(rows, str(tmp_path / "sweep_table.csv"))
    assert rows[0]["error"] == ""
    spans = trace.Spans(tracer.spans)
    assert [name for name in READ_BY_RUN if spans.count(name) == 0] == []

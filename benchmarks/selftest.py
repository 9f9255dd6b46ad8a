"""Self-test of the benchmark itself (not of gptcone).

Run from the repository root:

    python3 benchmarks/selftest.py

It checks that a perturbed reference value is counted as a failure, that
a traced run's spans nest and restore the library afterwards, that the
tail rule picks the right sample, and that BENCHMARK.json names exactly
the metrics run.py prints.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def _expect(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_perturbed_reference(run, workloads, work_dir):
    tasks = [t for t in workloads.build("cli_verify", 0, work_dir,
                                        ROOT / "src", "inproc")
             if t.name.startswith(("classify-dovm", "discriminate"))]
    _expect(len(tasks) == 2, "cli_verify has classify-dovm and discriminate")
    clean = run.summarize([run.run_pass(tasks, workloads)])
    _expect(clean["error_rate"] == 0 and clean["wrong"] == 0,
            f"unperturbed references pass: {clean['failures']}")
    for key, wrong_value in (("fixture_overlap", 0.76),
                             ("fixture_helstrom", 0.14)):
        saved = workloads.REFERENCE[key]
        workloads.REFERENCE[key] = wrong_value
        try:
            s = run.summarize([run.run_pass(tasks, workloads)])
        finally:
            workloads.REFERENCE[key] = saved
        _expect(s["error_rate"] == 0.5 and s["wrong"] == 1,
                f"perturbed {key} raises error_rate (got {s['error_rate']})")


def check_trace_nesting(run, workloads, tracing, work_dir):
    import gptcone.cones as cones
    import numpy as np

    original = (cones.membership, np.linalg.eigh)
    oracle = workloads.build("oracle_sweep", 0, work_dir, ROOT / "src")
    picked = [t for t in oracle if "SEP" in t.name][:60]
    picked += [next(t for t in oracle if t.name.startswith("dovm_chain"))]
    picked += [t for t in workloads.build("cli_verify", 0, work_dir,
                                          ROOT / "src", "inproc")
               if t.name == "verify-all --fast"]
    tracer = tracing.Tracer()
    with tracer.installed():
        _expect(cones.membership is not original[0], "membership is wrapped")
        s = run.summarize([run.run_pass(picked, workloads, tracer)])
    _expect((cones.membership, np.linalg.eigh) == original,
            "wrappers are removed after the traced run")
    _expect(s["failed"] == 0, f"traced tasks pass: {s['failures']}")
    _expect(not tracer.nesting_errors(), tracer.nesting_errors()[:3])
    nested = [sp for sp in tracer.spans if sp[3] >= 0]
    _expect(nested, "some spans have a parent span")
    _expect({sp[4] for sp in tracer.spans} <= {f"0/{t.name}" for t in picked},
            "every span belongs to a timed task")
    for name, agg in tracer.layer_totals().items():
        _expect(agg["self"] >= -1e-9 and agg["self"] <= agg["busy"] + 1e-9,
                f"{name}: 0 <= self <= busy")
    layer = tracing.layer_metrics(tracer, 1)
    _expect(layer["cones.min_product_expectation.calls"] > 0,
            "SEP_DUAL product searches are traced")
    _expect(layer["pses.predual_audit.busy_ms"] > 0,
            "calls made inside the CLI are traced")
    _expect(layer["numpy.eigh.calls"] > 0, "eigh kernels are counted")


def check_tail(run):
    _expect(run.tail(list(range(1, 101))) == (90, 90.0, 10),
            "tail of 1..100 is p90 = 90")
    _expect(run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0),
            "tail of fewer than eleven samples is the maximum")


def check_benchmark_json(run, tracing, workloads):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == run.END_TO_END, "end_to_end names and units match run.py")
    _expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == tracing.PER_LAYER, "per_layer names and units match tracing.py")
    _expect([w["name"] for w in spec["workloads"]]
            == list(workloads.WORKLOADS), "workload names match workloads.py")


def main() -> int:
    import run

    for v in run.BLAS_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    out_dir = ROOT / run.RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_dir))
    try:
        check_tail(run)
        check_benchmark_json(run, tracing, workloads)
        check_perturbed_reference(run, workloads, work_dir)
        check_trace_nesting(run, workloads, tracing, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

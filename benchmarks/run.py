"""gptcone benchmark runner.

Run from the repository root:

    python3 benchmarks/run.py --workload cone_solve --seed 1 --seconds 10 --trace 0

Workloads (see METRICS.md): ``cli_verify``, ``cone_solve``,
``oracle_sweep``.  One client runs the workload's fixed task list in
closed loop, in whole passes that fit in ``--seconds`` (at least one
pass).  Every task's output is checked against a reference.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Details (provenance, per-task values and their digest, spans) go to
``.bench_results/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
IMPORTTIME_RUNS = 3
RESULTS_DIR = ".bench_results"

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"), ("ok_frac", "fraction"),
    ("decided_frac", "fraction"), ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli_verify", "cone_solve", "oracle_sweep"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: build the inputs and print the seconds since the parent's
    # perf_counter() reading given here (CLOCK_MONOTONIC is system-wide).
    p.add_argument("--setup-probe", type=float, metavar="T0",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- running

def run_pass(tasks, workloads, tracer=None, pass_no=0) -> list[dict]:
    """Run every task once, closed loop; time only the library call.
    Traced spans carry ``<pass_no>/<task name>`` as their request id."""
    records = []
    for task in tasks:
        if tracer is not None:
            tracer.task = f"{pass_no}/{task.name}"
        t0 = perf_counter()
        try:
            out, err = task.call(), None
        except Exception as exc:  # a failed task is counted, never fatal
            out, err = None, exc
        ms = 1e3 * (perf_counter() - t0)
        if tracer is not None:
            tracer.task = None
        rec = {"task": task.name, "ms": ms, "verdict": task.verdict,
               "decided": False}
        if err is None:
            try:
                values = task.check(out)
                rec.update(outcome="ok", values=values,
                           decided=bool(values.get("decided", False)))
            except workloads.Raised as exc:
                rec.update(outcome="raised", error=str(exc))
            except Exception as exc:  # wrong or malformed output
                rec.update(outcome="wrong", error=repr(exc)[:300])
        else:
            rec.update(outcome="raised", error=repr(err)[:300])
        records.append(rec)
    return records


def run_passes(tasks, workloads, seconds, tracer=None) -> list[list[dict]]:
    """Whole passes within ``seconds``: at least one, and no further pass
    that would, at the mean pass time so far, end after the deadline."""
    passes, start = [], perf_counter()
    while True:
        passes.append(run_pass(tasks, workloads, tracer, len(passes)))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def setup_time(root: Path, workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    gptcone and built the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd + [repr(perf_counter())], cwd=root,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------- metrics

def tail(latencies):
    """Highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples beyond)``."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def _rounded(v):
    if isinstance(v, float):
        return float(f"{v:.9g}")
    if isinstance(v, dict):
        return {k: _rounded(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_rounded(x) for x in v]
    if hasattr(v, "item"):
        return _rounded(v.item())
    return v


def values_digest(records) -> str:
    """SHA-256 of every task's outcome and key values, floats rounded to
    nine significant digits."""
    payload = [[r["task"], r["outcome"], _rounded(r.get("values")),
                r.get("error", "").split("(")[0]] for r in records]
    return hashlib.sha256(json.dumps(payload, sort_keys=True,
                                     default=str).encode()).hexdigest()


def summarize(passes) -> dict:
    """Pooled counts, and latency statistics taken per pass and then as
    the median over passes, so that their definition (percentile, sample
    count) does not depend on how many passes fit in a run."""
    records = [r for p in passes for r in p]
    verdicts = [r for r in records if r["verdict"]]
    failed = [r for r in records if r["outcome"] != "ok"]
    tails = [tail([r["ms"] for r in p]) for p in passes]
    return {
        "passes": len(passes),
        "attempted": len(records),
        "failed": len(failed),
        "wrong": sum(r["outcome"] == "wrong" for r in records),
        "error_rate": len(failed) / len(records),
        "pass_wall_s": [sum(r["ms"] for r in p) / 1e3 for p in passes],
        "pass_p50_ms": [statistics.median(r["ms"] for r in p) for p in passes],
        "pass_tail_ms": [t[0] for t in tails],
        "tasks_per_pass": len(passes[0]),
        "tail_percentile": tails[0][1],
        "tail_beyond": tails[0][2],
        "verdicts": len(verdicts),
        "decided": sum(r["decided"] for r in verdicts),
        "failures": sorted({f"{r['task']}: {r['error']}" for r in failed}),
        "digests": sorted({values_digest(p) for p in passes}),
    }


# ------------------------------------------------------------- provenance

def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "gptcone").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path):
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def provenance(args, root: Path, inherited: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_env_inherited": inherited,
    }


# ------------------------------------------------------------------ modes

def timed_run(args, root, work_dir, workloads):
    tasks = workloads.build(args.workload, args.seed, work_dir, root / "src")
    passes = run_passes(tasks, workloads, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_verify" \
        else resource.RUSAGE_SELF
    # ru_maxrss is in KiB on Linux; for children it is the largest child.
    peak_rss_mb = resource.getrusage(who).ru_maxrss * 1024 / 1e6
    setups = [setup_time(root, args.workload, args.seed)
              for _ in range(SETUP_PROBES)]
    s = summarize(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["pass_wall_s"]),
        "task_p50_ms": statistics.median(s["pass_p50_ms"]),
        "task_tail_ms": statistics.median(s["pass_tail_ms"]),
        "ok_frac": 1.0 - s["error_rate"],
        "decided_frac": s["decided"] / s["verdicts"],
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"setup_samples_s": setups}
    return passes, s, metrics, detail, None


def traced_run(args, root, work_dir, workloads):
    import tracing

    imports = [tracing.import_times(root / "src")
               for _ in range(IMPORTTIME_RUNS)]
    metrics = {k: statistics.median(i[k] for i in imports) for k in imports[0]}
    tracer = tracing.Tracer()
    tasks = workloads.build(args.workload, args.seed, work_dir, root / "src",
                            "inproc")
    untraced = run_pass(tasks, workloads)
    untraced_s = sum(r["ms"] for r in untraced) / 1e3
    passes = [untraced]
    metrics["cli.inproc_ms"] = metrics["cli.import_share"] = 0.0
    if args.workload == "cli_verify":
        fresh = workloads.build(args.workload, args.seed, work_dir,
                                root / "src", "fresh")
        fresh_pass = run_pass(fresh, workloads)
        fresh_s = sum(r["ms"] for r in fresh_pass) / 1e3
        passes.append(fresh_pass)
        metrics["cli.inproc_ms"] = 1e3 * untraced_s
        metrics["cli.import_share"] = (fresh_s - untraced_s) / fresh_s
    with tracer.installed():
        traced = run_passes(tasks, workloads, args.seconds, tracer)
    passes += traced
    metrics.update(tracing.layer_metrics(tracer, len(traced)))
    traced_s = statistics.median(sum(r["ms"] for r in p) / 1e3 for p in traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    ordered = {name: metrics[name] for name, _ in tracing.PER_LAYER}
    # Share of the traced time spent inside the layer spans of the table.
    root_s = sum(sp[2] - sp[1] for sp in tracer.spans if sp[3] < 0)
    detail = {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
              "span_share": root_s / sum(sum(r["ms"] for r in p) / 1e3
                                         for p in traced),
              "nesting_errors": tracer.nesting_errors()[:20]}
    return passes, summarize(passes), ordered, detail, tracer


def write_spans(path: Path, tracer) -> None:
    base = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for i, (name, t0, t1, parent, task, outcome) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                 "task": task, "start_ms": 1e3 * (t0 - base),
                                 "end_ms": 1e3 * (t1 - base),
                                 "outcome": outcome}) + "\n")
        for name, (calls, busy) in tracer.kernels.items():
            fh.write(json.dumps({"kernel": name, "calls": calls,
                                 "busy_ms": 1e3 * busy}) + "\n")


def print_report(args, s, metrics, units, detail, results_path):
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{s['passes']} pass(es), {s['attempted']} tasks attempted, "
          f"{s['failed']} failed (error_rate {s['error_rate']:.4g}), "
          f"{s['wrong']} wrong")
    for name, value in metrics.items():
        note = ""
        if name == "task_tail_ms":
            note = (f"p{s['tail_percentile']:.2f}, {s['tail_beyond']} of "
                    f"{s['tasks_per_pass']} samples beyond, median of "
                    f"{s['passes']} pass(es)")
        elif name == "task_p50_ms":
            note = (f"{s['tasks_per_pass']} samples, median of "
                    f"{s['passes']} pass(es)")
        elif name == "setup_s":
            note = f"median of {SETUP_PROBES} fresh interpreters"
        elif name == "wall_s":
            note = f"median of {s['passes']} pass(es)"
        elif name == "decided_frac":
            note = f"{s['decided']} of {s['verdicts']} verdicts"
        print(f"  {name:44s} {value:14.6g} {units[name]:8s} {note}")
    for f in s["failures"]:
        print(f"  failed: {f}")
    if "span_share" in detail:
        print(f"  traced time inside layer spans: {detail['span_share']:.1%}")
    if detail.get("nesting_errors"):
        print(f"  span nesting errors: {detail['nesting_errors'][:3]}")
    print(f"  values digest: {', '.join(d[:16] for d in s['digests'])}")
    print(f"  details: {results_path}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "gptcone" / "__init__.py").is_file():
        print(f"error: no gptcone sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    # Matrices stay at d <= 16: one BLAS thread per process keeps the load
    # on a small machine predictable.  Set before numpy is imported.
    inherited = {v: os.environ.get(v) for v in BLAS_VARS}
    for v in BLAS_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, str(src))
    import workloads

    out_dir = root / RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        if args.setup_probe is not None:
            workloads.build(args.workload, args.seed, work_dir, src)
            print(perf_counter() - args.setup_probe)
            return 0
        if args.trace:
            passes, s, metrics, detail, tracer = traced_run(args, root,
                                                            work_dir, workloads)
            import tracing
            units = dict(tracing.PER_LAYER)
        else:
            passes, s, metrics, detail, tracer = timed_run(args, root,
                                                           work_dir, workloads)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_path = out_dir / f"{stem}.json"
    result = {
        "provenance": provenance(args, root, inherited),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "summary": s,
        "detail": detail,
        "passes": passes,
    }
    if tracer is not None:
        spans_path = out_dir / f"{stem}-spans.jsonl"
        write_spans(spans_path, tracer)
        result["spans_file"] = str(spans_path.relative_to(root))
    results_path.write_text(json.dumps(result, default=str))
    print_report(args, s, metrics, units, detail,
                 results_path.relative_to(root))
    print(json.dumps({
        "correct": s["wrong"] == 0 and not detail.get("nesting_errors"),
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

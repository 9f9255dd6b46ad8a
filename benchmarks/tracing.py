"""Layer tracing from outside the library.

:class:`Tracer` replaces the public functions of the layer table in every
``gptcone`` module namespace that binds them (``pses.conic_feasibility``
as well as ``dual.conic_feasibility``) with wrappers that record a span:
name, start, end, parent span and the benchmark task that caused it.
``numpy.linalg.eigh``/``eigvalsh`` and ``herm.trace_inner`` are kernel
counters, not spans, so that the self time of a span still includes the
linear algebra it runs.  Spans stay in memory and are written out once,
by the caller, when the benchmark ends.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions traced as spans, by module.
SPAN_LAYERS = {
    "discrimination": ("min_error_over_cone", "helstrom"),
    "dual": ("conic_feasibility", "min_over_spectrahedron", "dual_membership",
             "dual_identity_check"),
    "cones": ("membership", "dual_cone_membership", "min_product_expectation"),
    "pses": ("cr_membership", "hierarchy_audit", "self_duality_verifier",
             "predual_audit", "distance_upper_bound"),
    "dovm": ("random_dovm", "classify", "aq_advantage_states"),
    "herm": ("max_entangled_fidelity",),
    "symmetry": ("orbit_invariance_check",),
    "simulability": ("shrunk_bloch_example",),
}

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("import.gptcone_ms", "ms"), ("import.scipy_ms", "ms"),
    ("cli.inproc_ms", "ms"), ("cli.import_share", "fraction"),
    ("discrimination.min_error_over_cone.calls", "count"),
    ("discrimination.min_error_over_cone.busy_ms", "ms"),
    ("discrimination.min_error_over_cone.self_ms", "ms"),
    ("discrimination.min_error_over_cone.failed", "count"),
    ("discrimination.helstrom.calls", "count"),
    ("discrimination.helstrom.busy_ms", "ms"),
    ("dual.conic_feasibility.calls", "count"),
    ("dual.conic_feasibility.busy_ms", "ms"),
    ("dual.conic_feasibility.self_ms", "ms"),
    ("dual.conic_feasibility.certified_frac", "fraction"),
    ("dual.min_over_spectrahedron.calls", "count"),
    ("dual.min_over_spectrahedron.busy_ms", "ms"),
    ("dual.min_over_spectrahedron.self_ms", "ms"),
    ("dual.dual_membership.calls", "count"),
    ("dual.dual_membership.busy_ms", "ms"),
    ("dual.dual_identity_check.calls", "count"),
    ("dual.dual_identity_check.busy_ms", "ms"),
    ("cones.membership.calls", "count"),
    ("cones.membership.busy_ms", "ms"),
    ("cones.membership.self_ms", "ms"),
    ("cones.membership.unknown_frac", "fraction"),
    ("cones.dual_cone_membership.calls", "count"),
    ("cones.dual_cone_membership.busy_ms", "ms"),
    ("cones.dual_cone_membership.self_ms", "ms"),
    ("cones.dual_cone_membership.unknown_frac", "fraction"),
    ("cones.min_product_expectation.calls", "count"),
    ("cones.min_product_expectation.busy_ms", "ms"),
    ("pses.cr_membership.calls", "count"),
    ("pses.cr_membership.busy_ms", "ms"),
    ("pses.cr_membership.self_ms", "ms"),
    ("pses.cr_membership.unknown_frac", "fraction"),
    ("pses.hierarchy_audit.busy_ms", "ms"),
    ("pses.self_duality_verifier.busy_ms", "ms"),
    ("pses.predual_audit.busy_ms", "ms"),
    ("pses.distance_upper_bound.busy_ms", "ms"),
    ("dovm.random_dovm.calls", "count"),
    ("dovm.random_dovm.busy_ms", "ms"),
    ("dovm.classify.calls", "count"),
    ("dovm.classify.busy_ms", "ms"),
    ("dovm.aq_advantage_states.calls", "count"),
    ("dovm.aq_advantage_states.busy_ms", "ms"),
    ("herm.max_entangled_fidelity.calls", "count"),
    ("herm.max_entangled_fidelity.busy_ms", "ms"),
    ("herm.trace_inner.calls", "count"),
    ("numpy.eigh.calls", "count"),
    ("numpy.eigh.busy_ms", "ms"),
    ("symmetry.orbit_invariance_check.busy_ms", "ms"),
    ("simulability.shrunk_bloch_example.busy_ms", "ms"),
    ("trace.overhead_s", "s"),
]


def _outcome(result):
    """What a span's result says: a verdict status, or whether a conic
    feasibility search ended with a certificate."""
    status = getattr(result, "status", None)
    if isinstance(status, str):
        return status
    kind = type(result).__name__
    if kind in ("ConicCertificate", "Infeasible"):
        return kind
    return None


class Tracer:
    """Span recorder.  Records only while :attr:`task` is set, so that the
    benchmark's own checks and input building are not traced."""

    def __init__(self):
        # Each span: [name, start, end, parent index, task, outcome].
        self.spans: list[list] = []
        self.kernels = {"numpy.eigh": [0, 0.0], "herm.trace_inner": [0, 0.0]}
        self.task: str | None = None
        self._stack: list[int] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.task, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[5] = _outcome(out)
                return out
            except BaseException:
                rec[5] = "raised"
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, name, fn, timed=True):
        counter = self.kernels[name]

        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            counter[0] += 1
            if not timed:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[1] += perf_counter() - t0
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Install the wrappers; restore every patched binding on exit."""
        import gptcone  # noqa: F401  (loads every module of the package)

        mods = [m for n, m in list(sys.modules.items())
                if n == "gptcone" or n.startswith("gptcone.")]
        originals = {}
        for mod_name, fns in SPAN_LAYERS.items():
            mod = sys.modules[f"gptcone.{mod_name}"]
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                originals[id(fn)] = (fn, self._span(f"{mod_name}.{fn_name}", fn))
        herm = sys.modules["gptcone.herm"]
        originals[id(herm.trace_inner)] = (
            herm.trace_inner,
            self._kernel("herm.trace_inner", herm.trace_inner, timed=False))
        patched = []
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    patched.append((mod, attr, val))
                    setattr(mod, attr, originals[id(val)][1])
        linalg = np.linalg
        eigh, eigvalsh = linalg.eigh, linalg.eigvalsh
        linalg.eigh = self._kernel("numpy.eigh", eigh)
        linalg.eigvalsh = self._kernel("numpy.eigh", eigvalsh)
        try:
            yield self
        finally:
            linalg.eigh, linalg.eigvalsh = eigh, eigvalsh
            for mod, attr, val in patched:
                setattr(mod, attr, val)

    def layer_totals(self) -> dict:
        """Per span name: calls, busy and self seconds, outcome counts."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict = {}
        for i, (name, t0, t1, _, _, outcome) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0,
                                        "outcomes": {}})
            agg["calls"] += 1
            agg["busy"] += t1 - t0
            agg["self"] += t1 - t0 - child[i]
            if outcome is not None:
                agg["outcomes"][outcome] = agg["outcomes"].get(outcome, 0) + 1
        return out

    def nesting_errors(self) -> list[str]:
        """Spans that do not lie inside their parent, or that end before
        they start; empty when the trace nests correctly."""
        errors = []
        for i, (name, t0, t1, parent, task, _) in enumerate(self.spans):
            if t1 < t0:
                errors.append(f"span {i} {name} ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if not (p[1] <= t0 and t1 <= p[2] and p[4] == task):
                    errors.append(f"span {i} {name} escapes parent {p[0]}")
        return errors


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """The span and kernel metrics of :data:`PER_LAYER`, per pass."""
    totals = tracer.layer_totals()
    values = {}
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer in tracer.kernels:
            calls, busy = tracer.kernels[layer]
            values[name] = calls / passes if stat == "calls" else 1e3 * busy / passes
            continue
        if layer.split(".")[0] not in SPAN_LAYERS:
            continue
        agg = totals.get(layer, {"calls": 0, "busy": 0.0, "self": 0.0,
                                 "outcomes": {}})
        calls, outcomes = agg["calls"], agg["outcomes"]
        if stat == "calls":
            values[name] = calls / passes
        elif stat == "busy_ms":
            values[name] = 1e3 * agg["busy"] / passes
        elif stat == "self_ms":
            values[name] = 1e3 * agg["self"] / passes
        elif stat == "failed":
            values[name] = outcomes.get("raised", 0) / passes
        elif stat == "certified_frac":
            values[name] = outcomes.get("ConicCertificate", 0) / calls if calls else 0.0
        elif stat == "unknown_frac":
            values[name] = outcomes.get("Unknown", 0) / calls if calls else 0.0
    return values


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


def import_times(src_dir) -> dict:
    """``import gptcone`` in a fresh interpreter under ``-X importtime``:
    the cumulative time of ``gptcone`` and of the outermost ``scipy``
    imports it triggers, in milliseconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gptcone"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src_dir)),
        timeout=120, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    gptcone_us = next(cum for _, name, cum in entries if name == "gptcone")
    scipy = [(lvl, cum) for lvl, name, cum in entries
             if name == "scipy" or name.startswith("scipy.")]
    top = min((lvl for lvl, _ in scipy), default=None)
    scipy_us = sum(cum for lvl, cum in scipy if lvl == top)
    return {"import.gptcone_ms": gptcone_us / 1e3,
            "import.scipy_ms": scipy_us / 1e3}

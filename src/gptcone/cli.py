"""Command-line front end: classification, discrimination, cone
construction and audits, simulability and symmetry checks, and the
bundled verification suites, all emitting versioned JSON reports."""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import pses, simulability, symmetry
from .cones import PSD, make_named_cone, ses_model
from .discrimination import (
    entropy_example_audit,
    err_of_measurement,
    helstrom,
    min_error_over_cone,
)
from .dovm import Dovm, aq_advantage_states, bq_witness_states, classify
from .dual import dual_identity_check
from .fixtures import DIMS_22, appendix_measurement
from .herm import BipartiteDims, ValidationError
from .io import load_cone, load_matrix, load_measurement, matrix_to_json
from .sampling import random_herm, random_state

SCHEMA = "gptcone/1"

PASS, FAIL, USAGE = 0, 2, 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.shape[0] == obj.shape[1]:
            return matrix_to_json(obj)
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


def _emit(args, report: dict) -> None:
    """Write ``report`` in the versioned envelope of ``args.command``."""
    report = {"schema": SCHEMA, "command": args.command, **report}
    text = json.dumps(_jsonify(report), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("GPTCONE_SEED")
    return int(env) if env else 0


def _guess_dims(d: int, spec: str | None) -> BipartiteDims:
    if spec:
        try:
            a, b = (int(s) for s in spec.lower().split("x"))
        except Exception:
            raise UsageError(f"bad --dims value {spec!r}, expected like 2x2")
        if a * b != d:
            raise UsageError(f"--dims {spec} does not match matrix size {d}")
        return BipartiteDims(a, b)
    m = int(round(np.sqrt(d)))
    if m * m == d:
        return BipartiteDims(m, m)
    if d % 2 == 0:
        return BipartiteDims(2, d // 2)
    raise UsageError(f"pass --dims: cannot guess a split of dimension {d}")


def _load_dovm(path: str, dims_spec: str | None) -> Dovm:
    effects = load_measurement(path)
    if len(effects) != 2:
        raise ValidationError("expected a two-outcome measurement")
    dims = _guess_dims(effects[0].shape[0], dims_spec)
    return Dovm(m1=effects[0], m2=effects[1], dims=dims)


def cmd_classify_dovm(args) -> int:
    dovm = _load_dovm(args.measurement, args.dims)
    cls = classify(dovm)
    report = {
        "class": cls.tag,
        "deciding_effect": cls.deciding_effect + 1,
        "lambda1": cls.spectrum_summary[cls.deciding_effect][0],
        "lambda_d": cls.spectrum_summary[cls.deciding_effect][1],
        "spectra": cls.spectrum_summary,
    }
    witnesses = {}
    if cls.tag == "BQ":
        r1, r2, ov = bq_witness_states(dovm)
        witnesses["perfect_pair"] = {"rho1": r1, "rho2": r2, "overlap": ov}
    if cls.tag in ("BQ", "AQ"):
        try:
            a1, a2, margin = aq_advantage_states(dovm)
            witnesses["advantage"] = {"rho1": a1, "rho2": a2, "margin": margin}
        except ValidationError:
            pass
    report["witnesses"] = witnesses
    _emit(args, report)
    return PASS


def cmd_discriminate(args) -> int:
    rho1 = load_matrix(args.rho1)
    rho2 = load_matrix(args.rho2)
    hval, hmeas = helstrom(rho1, rho2)
    report = {
        "helstrom_error": hval,
        "helstrom_measurement": hmeas.effects,
    }
    if args.cone:
        cone = load_cone(args.cone)
        cval, cmeas = min_error_over_cone(rho1, rho2, cone)
        report["cone_error"] = cval
        report["cone_measurement"] = cmeas.effects
        report["cone_check"] = abs(
            err_of_measurement(rho1, rho2, cmeas.effects) - cval) <= 1e-8
    _emit(args, report)
    return PASS


def _family_set(m: int, count: int):
    base = pses.generalized_bell(m)
    fams = [base, pses.swap_family(base)]
    k = 1
    while len(fams) < count:
        k += 1
        if k >= len(base.projectors):
            raise UsageError("too many families requested for this local dim")
        proj = list(base.projectors)
        proj[0], proj[k] = proj[k], proj[0]
        fams.append(pses.MeopFamily(dims=base.dims, projectors=proj))
    return fams[:count]


def cmd_build_pses(args) -> int:
    if (args.r is None) == (args.eps is None):
        raise UsageError("exactly one of --r or --eps is required")
    r = args.r if args.r is not None else pses.r_of_eps(args.eps)
    seed = _seed(args)
    fams = _family_set(args.local_dim, args.families)
    dims = fams[0].dims
    params = pses.PsesParams(family_set=fams, r=r, dims=dims)
    audit = pses.predual_audit(params, seed=seed)
    report = {
        "local_dim": args.local_dim,
        "families": args.families,
        "r": r,
        "eps": pses.eps_of_r(r),
        "r0": pses.r0(dims),
        "audit": audit.to_json(),
    }
    failed = {}
    if audit.ok and 0.0 < r <= pses.r0(dims) + 1e-12:
        with _check(failed, "discrimination_example"):
            meas, states, overlap = pses.dist_example(r, fams[0])
            report["discrimination_example"] = {
                "measurement": list(meas),
                "states": list(states),
                "overlap": overlap,
                "overlap_closed_form": pses.overlap_closed_form(r),
            }
    report["pass"] = audit.ok
    return _finish(args, report, audit.ok, failed)


def cmd_simulability(args) -> int:
    if (args.measurement is None) == (args.shrunk_bloch is None):
        raise UsageError("give a measurement file or --shrunk-bloch p")
    if args.shrunk_bloch is not None:
        rep = simulability.shrunk_bloch_example(args.shrunk_bloch)
        cert = rep["certificate"]
        report = {
            "shrunk_bloch_p": rep["p"],
            "valid_on_domain": rep["valid_on_domain"],
            "table_residual": rep["table_residual"],
            "overlap": rep["overlap"],
            "status": cert.status,
            "pass": rep["pass"],
        }
        return _finish(args, report, rep["pass"], {})
    dovm = _load_dovm(args.measurement, args.dims)
    report, failed, ok = {}, {}, False
    with _check(failed, "certificate"):
        cert = simulability.non_simulability_certificate(dovm)
        report.update(status=cert.status, detail=cert.detail)
        ok = cert.status == "NonSimulable"
        if ok:
            report["states"] = list(cert.states)
            report["overlap"] = cert.overlap
            report["n_copy_overlaps"] = [
                simulability.n_copy_overlap(*cert.states, n)
                for n in (1, 2, 3)]
    return _finish(args, report, ok, failed)


def cmd_symmetry(args) -> int:
    report, failed, ok = {"check": args.check}, {}, False
    with _check(failed, args.check):
        if args.check == "two-symmetry":
            rep = symmetry.two_symmetry_counterexample(seed=_seed(args))
            ok = (not rep["equivalent"]
                  and rep["invariance_violation"] <= 1e-10)
        else:  # ses-orbit
            dims = DIMS_22
            model = ses_model(dims)
            rng = np.random.default_rng(_seed(args))
            elements = [random_state(dims.total, rng) for _ in range(5)]
            elements += [random_herm(dims.total, rng) for _ in range(5)]
            spec = symmetry.TransformSpec(symmetry.GLOBAL_UNITARY, dims)
            rep = symmetry.orbit_invariance_check(model.cone, spec, elements,
                                                  seed=_seed(args))
            ok = rep["invariant"]
        report.update(rep)
        report["pass"] = ok
    return _finish(args, report, ok, failed)


@contextmanager
def _check(checks: dict, name: str):
    """A ValidationError inside the block fails check ``name`` alone."""
    try:
        yield
    except ValidationError as exc:
        checks[name] = {"ok": False, "error": str(exc)}


def _finish(args, report: dict, ok: bool, failed: dict) -> int:
    """Emit ``report`` with the checks that raised, recorded by ``_check``
    in ``failed``, and return the exit code."""
    if failed:
        report.update(failed)
        report["pass"] = ok = False
    _emit(args, report)
    return PASS if ok else FAIL


def _appendix_checks(seed: int) -> dict:
    checks = {}
    e1, e2 = appendix_measurement()
    dovm = Dovm(m1=e1, m2=e2, dims=DIMS_22)
    with _check(checks, "classification"):
        cls = classify(dovm)
        spec = np.linalg.eigvalsh(e1)
        checks["classification"] = {
            "ok": cls.tag == "BQ"
            and np.max(np.abs(spec - [-0.5, 0.5, 0.5, 1.5])) <= 1e-9,
            "class": cls.tag,
            "spectrum": spec,
        }
    with _check(checks, "perfect_discrimination"):
        r1, r2, ov = bq_witness_states(dovm)
        checks["perfect_discrimination"] = {
            "ok": abs(ov - 0.75) <= 1e-9,
            "overlap": ov,
        }
    with _check(checks, "quantum_advantage"):
        a1, a2, margin = aq_advantage_states(dovm)
        checks["quantum_advantage"] = {
            "ok": abs(margin - 1.0 / (np.sqrt(2.0) * 4.0)) <= 1e-6,
            "margin": margin,
        }
    with _check(checks, "entropy_example"):
        ent = entropy_example_audit()
        checks["entropy_example"] = {"ok": ent["pass"], **ent}
    with _check(checks, "two_symmetry"):
        sym = symmetry.two_symmetry_counterexample(seed=seed)
        checks["two_symmetry"] = {
            "ok": not sym["equivalent"]
            and sym["invariance_violation"] <= 1e-10,
            **sym,
        }
    with _check(checks, "shrunk_bloch"):
        sb = simulability.shrunk_bloch_example(0.5)
        checks["shrunk_bloch"] = {
            "ok": sb["pass"],
            "overlap": sb["overlap"],
            "status": sb["certificate"].status,
        }
    return checks


def cmd_verify_appendix(args) -> int:
    checks = _appendix_checks(_seed(args))
    ok = all(c["ok"] for c in checks.values())
    _emit(args, {"checks": checks, "pass": ok})
    return PASS if ok else FAIL


def cmd_verify_all(args) -> int:
    seed = _seed(args)
    fast = args.fast
    checks = _appendix_checks(seed)
    rng = np.random.default_rng(seed)

    n_pairs = 10 if fast else 50
    psd_cone = make_named_cone(PSD, dim=4)
    with _check(checks, "helstrom_equivalence"):
        worst = 0.0
        for _ in range(n_pairs):
            s1, s2 = random_state(4, rng), random_state(4, rng)
            hval, _ = helstrom(s1, s2)
            cval, _ = min_error_over_cone(s1, s2, psd_cone)
            worst = max(worst, abs(hval - cval))
        checks["helstrom_equivalence"] = {"ok": worst <= 1e-6,
                                          "worst": worst, "pairs": n_pairs}

    fam = pses.generalized_bell(2)
    params = pses.PsesParams(family_set=pses.swap_pair(fam), r=0.1,
                             dims=fam.dims)
    with _check(checks, "pses_audit"):
        audit = pses.predual_audit(
            params, product_samples=1000 if fast else 10_000, seed=seed)
        checks["pses_audit"] = audit.to_json() | {"ok": audit.ok}

    with _check(checks, "pses_discrimination"):
        _, _, overlap = pses.dist_example(0.1, fam)
        checks["pses_discrimination"] = {
            "ok": abs(overlap - pses.overlap_closed_form(0.1)) <= 1e-12,
            "overlap": overlap,
        }

    from .sampling import random_max_entangled_state

    sigma = random_max_entangled_state(2, rng)
    with _check(checks, "pses_distance"):
        dist, _ = pses.distance_upper_bound(params, sigma)
        checks["pses_distance"] = {
            "ok": abs(dist - 1.0 / 3.0) <= 1e-9
            and dist <= pses.eps_of_r(0.1),
            "distance": dist,
        }

    with _check(checks, "hierarchy"):
        hier = pses.hierarchy_audit([0.2, 0.1], pses.swap_pair(fam), fam.dims)
        checks["hierarchy"] = hier.to_json() | {"ok": hier.ok}

    n_points = 100 if fast else 1000
    g1 = [random_herm(3, rng) for _ in range(4)]
    g2 = [random_herm(3, rng) for _ in range(4)]
    with _check(checks, "duality_identity"):
        dual_rep = dual_identity_check(g1, g2, samples=n_points, seed=seed)
        checks["duality_identity"] = {
            "ok": dual_rep.ok, "samples": dual_rep.samples,
            "disagreements": len(dual_rep.disagreements)}

    ok = all(c["ok"] for c in checks.values())
    _emit(args, {"fast": fast, "checks": checks, "pass": ok})
    return PASS if ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gptcone",
                description="Cone models, beyond-quantum measurement "
                            "classification, and entanglement-structure "
                            "audits.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", help="write the JSON report to this file")
        sp.add_argument("--seed", type=int,
                        help="RNG seed (fallback: GPTCONE_SEED)")
        return sp

    sp = add("classify-dovm", cmd_classify_dovm,
             help="classify a two-outcome measurement")
    sp.add_argument("measurement")
    sp.add_argument("--dims", help="bipartite split, e.g. 2x2")

    sp = add("discriminate", cmd_discriminate,
             help="optimal two-state discrimination")
    sp.add_argument("rho1")
    sp.add_argument("rho2")
    sp.add_argument("--cone", help="restrict effects to this cone JSON")

    sp = add("build-pses", cmd_build_pses,
             help="build and audit a deformed entanglement structure")
    sp.add_argument("--local-dim", type=int, default=2)
    sp.add_argument("--r", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--families", type=int, default=2)

    sp = add("simulability", cmd_simulability,
             help="non-simulability certificate")
    sp.add_argument("measurement", nargs="?")
    sp.add_argument("--dims", help="bipartite split, e.g. 2x2")
    sp.add_argument("--shrunk-bloch", type=float, metavar="P",
                    help="run the noisy-qubit example at noise level P")

    sp = add("symmetry", cmd_symmetry, help="symmetry checks")
    sp.add_argument("--check", choices=["two-symmetry", "ses-orbit"],
                    default="two-symmetry")

    add("verify-appendix", cmd_verify_appendix,
        help="run the worked-example verification bundle")

    sp = add("verify-all", cmd_verify_all, help="run every verification suite")
    sp.add_argument("--fast", action="store_true",
                    help="reduced sample counts")
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (ValidationError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run())

"""Command-line front end: classification, discrimination, cone
construction and audits, simulability and symmetry checks, and the
paper's claims, all emitting versioned JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import pses, simulability, symmetry
from .cones import (PSD, Measurement, dual_cone_membership, make_named_cone,
                    membership, ses_model)
from .discrimination import (
    entropy_example_audit,
    err_of_measurement,
    helstrom,
    min_error_over_cone,
)
from .dovm import Dovm, aq_advantage_states, bq_witness_states, classify
from .fixtures import DIMS_22, appendix_measurement
from .herm import BipartiteDims, ValidationError
from .io import load_cone, load_matrix, load_measurement, matrix_to_json
from .sampling import random_herm, random_max_entangled_state, random_state
from .verdict import IN

SCHEMA = "gptcone/1"

PASS, FAIL, USAGE = 0, 2, 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _json_default(obj):
    """``json.dumps``'s fallback: a square array as ``matrix_to_json``
    writes it, other arrays as lists, numpy scalars as Python ones and
    anything else as its repr."""
    if isinstance(obj, np.ndarray):
        square = obj.ndim == 2 and obj.shape[0] == obj.shape[1]
        return matrix_to_json(obj) if square else obj.tolist()
    return obj.item() if isinstance(obj, np.generic) else repr(obj)


def _emit(args, report: dict) -> None:
    """Write ``report`` in the versioned envelope of ``args.command``."""
    report = {"schema": SCHEMA, "command": args.command, **report}
    text = json.dumps(report, indent=2, default=_json_default)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    rho1, rho2 = load_matrix(args.rho1), load_matrix(args.rho2)
    hval, hmeas = helstrom(rho1, rho2)
    report = {"helstrom_error": hval, "helstrom_measurement": hmeas.effects}
    if args.cone:
        cone = load_cone(args.cone)
        cval, cmeas = min_error_over_cone(rho1, rho2, cone)
        report["cone_error"] = cval
        report["cone_measurement"] = cmeas.effects
        report["cone_check"] = abs(
            err_of_measurement(rho1, rho2, cmeas.effects) - cval) <= 1e-8
    return _finish(args, report, report.get("cone_check", True), {})


def cmd_build_pses(args) -> int:
    if (args.r is None) == (args.eps is None):
        raise UsageError("exactly one of --r or --eps is required")
    r = args.r if args.r is not None else pses.r_of_eps(args.eps)
    params = _pses(args.local_dim, args.families, r)
    report = {
        "local_dim": args.local_dim,
        "families": args.families,
        "r": r,
        "eps": pses.eps_of_r(r),
        "r0": pses.r0(params.dims),
        "audit": _predual_audit(params, args.seed, 10_000),
    }
    ok, failed = report["audit"]["ok"], {}
    if ok and 0.0 < r <= report["r0"] + 1e-12:
        with _check(failed, "discrimination_example"):
            example = report["discrimination_example"] = _dist_example(params)
            ok = example["ok"]
    return _finish(args, report, ok, failed)


def cmd_simulability(args) -> int:
    if (args.measurement is None) == (args.shrunk_bloch is None):
        raise UsageError("give a measurement file or --shrunk-bloch p")
    if args.shrunk_bloch is not None:
        report = _shrunk_bloch(args.shrunk_bloch)
        ok = report.pop("ok")
        return _finish(args, report, ok, {})
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
            rep = two_symmetry(args.seed, False)
            ok = rep.pop("ok")
        else:  # ses-orbit
            dims = DIMS_22
            model = ses_model(dims)
            rng = np.random.default_rng(args.seed)
            elements = [random_state(dims.total, rng) for _ in range(5)]
            elements += [random_herm(dims.total, rng) for _ in range(5)]
            spec = symmetry.TransformSpec(symmetry.GLOBAL_UNITARY, dims)
            rep = symmetry.orbit_invariance_check(model.cone, spec, elements,
                                                  seed=args.seed)
            ok = rep["invariant"]
        report.update(rep)
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
    in ``failed``, and with ``pass`` last; return the exit code."""
    report.update(failed)
    report["pass"] = ok = ok and not failed
    _emit(args, report)
    return PASS if ok else FAIL


# The paper's claims: each takes (seed, fast), seeds its own generator and
# returns its report with ``ok``, named by the function; the docstring says
# what it claims.  The 2x2 PSES, _pses(2, 2, 0.1), is the Bell family and
# its swap at r = 0.1.


def classification(seed, fast) -> dict:
    """e1, e2 are a BQ DOVM, and e1 has spectrum (-1/2, 1/2, 1/2, 3/2)."""
    e1, e2 = appendix_measurement()
    cls = classify(Dovm(m1=e1, m2=e2, dims=DIMS_22))
    spec = np.linalg.eigvalsh(e1)
    ok = cls.tag == "BQ" and np.max(
        np.abs(spec - [-0.5, 0.5, 0.5, 1.5])) <= 1e-9
    return {"ok": ok, "class": cls.tag, "spectrum": spec}


def perfect_discrimination(seed, fast) -> dict:
    """{e1, e2} perfectly discriminates two states overlapping by 3/4."""
    *_, ov = bq_witness_states(Measurement(list(appendix_measurement())))
    return {"ok": abs(ov - 0.75) <= 1e-9, "overlap": ov}


def quantum_advantage(seed, fast) -> dict:
    """{e1, e2} beats Helstrom on a separable pair by 1/(4 sqrt 2)."""
    *_, gap = aq_advantage_states(Measurement(list(appendix_measurement())))
    return {"ok": abs(gap - 1.0 / (np.sqrt(2.0) * 4.0)) <= 1e-6, "margin": gap}


def entropy_example(seed, fast) -> dict:
    """A state splits two ways into perfect pairs, of unequal entropy."""
    ent = entropy_example_audit()
    return {"ok": ent["pass"], **ent}


def two_symmetry(seed, fast) -> dict:
    """No symmetry maps |00>, |++> (overlap 1/4) to an orthogonal pair."""
    sym = symmetry.two_symmetry_counterexample(seed=seed)
    ok = not sym["equivalent"] and sym["invariance_violation"] <= 1e-10
    return {"ok": ok, **sym}


def shrunk_bloch(seed, fast) -> dict:
    """A p = 1/2 shrunk-Bloch effect pair splits states overlapping 3/8."""
    return _shrunk_bloch(0.5)


def _shrunk_bloch(p: float) -> dict:
    rep = simulability.shrunk_bloch_example(p)
    return {"ok": rep["pass"], "shrunk_bloch_p": p,
            "valid_on_domain": rep["valid_on_domain"],
            "table_residual": rep["table_residual"],
            "overlap": rep["overlap"], "status": rep["certificate"].status}


def helstrom_equivalence(seed, fast) -> dict:
    """Helstrom's and the PSD cone's errors are 1 - ||rho1 - rho2||_1/2."""
    rng, n_pairs = np.random.default_rng(seed), 10 if fast else 50
    psd_cone = make_named_cone(PSD, dim=4)
    worst = ref_worst = 0.0
    for _ in range(n_pairs):
        s1, s2 = random_state(4, rng), random_state(4, rng)
        hval, _ = helstrom(s1, s2)
        cval, _ = min_error_over_cone(s1, s2, psd_cone)
        ref = 1.0 - 0.5 * float(np.linalg.svd(s1 - s2, compute_uv=False).sum())
        worst = max(worst, abs(hval - cval))
        ref_worst = max(ref_worst, abs(hval - ref), abs(cval - ref))
    return {"ok": worst <= 1e-6 and ref_worst <= 1e-6, "worst": worst,
            "reference_worst": ref_worst, "pairs": n_pairs}


def _pses(m: int, families: int, r: float) -> pses.PsesParams:
    """The PSES on m x m at r over ``swap_families`` of the Bell family."""
    if not 1 <= families <= m * m:
        raise UsageError("--families must be at least 1" if families < 1 else
                         "too many families requested for this local dim")
    bell = pses.generalized_bell(m)
    return pses.PsesParams(family_set=pses.swap_families(bell, families),
                           r=r, dims=bell.dims)


def _predual_audit(params: pses.PsesParams, seed: int, samples: int) -> dict:
    audit = pses.predual_audit(params, product_samples=samples, seed=seed)
    return audit.to_json() | {"ok": audit.ok}


def _dist_example(params: pses.PsesParams) -> dict:
    meas, states, overlap = pses.dist_example(params.r, params.family_set[0])
    closed = pses.overlap_closed_form(params.r)
    effects = [membership(params.cone, M).status for M in meas]
    duals = [dual_cone_membership(params.cone, rho).status for rho in states]
    ok = abs(overlap - closed) <= 1e-12 and {*effects, *duals} == {IN}
    return {"ok": ok, "overlap": overlap, "overlap_closed_form": closed,
            "measurement": list(meas), "states": list(states),
            "effect_verdicts": effects, "state_verdicts": duals}


def pses_audit(seed, fast) -> dict:
    """The 2x2 PSES is pre-dual: its endpoints' pairings are nonnegative."""
    return _predual_audit(_pses(2, 2, 0.1), seed, 1000 if fast else 10_000)


def pses_discrimination(seed, fast) -> dict:
    """The 2x2 PSES splits two states overlapping by 2r(r+1)/(2r+1)^2."""
    return _dist_example(_pses(2, 2, 0.1))


def pses_distance(seed, fast) -> dict:
    """A maximally entangled state is 4r/(2r+1) <= eps(r) from the
    PSES's dual."""
    params = _pses(2, 2, 0.1)
    sigma = random_max_entangled_state(2, np.random.default_rng(seed))
    dist, _ = pses.distance_upper_bound(params, sigma)
    r = params.r
    ok = abs(dist - 4 * r / (2 * r + 1)) <= 1e-9 and dist <= pses.eps_of_r(r)
    return {"ok": ok, "distance": dist}


def hierarchy(seed, fast) -> dict:
    """The 2x2 PSES cones strictly shrink from r = 0.2 to r = 0.1."""
    params = _pses(2, 2, 0.1)
    hier = pses.hierarchy_audit([0.2, 0.1], params.family_set, params.dims)
    return hier.to_json() | {"ok": hier.ok}


# Every claim in report order, with whether verify-appendix runs it;
# verify-all runs them all.
CLAIMS = ((classification, True), (perfect_discrimination, True),
          (quantum_advantage, True), (entropy_example, True),
          (two_symmetry, True), (shrunk_bloch, True),
          (helstrom_equivalence, False), (pses_audit, False),
          (pses_discrimination, False), (pses_distance, False),
          (hierarchy, False))


def cmd_verify(args) -> int:
    """Run verify-all's claims, or verify-appendix's, each under ``_check``."""
    every, checks = args.command == "verify-all", {}
    for claim, appendix in CLAIMS:
        if every or appendix:
            with _check(checks, claim.__name__):
                checks[claim.__name__] = claim(args.seed, args.fast)
    report = {"fast": args.fast} if every else {}
    report["checks"] = checks
    return _finish(args, report, all(c["ok"] for c in checks.values()), {})


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
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
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

    add("verify-appendix", cmd_verify,
        help="run the worked-example claims").set_defaults(fast=False)

    sp = add("verify-all", cmd_verify, help="run every verification suite")
    sp.add_argument("--fast", action="store_true",
                    help="reduced sample counts")
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

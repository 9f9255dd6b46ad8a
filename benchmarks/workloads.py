"""Inputs, task lists and output checks for the benchmark workloads.

A workload is a fixed list of :class:`Task` objects built from a seed.  A
task's ``call`` is the only code that is timed: it calls into one public
function of ``gptcone`` (or starts one CLI process) and returns the raw
result.  ``check`` then compares that result with a reference computed
here, outside the timed region, and returns the task's key values.  A
wrong value raises :class:`CheckFailed`.

Importing this module imports numpy only; ``gptcone`` is imported by
:func:`build`, so that the set-up probe times the library import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("cli_verify", "cone_solve", "oracle_sweep")

# Reference values the checks compare against.  The self-test perturbs one
# of them and expects the failure to be counted.
REFERENCE = {
    # classify-dovm on the e1/e2 fixture (the paper's BQ example).
    "fixture_class": "BQ",
    "fixture_overlap": 0.75,
    # discriminate on the |00>, |++> fixture pair: 1 - sqrt(1 - 1/4).
    "fixture_helstrom": 1.0 - np.sqrt(0.75),
    # Perfect discrimination inside C_r (cone error of the dist_example pair).
    "dist_cone_error": 0.0,
}

TOL = 1e-8
CLI_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """A task returned a value outside its tolerance of the reference."""


class Raised(Exception):
    """A CLI command stopped with an error instead of a report, the
    counterpart of an exception raised by an in-process call."""


@dataclass
class Task:
    """One timed call.

    ``verdict`` marks tasks whose result is a verdict; their check reports
    ``decided`` (a certified In/Out answer) for ``decided_frac``.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], dict]
    verdict: bool = False


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def build(workload: str, seed: int, work_dir: Path, src_dir: Path,
          mode: str = "fresh") -> list[Task]:
    """Build the task list of ``workload`` for ``seed``.

    ``work_dir`` receives the input files of ``cli_verify``.  ``mode``
    selects how ``cli_verify`` runs a command: ``fresh`` starts a new
    interpreter per command, ``inproc`` calls ``gptcone.cli.run``.
    """
    if workload == "cli_verify":
        return _cli_verify(seed, work_dir, src_dir, mode)
    if workload == "cone_solve":
        return _cone_solve(seed)
    if workload == "oracle_sweep":
        return _oracle_sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# cli_verify: one pass over 12 subcommands, as a user reproduces the paper.

CLI_ENTRY = "from gptcone.cli import main; main()"


# Input files, written to the work directory, are named by their file name.
CLI_COMMANDS = (
    ("verify-all",),
    ("verify-all", "--fast"),
    ("verify-appendix",),
    ("build-pses", "--r", "0.1", "--local-dim", "2"),
    ("build-pses", "--r", "0.1", "--local-dim", "3"),
    ("build-pses", "--r", "0.1", "--local-dim", "4"),
    ("classify-dovm", "e1e2.json"),
    ("simulability", "e1e2.json"),
    ("discriminate", "rho1.json", "rho2.json"),
    ("simulability", "--shrunk-bloch", "0.5"),
    ("symmetry", "--check", "two-symmetry"),
    ("symmetry", "--check", "ses-orbit"),
)


def _write_cli_inputs(work_dir: Path) -> None:
    from gptcone.fixtures import appendix_measurement, appendix_states
    from gptcone.io import measurement_to_json, save_matrix

    e1, e2 = appendix_measurement()
    (work_dir / "e1e2.json").write_text(json.dumps(measurement_to_json([e1, e2])))
    rho1, rho2, _, _ = appendix_states()
    save_matrix(work_dir / "rho1.json", rho1)
    save_matrix(work_dir / "rho2.json", rho2)


def _fresh_call(argv: list[str], src_dir: Path):
    def call():
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr
    return call


def _inproc_call(argv: list[str]):
    import contextlib
    import io

    from gptcone import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue(), err.getvalue()
    return call


def _cli_check(argv: list[str]) -> Callable[[tuple], dict]:
    command = argv[0]

    def check(result):
        rc, stdout, stderr = result
        if rc == 1:
            # Usage or validation error: the command gave no report.
            raise Raised(f"exit 1: {stderr.strip()[-200:]}")
        _require(rc == 0, f"exit code {rc}")
        rep = json.loads(stdout)
        _require(rep.get("schema") == "gptcone/1", "schema")
        _require(rep.get("pass", True) is True, "pass is false")
        values: dict = {"exit": rc}
        if "pass" in rep:
            values["pass"] = rep["pass"]
        if command == "classify-dovm":
            ov = rep["witnesses"]["perfect_pair"]["overlap"]
            _require(rep["class"] == REFERENCE["fixture_class"], "class")
            _require(abs(ov - REFERENCE["fixture_overlap"]) <= 1e-9, "overlap")
            values.update({"class": rep["class"], "overlap": ov,
                           "decided": True})
        elif command == "simulability":
            _require(rep["status"] == "NonSimulable", "status")
            if "shrunk_bloch_p" not in rep:
                _require(abs(rep["overlap"] - REFERENCE["fixture_overlap"])
                         <= 1e-9, "overlap")
            values.update({"status": rep["status"], "overlap": rep["overlap"],
                           "decided": rep["status"] == "NonSimulable"})
        elif command == "discriminate":
            h = rep["helstrom_error"]
            _require(abs(h - REFERENCE["fixture_helstrom"]) <= 1e-9,
                     "helstrom value")
            values["helstrom"] = h
        elif command == "build-pses":
            ex = rep["discrimination_example"]
            _require(abs(ex["overlap"] - ex["overlap_closed_form"]) <= 1e-9,
                     "overlap closed form")
            values["overlap"] = ex["overlap"]
        elif command == "symmetry":
            if rep["check"] == "ses-orbit":
                values.update({"checked": rep["checked"],
                               "skipped": rep["skipped"],
                               "decided": rep["skipped"] == 0})
            else:
                values["gap"] = rep["gap"]
        elif command == "verify-all":
            hier = rep["checks"]["hierarchy"]["checks"]
            # Strict steps rest on a heuristic Infeasible: not certified.
            values.update({
                "helstrom_worst": rep["checks"]["helstrom_equivalence"]["worst"],
                "distance": rep["checks"]["pses_distance"]["distance"],
                "strict_steps": sum(1 for k in hier if k.startswith("strict")),
                "decided": False,
            })
        return values
    return check


_CLI_VERDICT_COMMANDS = {"classify-dovm", "simulability", "verify-all"}


def _cli_verify(seed: int, work_dir: Path, src_dir: Path,
                mode: str) -> list[Task]:
    _write_cli_inputs(work_dir)
    tasks = []
    for command in CLI_COMMANDS:
        argv = [str(work_dir / a) if a.endswith(".json") else a
                for a in command] + ["--seed", str(seed)]
        call = _fresh_call(argv, src_dir) if mode == "fresh" \
            else _inproc_call(argv)
        verdict = argv[0] in _CLI_VERDICT_COMMANDS or "ses-orbit" in argv
        tasks.append(Task(" ".join(command), call, _cli_check(argv), verdict))
    return tasks


# --------------------------------------------------------------------------
# cone_solve: iterative solves inside the deformed cones C_r.

CONE_SOLVE_CASES = ((2, 0.1), (2, 0.2), (3, 0.1), (3, 0.3))
# Two shifted inputs per case put the median task inside the group of
# cr_membership searches rather than at its edge, where it would swing
# between that group and the slower cone solves.
SHIFTED_PER_CASE = 2


def _check_min_error(rho1, rho2, tol_ref: float | None):
    from gptcone import err_of_measurement, helstrom

    def check(result):
        val, meas = result
        d = rho1.shape[0]
        M1, M2 = meas.effects
        hval, _ = helstrom(rho1, rho2)
        _require(val <= hval + TOL, "cone error above Helstrom")
        _require(np.max(np.abs(M1 + M2 - np.eye(d))) <= TOL,
                 "effects do not sum to I")
        _require(abs(err_of_measurement(rho1, rho2, [M1, M2]) - val) <= TOL,
                 "err_of_measurement differs from the reported value")
        if tol_ref is not None:
            # The pair lies in the dual of the effect cone, so no error
            # probability can be negative.
            _require(abs(val - REFERENCE["dist_cone_error"]) <= tol_ref,
                     "no perfect discrimination in C_r")
        return {"error": val, "helstrom": hval}
    return check


def _check_cr(x, gens, own_generator: bool):
    from gptcone import OUT, IN

    def check(v):
        if own_generator:
            _require(v.status != OUT, "own generator reported Out")
        if v.status == OUT and v.tier == "spectrahedron-search":
            y = v.witness
            _require(np.linalg.eigvalsh(y)[0] >= -1e-7, "witness not PSD")
            _require(min(np.real(np.vdot(g, y)) for g in gens) >= -1e-7,
                     "witness violates an endpoint halfspace")
            _require(np.real(np.vdot(y, x)) < 0, "witness pairs >= 0")
        elif v.status == OUT:
            _require(np.real(np.vdot(v.witness, x)) < 0, "witness pairs >= 0")
        elif v.status == IN:
            _require(min(np.real(np.vdot(g, x)) for g in gens) >= -1e-7,
                     "In but pairs negatively with an endpoint")
        return {"status": v.status, "tier": v.tier, "margin": v.margin,
                "decided": v.status in (IN, OUT)}
    return check


def _shifted_input(npm, gens, rng):
    """``npm`` shifted down by half its endpoint-pairing margin, plus a
    small random Hermitian term: indefinite, yet clearing every endpoint
    pairing, so that ``cr_membership`` must decide it by its
    spectrahedron search (the expensive path)."""
    d = npm.shape[0]
    margin = min(np.real(np.vdot(g, npm)) / np.trace(g).real for g in gens)
    scale = 0.02 * abs(np.linalg.eigvalsh(npm)[0])
    for _ in range(1000):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (G + G.conj().T) / 2.0
        x = npm - 0.5 * margin * np.eye(d) + scale * H / np.linalg.norm(H, 2)
        if (np.linalg.eigvalsh(x)[0] < -1e-6
                and min(np.real(np.vdot(g, x)) for g in gens) >= 1e-6):
            return x
    raise RuntimeError("no shifted input found")


def _cone_solve(seed: int) -> list[Task]:
    # Timed calls go through the module attribute, so that the traced run
    # sees them.
    from gptcone import discrimination, pses
    from gptcone.cones import ConeRep
    from gptcone.pses import (PsesParams, dist_example, generalized_bell,
                              npm_element, npm_endpoint_generators, swap_pair)
    from gptcone.sampling import random_state

    # The solvers' own restart seeds stay at the library default: the
    # workload seed varies the inputs, not the algorithm.
    rng = _rng(seed, "cone_solve")
    tasks = []
    fams = {}
    for m, r in CONE_SOLVE_CASES:
        fam = fams.setdefault(m, generalized_bell(m))
        params = PsesParams(family_set=swap_pair(fam), r=r, dims=fam.dims)
        gens = npm_endpoint_generators(params)
        cone = ConeRep(dim=fam.dims.total, generators=gens, oracle=None)
        tag = f"{m}x{m}/r={r}"
        _, (s1, s2), _ = dist_example(r, fam)
        tasks.append(Task(f"min_error_over_cone/dist_example/{tag}",
                          lambda s1=s1, s2=s2, c=cone:
                          discrimination.min_error_over_cone(s1, s2, c),
                          _check_min_error(s1, s2, TOL)))
        a, b = (random_state(fam.dims.total, rng) for _ in range(2))
        tasks.append(Task(f"min_error_over_cone/random_pair/{tag}",
                          lambda a=a, b=b, c=cone:
                          discrimination.min_error_over_cone(a, b, c),
                          _check_min_error(a, b, None)))
        npm = npm_element(r, fam)
        tasks.append(Task(f"cr_membership/npm_element/{tag}",
                          lambda x=npm, p=params: pses.cr_membership(x, p),
                          _check_cr(npm, gens, True), verdict=True))
        for k in range(SHIFTED_PER_CASE):
            x = _shifted_input(npm, gens, rng)
            tasks.append(Task(f"cr_membership/shifted{k}/{tag}",
                              lambda x=x, p=params: pses.cr_membership(x, p),
                              _check_cr(x, gens, False), verdict=True))

    def check_hierarchy(rep):
        _require(rep.ok, "audit failed")
        strict = [k for k in rep.checks if k.startswith("strict_step")]
        return {"pass": rep.ok, "strict_steps": len(strict),
                # Strict steps rest on a heuristic Infeasible.
                "decided": False}

    for m, r_list in ((2, [0.2, 0.1]), (3, [0.3, 0.1])):
        fam = fams[m]
        tasks.append(Task(f"hierarchy_audit/{m}x{m}",
                          lambda fs=swap_pair(fam), rl=r_list, dims=fam.dims:
                          pses.hierarchy_audit(rl, fs, dims),
                          check_hierarchy, verdict=True))
    fam = fams[2]
    p01 = PsesParams(family_set=swap_pair(fam), r=0.1, dims=fam.dims)
    cands = npm_endpoint_generators(p01)
    tasks.append(Task("self_duality_verifier/2x2",
                      lambda: pses.self_duality_verifier(cands, p01,
                                                         samples=30),
                      _check_audit))
    return tasks


def _check_audit(rep):
    _require(rep.ok, "audit failed")
    return {"pass": rep.ok}


# --------------------------------------------------------------------------
# oracle_sweep: thousands of sub-millisecond oracle queries.

ORACLE_DIMS = ((2, 2), (2, 3), (3, 3))
QUERIES_PER_DIMS = 150
DOVM_CHAINS_PER_DIMS = 100
HELSTROM_PAIRS_PER_DIMS = 200
DUAL_IDENTITY_BATCHES = 5
DUAL_IDENTITY_SAMPLES = 1000


def _oracle_check(cone_tag: str, dual: bool, x, dims, kind: str):
    """Reference checks on a membership verdict.

    The checks use only facts the oracle does not compute itself: the
    spectrum of x, its partial transpose, its diagonal, and the sign of
    the witness pairing.
    """
    from gptcone import IN, OUT
    from gptcone.herm import partial_transpose

    lam = np.linalg.eigvalsh(x)[0]

    def check(v):
        # Cone whose membership is actually decided (the dual of SEP is
        # SEP_DUAL and vice versa; PSD and the orthant diagonal are
        # self-dual).
        tag = cone_tag
        if dual:
            tag = {"SEP": "SEP_DUAL", "SEP_DUAL": "SEP"}.get(tag, tag)
        if tag == "PSD":
            _require(v.status == (IN if lam >= -1e-9 else OUT), "PSD verdict")
        elif tag == "CLASSICAL_ORTHANT":
            diag_ok = np.real(np.diag(x)).min() >= -1e-9
            off = np.max(np.abs(x - np.diag(np.diag(x))))
            want = IN if diag_ok and (dual or off <= 1e-9) else OUT
            _require(v.status == want, "orthant verdict")
        elif tag == "SEP":
            pt = np.linalg.eigvalsh(partial_transpose(x, dims))[0]
            if kind == "separable":
                _require(v.status != OUT, "separable state reported Out")
            if v.status == IN:
                _require(pt >= -1e-8 and lam >= -1e-8, "In but not PPT")
        elif tag == "SEP_DUAL":
            if lam >= -1e-9:
                _require(v.status == IN, "PSD input not in SEP*")
        if v.status == OUT and isinstance(v.witness, np.ndarray) \
                and tag != "CLASSICAL_ORTHANT":
            _require(np.real(np.vdot(v.witness, x)) < 0, "witness pairs >= 0")
        return {"status": v.status, "tier": v.tier,
                "decided": v.status in (IN, OUT)}
    return check


def _oracle_sweep(seed: int) -> list[Task]:
    from gptcone import cones, discrimination, dovm, dual
    from gptcone.cones import (CLASSICAL_ORTHANT, CS_NEG, PSD, SEP, SEP_DUAL,
                               make_named_cone)
    from gptcone.herm import BipartiteDims
    from gptcone.sampling import random_herm, random_separable_state, random_state

    rng = _rng(seed, "oracle_sweep")
    tasks = []
    for dA, dB in ORACLE_DIMS:
        dims = BipartiteDims(dA, dB)
        d = dims.total
        tag = f"{dA}x{dB}"
        named = {
            PSD: make_named_cone(PSD, dim=d, dims=dims),
            SEP: make_named_cone(SEP, dims=dims),
            SEP_DUAL: make_named_cone(SEP_DUAL, dims=dims),
            CS_NEG: make_named_cone(CS_NEG, dim=d, params={"s": 0.1}, dims=dims),
            CLASSICAL_ORTHANT: make_named_cone(CLASSICAL_ORTHANT, dim=d),
        }
        inputs = []
        for q in range(QUERIES_PER_DIMS):
            kind = ("state", "separable", "indefinite")[q % 3]
            if kind == "state":
                x = random_state(d, rng)
            elif kind == "separable":
                x = random_separable_state(dims, seed=rng)
            else:
                x = random_herm(d, rng) + 0.5 * np.eye(d)
            inputs.append((kind, x))
        for kind, x in inputs:
            for ctag, cone in named.items():
                tasks.append(Task(
                    f"membership/{ctag}/{tag}/{kind}",
                    lambda c=cone, x=x: cones.membership(c, x),
                    _oracle_check(ctag, False, x, dims, kind), verdict=True))
                tasks.append(Task(
                    f"dual_cone_membership/{ctag}/{tag}/{kind}",
                    lambda c=cone, x=x: cones.dual_cone_membership(c, x),
                    _oracle_check(ctag, True, x, dims, kind), verdict=True))

        for _ in range(DOVM_CHAINS_PER_DIMS):
            s = int(rng.integers(2**31))
            tasks.append(Task(f"dovm_chain/{tag}",
                              lambda dims=dims, s=s: _dovm_chain(dovm, dims, s),
                              _check_dovm_chain))

        for _ in range(HELSTROM_PAIRS_PER_DIMS):
            a, b = random_state(d, rng), random_state(d, rng)
            tasks.append(Task(f"helstrom/{tag}", lambda a=a, b=b:
                              discrimination.helstrom(a, b),
                              _check_helstrom(a, b)))

    for k in range(DUAL_IDENTITY_BATCHES):
        g1 = [random_herm(4, rng) for _ in range(4)]
        g2 = [random_herm(4, rng) for _ in range(4)]
        s = int(rng.integers(2**31))
        tasks.append(Task(
            "dual_identity_check/4",
            lambda g1=g1, g2=g2, s=s: dual.dual_identity_check(
                g1, g2, samples=DUAL_IDENTITY_SAMPLES, seed=s),
            _check_dual_identity))
    return tasks


def _check_dual_identity(rep):
    _require(rep.ok, "dual identity disagreement")
    return {"samples": rep.samples, "disagreements": len(rep.disagreements)}


def _dovm_chain(dovm, dims, seed):
    """random_dovm -> classify -> the class's witnesses."""
    dv = dovm.random_dovm(dims, seed=seed)
    cls = dovm.classify(dv)
    wit = dovm.bq_witness_states(dv) if cls.tag == dovm.BQ else None
    adv = dovm.aq_advantage_states(dv) if cls.tag in (dovm.AQ, dovm.BQ) \
        else None
    return dv, cls, wit, adv


def _check_dovm_chain(result):
    from gptcone.dovm import AQ, BQ, NAQ, POVM

    dv, cls, wit, adv = result
    spectra = [np.linalg.eigvalsh(m) for m in dv.effects]
    neg = [k for k, s in enumerate(spectra) if s[0] < -1e-9]
    if not neg:
        want = POVM
    else:
        lo, hi = spectra[neg[0]][0], spectra[neg[0]][-1]
        want = BQ if hi >= 1 - 1e-9 else AQ if hi > 1 + lo + 1e-9 else NAQ
    _require(cls.tag == want, "class disagrees with the spectrum")
    values = {"class": cls.tag}
    if wit is not None:
        rho1, rho2, overlap = wit
        table = np.array([[np.real(np.trace(r @ m)) for m in dv.effects]
                          for r in (rho1, rho2)])
        _require(np.max(np.abs(table - np.eye(2))) <= 1e-8,
                 "BQ witness pair is not perfectly distinguished")
        values["overlap"] = overlap
    if adv is not None:
        _require(adv[2] > 0, "no advantage margin")
        values["margin"] = adv[2]
    return values


def _check_helstrom(a, b):
    from gptcone import err_of_measurement

    ref = 1.0 - 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())

    def check(result):
        val, meas = result
        _require(abs(val - ref) <= 1e-9, "Helstrom value")
        _require(abs(err_of_measurement(a, b, meas) - val) <= 1e-9,
                 "Helstrom measurement")
        return {"error": val}
    return check

"""Certificates that a two-outcome measurement cannot be simulated by
copy-and-measure protocols over its own state domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dovm import BQ, Dovm, bq_witness_states, classify
from .herm import BipartiteDims, ValidationError, ensure_herm, trace_inner
from .verdict import UNKNOWN, MembershipVerdict


@dataclass
class SimulabilityCertificate:
    status: str                     # "NonSimulable" | "Inconclusive"
    states: tuple | None = None
    overlap: float | None = None
    detail: str = ""


def domain_contains(measurement: Dovm, rho, tol: float = 1e-9) -> bool:
    """Whether a PSD state gives valid probabilities on both effects."""
    rho = ensure_herm(rho)
    if np.linalg.eigvalsh(rho)[0] < -tol:
        raise ValidationError("domain membership is defined for PSD states")
    return all(trace_inner(rho, m) >= -tol for m in measurement.effects)


def n_copy_overlap(rho1, rho2, n: int) -> float:
    """Pairing ``Tr (rho1^{(n)} rho2^{(n)})`` of n-fold tensor copies,
    which factorises as ``(Tr rho1 rho2)^n``."""
    if n < 1:
        raise ValidationError("n must be a positive integer")
    rho1, rho2 = ensure_herm(rho1), ensure_herm(rho2)
    return float(trace_inner(rho1, rho2) ** n)


def non_simulability_certificate(measurement: Dovm, tol: float = 1e-9,
                                 states=None) -> SimulabilityCertificate:
    """Witness that no copy-and-measure protocol reproduces the statistics.

    A measurement in the perfect-discrimination class yields a pair of
    non-orthogonal domain states it distinguishes perfectly, while a POVM
    on any number n of fresh copies sees residual overlap ``overlap^n > 0``
    and must err — so no finite n suffices.  Other classes return
    Inconclusive.  A caller may supply the candidate state pair (e.g. the
    boundary states of a noisy domain); by default the spectral witness
    construction is used.
    """
    cls = classify(measurement, tol)
    if cls.tag != BQ:
        return SimulabilityCertificate(
            status="Inconclusive",
            detail=f"classification {cls.tag} admits no perfect-pair witness")
    if states is None:
        rho1, rho2, _ = bq_witness_states(measurement, tol)
    else:
        rho1, rho2 = (ensure_herm(s) for s in states)
    for rho in (rho1, rho2):
        if not domain_contains(measurement, rho, max(tol, 1e-8)):
            return SimulabilityCertificate(
                status="Inconclusive",
                detail="candidate state fell outside the measurement domain")
    overlap = trace_inner(rho1, rho2)
    if overlap <= tol:
        return SimulabilityCertificate(
            status="Inconclusive", detail="witness pair is orthogonal")
    gram = np.array([[trace_inner(rho1, measurement.m1),
                      trace_inner(rho1, measurement.m2)],
                     [trace_inner(rho2, measurement.m1),
                      trace_inner(rho2, measurement.m2)]])
    if np.max(np.abs(gram - np.eye(2))) > 1e-8:
        raise ValidationError("witness pair is not perfectly distinguished")
    return SimulabilityCertificate(status="NonSimulable",
                                   states=(rho1, rho2),
                                   overlap=float(overlap),
                                   detail="perfect pair with residual overlap")


def shrunk_bloch_example(p: float, samples: int = 1000) -> dict:
    """The depolarized-qubit instance: a beyond-POVM effect pair valid on
    the shrunk state space that perfectly splits two overlapping states.

    For noise level 0 < p < 1 the effect built from the z projectors as
    ``M = -((1-p)/(2p)) P1 + ((1+p)/(2p)) P2`` gives probabilities in
    [0, 1] on every shrunk state ``p rho + (1-p) I/2``, and the boundary
    states ``rho_i = p P_i + (1-p) I/2`` are distinguished exactly while
    overlapping by ``p(1-p) + (1-p)^2/2 > 0``.

    Validity on the domain is checked exactly: ``Tr (p rho + (1-p) I/2) M``
    is least at rho = M's bottom eigenprojector, where it equals
    ``p lambda_min(M) + (1-p)/2 Tr M``.  ``samples`` is ignored.
    """
    if not 0.0 < p < 1.0:
        raise ValidationError("p must lie in (0, 1)")
    P1 = np.diag([1.0, 0.0]).astype(complex)
    P2 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    m1 = -((1.0 - p) / (2.0 * p)) * P1 + ((1.0 + p) / (2.0 * p)) * P2
    # The effects are valid against the shrunk domain (checked below), not
    # block-positive on a tensor split, so the tensor-split screening is
    # bypassed with precomputed evidence.
    evidence = (MembershipVerdict(UNKNOWN, tier="shrunk-domain"),
                MembershipVerdict(UNKNOWN, tier="shrunk-domain"))
    meas = Dovm(m1=m1, m2=eye - m1, dims=BipartiteDims(1, 2),
                block_positivity_evidence=evidence)

    worst = min(p * np.linalg.eigvalsh(m)[0]
                + (1.0 - p) / 2.0 * np.trace(m).real for m in meas.effects)
    valid_on_domain = worst >= -1e-9

    rho1 = p * P2 + (1.0 - p) / 2.0 * eye
    rho2 = p * P1 + (1.0 - p) / 2.0 * eye
    table = np.array([[trace_inner(rho1, meas.m1), trace_inner(rho1, meas.m2)],
                      [trace_inner(rho2, meas.m1), trace_inner(rho2, meas.m2)]])
    table_residual = float(np.max(np.abs(table - np.eye(2))))
    overlap = trace_inner(rho1, rho2)
    expected = p * (1.0 - p) + (1.0 - p) ** 2 / 2.0
    cert = non_simulability_certificate(meas, states=(rho1, rho2))
    return {
        "p": p,
        "measurement": meas,
        "boundary_states": (rho1, rho2),
        "valid_on_domain": valid_on_domain,
        "domain_min_probability": float(worst),
        "table_residual": table_residual,
        "overlap": float(overlap),
        "overlap_closed_form": expected,
        "certificate": cert,
        "pass": (valid_on_domain and table_residual <= 1e-12
                 and abs(overlap - expected) <= 1e-12
                 and cert.status == "NonSimulable"),
    }

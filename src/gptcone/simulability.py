"""Certificates that a two-outcome measurement cannot be simulated by
copy-and-measure protocols over its own state domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import SHRUNK_BLOCH, Measurement, dual_cone_membership, make_named_cone
from .discrimination import _table_residual, perfectly_distinguishable
from .dovm import BQ, TOL, bq_witness_states, classify
from .herm import ValidationError, _inner, ensure_herm


@dataclass
class SimulabilityCertificate:
    status: str                     # "NonSimulable" | "Inconclusive"
    states: tuple | None = None
    overlap: float | None = None
    detail: str = ""


def domain_contains(measurement: Measurement, rho) -> bool:
    """Whether a PSD state gives valid probabilities on both effects, to
    1e-8.  A state with an eigenvalue below -1e-8 raises."""
    rho, *effects = ensure_herm([rho, *measurement.effects])
    if np.linalg.eigvalsh(rho)[0] < -1e-8:
        raise ValidationError("domain membership is defined for PSD states")
    return all(_inner(rho, m) >= -1e-8 for m in effects)


def n_copy_overlap(rho1, rho2, n: int) -> float:
    """Pairing ``Tr (rho1^{(n)} rho2^{(n)})`` of n-fold tensor copies,
    which factorises as ``(Tr rho1 rho2)^n``."""
    if n < 1:
        raise ValidationError("n must be a positive integer")
    return float(_inner(*ensure_herm([rho1, rho2])) ** n)


def non_simulability_certificate(measurement: Measurement,
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
    cls = classify(measurement)
    if cls.tag != BQ:
        return SimulabilityCertificate(
            status="Inconclusive",
            detail=f"classification {cls.tag} admits no perfect-pair witness")
    if states is None:
        rho1, rho2, _ = bq_witness_states(measurement)
    else:
        rho1, rho2 = ensure_herm(list(states))
    for rho in (rho1, rho2):
        if not domain_contains(measurement, rho):
            return SimulabilityCertificate(
                status="Inconclusive",
                detail="candidate state fell outside the measurement domain")
    overlap = _inner(rho1, rho2)
    if overlap <= TOL:
        return SimulabilityCertificate(
            status="Inconclusive", detail="witness pair is orthogonal")
    if not perfectly_distinguishable((rho1, rho2), measurement, tol=1e-8):
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

    ``{M, I - M}`` is a :class:`~gptcone.cones.Measurement` without a
    model, not a DOVM: M has a negative eigenvalue.  Validity on the
    domain is each effect's verdict in the SHRUNK_BLOCH cone's dual, whose
    margin is the least of ``Tr (p rho + (1-p) I/2) M`` over states, at
    rho = M's bottom eigenprojector.  ``samples`` is ignored.
    """
    cone = make_named_cone(SHRUNK_BLOCH, dim=2, params={"p": p})  # checks 0 < p < 1
    P1 = np.diag([1.0, 0.0]).astype(complex)
    P2 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    m1 = -((1.0 - p) / (2.0 * p)) * P1 + ((1.0 + p) / (2.0 * p)) * P2
    meas = Measurement([m1, eye - m1])

    worst = min((dual_cone_membership(cone, m) for m in meas.effects),
                key=lambda v: v.margin)
    valid_on_domain = bool(worst)

    rho1 = p * P2 + (1.0 - p) / 2.0 * eye
    rho2 = p * P1 + (1.0 - p) / 2.0 * eye
    table_residual = _table_residual((rho1, rho2), meas)
    overlap = _inner(rho1, rho2)
    expected = p * (1.0 - p) + (1.0 - p) ** 2 / 2.0
    cert = non_simulability_certificate(meas, states=(rho1, rho2))
    return {
        "p": p,
        "measurement": meas,
        "boundary_states": (rho1, rho2),
        "valid_on_domain": valid_on_domain,
        "domain_min_probability": worst.margin,
        "table_residual": table_residual,
        "overlap": float(overlap),
        "overlap_closed_form": expected,
        "certificate": cert,
        "pass": (valid_on_domain and table_residual <= 1e-12
                 and abs(overlap - expected) <= 1e-12
                 and cert.status == "NonSimulable"),
    }

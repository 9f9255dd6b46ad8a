"""Two-outcome dual-operator-valued measures and their four spectral
classes, with the constructive discrimination witnesses for each."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import block_positivity
from .herm import BipartiteDims, ValidationError, ensure_herm
from .verdict import IN, OUT, MembershipVerdict

BQ = "BQ"
AQ = "AQ"
NAQ = "NAQ"
POVM = "POVM"


@dataclass
class Dovm:
    """A two-outcome measurement whose effects are block-positive.

    Construction checks ``m1 + m2 = I``; block positivity is screened by
    :func:`~gptcone.cones.block_positivity` and the evidence is stored,
    with Out verdicts rejected.  At dA dB <= 6 the screen is exact; above
    it an Unknown tier is accepted as honest evidence.  A caller whose
    construction already certifies the effects passes that certificate
    as ``block_positivity_evidence`` instead.
    """

    m1: np.ndarray
    m2: np.ndarray
    dims: BipartiteDims
    block_positivity_evidence: tuple = field(default=None, repr=False)

    def __post_init__(self):
        self.m1 = ensure_herm(self.m1)
        self.m2 = ensure_herm(self.m2)
        dev = float(np.max(np.abs(self.m1 + self.m2 - np.eye(self.dims.total))))
        if dev > 1e-10:
            raise ValidationError(f"effects sum to I only within {dev:.3e}")
        if self.block_positivity_evidence is None:
            self.block_positivity_evidence = tuple(
                block_positivity(m, self.dims) for m in (self.m1, self.m2))
        for k, v in enumerate(self.block_positivity_evidence):
            if v.status == OUT:
                raise ValidationError(
                    f"effect {k + 1} is not block-positive (margin {v.margin:.3e})")

    @property
    def effects(self):
        return [self.m1, self.m2]


@dataclass
class DovmClass:
    """Spectral class tag with the deciding effect and spectra."""

    tag: str
    deciding_effect: int
    spectrum_summary: tuple


def classify(dovm: Dovm, tol: float = 1e-9) -> DovmClass:
    """Classify a DOVM by the extreme eigenvalues of its effects.

    POVM: both effects PSD.  Otherwise examine the effect with a negative
    eigenvalue: BQ if its top eigenvalue reaches 1, AQ if it lies strictly
    between ``1 + lambda_min`` and 1, NAQ if the spectral width is at most
    1.  Boundary ``lambda_max in [1-tol, 1+tol]`` resolves to BQ (the BQ
    condition is the closed one).
    """
    spectra = [np.linalg.eigvalsh(m) for m in (dovm.m1, dovm.m2)]
    summary = tuple((float(s[0]), float(s[-1])) for s in spectra)
    neg = [k for k, s in enumerate(spectra) if s[0] < -tol]
    if not neg:
        return DovmClass(POVM, 0, summary)
    k = neg[0]
    lam1, lamd = summary[k]
    if lamd >= 1.0 - tol:
        return DovmClass(BQ, k, summary)
    if lamd > 1.0 + lam1 + tol:
        return DovmClass(AQ, k, summary)
    return DovmClass(NAQ, k, summary)


def bq_witness_states(dovm: Dovm, tol: float = 1e-9):
    """Non-orthogonal pure state pair perfectly discriminated by a BQ DOVM.

    Built on the extreme eigenvectors of the deciding effect:
    ``phi1 = sqrt((l_d - 1)/(l_d - l_1)) psi_1 + sqrt((1 - l_1)/(l_d - l_1)) psi_d``
    and the complementary weights for ``phi2``.  Returns
    ``(rho1, rho2, overlap)`` with ``Tr rho_i M_j = delta_ij``.
    """
    cls = classify(dovm, tol)
    if cls.tag != BQ:
        raise ValidationError(f"witness construction needs a BQ DOVM, got {cls.tag}")
    k = cls.deciding_effect
    vals, vecs = np.linalg.eigh(dovm.effects[k])
    l1, ld = vals[0], vals[-1]
    psi1, psid = vecs[:, 0], vecs[:, -1]
    width = ld - l1
    phi1 = np.sqrt(max(ld - 1.0, 0.0) / width) * psi1 \
        + np.sqrt((1.0 - l1) / width) * psid
    phi2 = np.sqrt(ld / width) * psi1 + np.sqrt(max(-l1, 0.0) / width) * psid
    rho_a = np.outer(phi1, phi1.conj())
    rho_b = np.outer(phi2, phi2.conj())
    # phi1 is annihilated by the deciding effect's complement ordering:
    # Tr rho_a M_k = 1, Tr rho_b M_k = 0.  Order outputs so that
    # Tr rho_i M_j = delta_ij with M_1 = dovm.m1.
    if k == 0:
        rho1, rho2 = rho_a, rho_b
    else:
        rho1, rho2 = rho_b, rho_a
    overlap = float(abs(np.vdot(phi1, phi2)) ** 2)
    return rho1, rho2, overlap


def aq_advantage_states(dovm: Dovm, tol: float = 1e-9):
    """Separable state pair on which a BQ/AQ DOVM beats the quantum optimum.

    ``rho1 = I/d`` and ``rho2 = I/d + (E_1 - E_d)/(sqrt(2) d)`` built from
    the extreme eigenprojectors of the deciding effect; both lie in the
    separability ball, rho2 on its boundary: ``||I - d rho2||_HS =
    ||E_1 - E_d||_HS / sqrt(2) = 1`` for orthogonal rank-one projectors.
    Returns ``(rho1, rho2, margin)`` where the margin
    is the quantum optimum minus the DOVM's error sum,
    ``(l_d - l_1 - 1)/(sqrt(2) d) > 0``.
    """
    from .discrimination import err_of_measurement, helstrom

    cls = classify(dovm, tol)
    if cls.tag not in (BQ, AQ):
        raise ValidationError(f"advantage construction needs BQ or AQ, got {cls.tag}")
    k = cls.deciding_effect
    vals, vecs = np.linalg.eigh(dovm.effects[k])
    if vals[-1] - vals[0] <= 1.0 + tol:
        raise ValidationError("deciding effect has spectral width <= 1")
    d = dovm.dims.total
    E1 = np.outer(vecs[:, 0], vecs[:, 0].conj())
    Ed = np.outer(vecs[:, -1], vecs[:, -1].conj())
    rho1 = np.eye(d, dtype=complex) / d
    rho2 = rho1 + (E1 - Ed) / (np.sqrt(2.0) * d)
    hval, _ = helstrom(rho1, rho2)
    # Orient outcomes so the deciding effect (which underweights rho2)
    # answers for rho1.
    effects = dovm.effects if k == 0 else dovm.effects[::-1]
    err = err_of_measurement(rho1, rho2, effects)
    return rho1, rho2, hval - err


def aq_from_subcone_witness(T, dims: BipartiteDims) -> Dovm:
    """Turn a non-PSD block-positive direction into an advantage DOVM.

    For T with a negative and a positive eigenvalue, ``{T/l_d, I - T/l_d}``
    is a valid two-outcome family with top eigenvalue exactly 1; it
    witnesses sub-quantum minimum error for any entanglement structure
    whose dual contains T.
    """
    T = ensure_herm(T)
    vals = np.linalg.eigvalsh(T)
    if vals[0] >= -1e-12:
        raise ValidationError("T must have a negative eigenvalue")
    if vals[-1] <= 1e-12:
        raise ValidationError("-T must have a negative eigenvalue")
    Tp = T / vals[-1]
    return Dovm(m1=Tp, m2=np.eye(T.shape[0]) - Tp, dims=dims)


def _psd_evidence(m) -> MembershipVerdict:
    return MembershipVerdict(IN, margin=float(np.linalg.eigvalsh(m)[0]),
                             tier="psd")


def random_dovm(dims: BipartiteDims, seed=None, max_tries: int = 200,
                target: str | None = None) -> Dovm:
    """Synthetic DOVM sampler whose effects carry their block-positivity
    certificate from the construction.

    POVM samples come from a random frame with a [0, 1] spectrum; both
    effects are PSD (tier ``psd``).  The non-positive classes take
    ``m1 = c rho^Gamma`` for a random state rho and a scale c > 0 chosen
    to land in the requested spectral class.  ``c rho`` is PSD and its
    partial transpose is m1, so m1 is block-positive: it is In with tier
    ``partial-transpose`` and witness ``c rho``.  The scale keeps m1's top
    eigenvalue at most 1, so ``m2 = I - m1`` is PSD (tier ``psd``).
    """
    from .herm import partial_transpose
    from .sampling import haar_unitary, random_pure_state, random_state

    rng = np.random.default_rng(seed)
    d = dims.total
    for _ in range(max_tries):
        kind = target or rng.choice([POVM, NAQ, AQ, BQ])
        if kind == POVM:
            vals = rng.uniform(0.0, 1.0, size=d)
            U = haar_unitary(d, rng)
            m1 = (U * vals) @ U.conj().T
            ev1 = _psd_evidence(m1)
        else:
            if kind == BQ:
                base = random_pure_state(d, rng)
            else:
                base = random_state(d, rng, rank=int(rng.integers(1, 3)))
            G = partial_transpose(base, dims)
            mu = np.linalg.eigvalsh(G)
            if mu[0] > -1e-8:
                continue
            if kind == BQ:
                # Top eigenvalue pinned to 1, negative part survives.
                W = base / mu[-1]
            else:
                lo, hi = (1.05, 1.4) if kind == AQ else (0.2, 0.98)
                W = base * (rng.uniform(lo, hi) / (mu[-1] - mu[0]))
            m1 = partial_transpose(W, dims)
            if kind == AQ and np.linalg.eigvalsh(m1)[-1] >= 1.0 - 1e-6:
                continue
            ev1 = MembershipVerdict(IN, witness=W, tier="partial-transpose")
        m2 = np.eye(d) - m1
        # The draw once seeded Dovm's screen; it stays so that the stream
        # of samples is unchanged.
        rng.integers(2**31)
        return Dovm(m1=m1, m2=m2, dims=dims,
                    block_positivity_evidence=(ev1, _psd_evidence(m2)))
    raise ValidationError("sampler failed to produce a valid DOVM")

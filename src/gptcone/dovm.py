"""Two-outcome dual-operator-valued measures and their four spectral
classes, with the constructive discrimination witnesses for each."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import GptModel, Measurement, sep_model
from .discrimination import err_of_measurement, helstrom
from .herm import BipartiteDims, ValidationError, ensure_herm, partial_transpose
from .sampling import haar_unitary, random_pure_state, random_state

BQ = "BQ"
AQ = "AQ"
NAQ = "NAQ"
POVM = "POVM"
TOL = 1e-9  # spectral tolerance of the class boundaries


@dataclass
class Dovm(Measurement):
    """A DOVM: the two-outcome :class:`~gptcone.cones.Measurement` of
    ``sep_model(dims)``, whose effects lie in SEP*, the block-positive cone.

    Each effect's dual-cone verdict is kept as ``block_positivity_evidence``
    and an Out is rejected; it is exact at dA dB <= 6, and above it an
    Unknown is honest evidence.  A caller that vouches for its effects may
    pass its own verdicts instead, checked the same way (none in gptcone).
    """

    # Built from m1, m2 and dims, so the constructor keeps its signature.
    effects: list = field(init=False, repr=False)
    model: GptModel = field(init=False, repr=False)
    m1: np.ndarray
    m2: np.ndarray
    dims: BipartiteDims
    block_positivity_evidence: tuple = field(default=None, repr=False)

    def __post_init__(self):
        self.effects, self.model = [self.m1, self.m2], sep_model(self.dims)
        super().__post_init__()
        self.m1, self.m2 = self.effects

    def _dual_verdicts(self):
        if self.block_positivity_evidence is None:
            self.block_positivity_evidence = tuple(super()._dual_verdicts())
        return self.block_positivity_evidence


@dataclass
class DovmClass:
    """Spectral class tag with the deciding effect and spectra."""

    tag: str
    deciding_effect: int
    spectrum_summary: tuple


def classify(dovm: Measurement) -> DovmClass:
    """Classify a two-outcome :class:`~gptcone.cones.Measurement`, such as
    a :class:`Dovm`, by its effects' extreme eigenvalues.

    POVM: both effects PSD.  Otherwise examine the effect with a negative
    eigenvalue: BQ if its top eigenvalue reaches 1, AQ if it lies strictly
    between ``1 + lambda_min`` and 1, NAQ if the spectral width is at most
    1.  Boundary ``lambda_max in [1-TOL, 1+TOL]`` resolves to BQ (the BQ
    condition is the closed one).
    """
    if len(dovm.effects) != 2:
        raise ValidationError(f"classify needs two effects, got {len(dovm.effects)}")
    spectra = [np.linalg.eigvalsh(m) for m in dovm.effects]
    summary = tuple((float(s[0]), float(s[-1])) for s in spectra)
    neg = [k for k, s in enumerate(spectra) if s[0] < -TOL]
    if not neg:
        return DovmClass(POVM, 0, summary)
    k = neg[0]
    lam1, lamd = summary[k]
    if lamd >= 1.0 - TOL:
        return DovmClass(BQ, k, summary)
    if lamd > 1.0 + lam1 + TOL:
        return DovmClass(AQ, k, summary)
    return DovmClass(NAQ, k, summary)


def bq_witness_states(dovm: Measurement):
    """Non-orthogonal pure state pair perfectly discriminated by a BQ DOVM.

    Built on the extreme eigenvectors of the deciding effect:
    ``phi1 = sqrt((l_d - 1)/(l_d - l_1)) psi_1 + sqrt((1 - l_1)/(l_d - l_1)) psi_d``
    and the complementary weights for ``phi2``.  Returns
    ``(rho1, rho2, overlap)`` with ``Tr rho_i M_j = delta_ij``.
    """
    cls = classify(dovm)
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
    # Tr rho_i M_j = delta_ij with M_1 the first effect.
    if k == 0:
        rho1, rho2 = rho_a, rho_b
    else:
        rho1, rho2 = rho_b, rho_a
    overlap = float(abs(np.vdot(phi1, phi2)) ** 2)
    return rho1, rho2, overlap


def aq_advantage_states(dovm: Measurement):
    """Separable state pair on which a BQ/AQ DOVM beats the quantum optimum.

    ``rho1 = I/d`` and ``rho2 = I/d + (E_1 - E_d)/(sqrt(2) d)`` built from
    the extreme eigenprojectors of the deciding effect; both lie in the
    separability ball, rho2 on its boundary: ``||I - d rho2||_HS =
    ||E_1 - E_d||_HS / sqrt(2) = 1`` for orthogonal rank-one projectors.
    Returns ``(rho1, rho2, margin)`` where the margin
    is the quantum optimum minus the DOVM's error sum,
    ``(l_d - l_1 - 1)/(sqrt(2) d) > 0``.
    """
    cls = classify(dovm)
    if cls.tag not in (BQ, AQ):
        raise ValidationError(f"advantage construction needs BQ or AQ, got {cls.tag}")
    k = cls.deciding_effect
    vals, vecs = np.linalg.eigh(dovm.effects[k])
    if vals[-1] - vals[0] <= 1.0 + TOL:
        raise ValidationError("deciding effect has spectral width <= 1")
    d = len(dovm.effects[0])
    E1 = np.outer(vecs[:, 0], vecs[:, 0].conj())
    Ed = np.outer(vecs[:, -1], vecs[:, -1].conj())
    rho1 = np.eye(d, dtype=complex) / d
    rho2 = rho1 + (E1 - Ed) / (np.sqrt(2.0) * d)
    hval, _ = helstrom(rho1, rho2)
    # Orient outcomes so the deciding effect (which underweights rho2)
    # answers for rho1.
    effects = dovm.effects if k == 0 else dovm.effects[::-1]
    return rho1, rho2, hval - err_of_measurement(rho1, rho2, effects)


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


def preceding_measurement(alpha1: float, alpha2: float,
                          beta1: float, beta2: float) -> Dovm:
    """The two-outcome construction underlying the preceding criteria.

    Builds ``M_i = T_i + pt(T_i)`` on 2 (x) 2 from the printed 4 x 4
    blocks.  The beta parameters are caller-supplied; the convention
    ``alpha_i^2 + beta_i^2 = 1`` is recommended but not enforced.
    """
    if not (0.0 < alpha1 <= 1.0 and 0.0 < alpha2 <= 1.0):
        raise ValidationError("alpha_i must lie in (0, 1]")
    g = alpha1 + alpha2
    b1a1 = beta1 / alpha1
    b2a2 = beta2 / alpha2
    T1 = np.array([
        [g, 0, 0, -b1a1 * b2a2 * g],
        [0, g - 1, 0, -(g - 1) * b1a1],
        [0, 0, g - 1, -(g - 1) * b2a2],
        [-b1a1 * b2a2 * g, -(g - 1) * b1a1, -(g - 1) * b2a2, 2 - g],
    ], dtype=complex) / (2 * g)
    T2 = np.array([
        [0, 0, 0, 0],
        [0, 1, b1a1 * b2a2 * g, (g - 1) * b1a1],
        [0, b1a1 * b2a2 * g, 1, (g - 1) * b2a2],
        [0, (g - 1) * b1a1, (g - 1) * b2a2, 2 * (g - 1)],
    ], dtype=complex) / (2 * g)
    dims = BipartiteDims(2, 2)
    m1 = T1 + partial_transpose(T1, dims)
    m2 = T2 + partial_transpose(T2, dims)
    return Dovm(m1=m1, m2=m2, dims=dims)


def random_dovm(dims: BipartiteDims, seed=None,
                target: str | None = None) -> Dovm:
    """Synthetic DOVM sampler whose effects the SEP* oracle certifies.

    POVM samples come from a random frame with a [0, 1] spectrum; both
    effects are PSD (tier ``psd``).  The non-positive classes take
    ``m1 = c rho^Gamma`` for a random state rho and a scale c > 0 chosen
    to land in the requested spectral class.  ``c rho`` is PSD and its
    partial transpose is m1, so the oracle finds m1 In with tier
    ``partial-transpose`` and witness ``c rho``.  The scale keeps m1's top
    eigenvalue at most 1, so ``m2 = I - m1`` is PSD (tier ``psd``).
    ``target`` is one of the four class tags, or None for a random class.
    """
    if target not in (None, POVM, NAQ, AQ, BQ):
        raise ValidationError(f"unknown DOVM class {target!r}")
    rng = np.random.default_rng(seed)
    d = dims.total
    for _ in range(200):
        kind = target or rng.choice([POVM, NAQ, AQ, BQ])
        if kind == POVM:
            vals = rng.uniform(0.0, 1.0, size=d)
            U = haar_unitary(d, rng)
            m1 = (U * vals) @ U.conj().T
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
        return Dovm(m1=m1, m2=np.eye(d) - m1, dims=dims)
    raise ValidationError("sampler failed to produce a valid DOVM")

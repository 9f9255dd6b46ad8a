"""Positive cones, GPT models, states, effects, and measurements.

A :class:`ConeRep` can carry a V-description (generators), an
H-description (dual generators), and/or a named oracle; membership is
decided by the cheapest decisive tier and returns Unknown honestly when
no tier is decisive (separability is not decidable at tolerance in
general, and the constructions here only ever need the decidable tiers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual import ConicCertificate, conic_feasibility, dual_membership
from .herm import (
    BipartiteDims,
    ValidationError,
    ensure_herm,
    norm,
    partial_transpose,
    tensor,
    trace_inner,
)
from .verdict import IN, OUT, UNKNOWN, MembershipVerdict

PSD = "PSD"
SEP = "SEP"
SEP_DUAL = "SEP_DUAL"
CLASSICAL_ORTHANT = "CLASSICAL_ORTHANT"
SHRUNK_BLOCH = "SHRUNK_BLOCH"
CS_NEG = "CS_NEG"
CR = "CR"

DEFAULT_TOL = 1e-9


@dataclass
class ConeRep:
    """A positive cone in the space of dim x dim Hermitian matrices."""

    dim: int
    generators: list = field(default_factory=list)
    dual_generators: list = field(default_factory=list)
    oracle: str | None = None
    params: dict = field(default_factory=dict)
    dims: BipartiteDims | None = None

    def __post_init__(self):
        if not (self.generators or self.dual_generators or self.oracle):
            raise ValidationError("a ConeRep needs at least one description")
        self.generators = [ensure_herm(g) for g in self.generators]
        self.dual_generators = [ensure_herm(h) for h in self.dual_generators]
        for g in self.generators + self.dual_generators:
            if g.shape != (self.dim, self.dim):
                raise ValidationError("generator dimension mismatch")
        if self.generators and self.dual_generators:
            worst = min(
                trace_inner(g, h)
                for g in self.generators
                for h in self.dual_generators
            )
            if worst < -1e-9:
                raise ValidationError(
                    f"V- and H-descriptions are inconsistent (min pairing {worst:.3e})"
                )

    def check_proper(self, tol: float = 1e-7) -> bool:
        """Sanity check on finitely generated reps: no line in the cone.

        For each generator g, -g must not be conic-feasible over the
        generator list.
        """
        for k, g in enumerate(self.generators):
            if norm(g, "hilbert_schmidt") < tol:
                continue
            res = conic_feasibility(-g, self.generators, include_psd=False, tol=tol)
            if isinstance(res, ConicCertificate):
                return False
        return True


@dataclass
class GptModel:
    """A GPT model: a proper cone together with an order unit."""

    cone: ConeRep
    unit: np.ndarray
    dims: BipartiteDims | None = None

    def __post_init__(self):
        self.unit = ensure_herm(self.unit)
        if self.dims is None:
            self.dims = self.cone.dims
        if self.cone.oracle == PSD:
            if np.linalg.eigvalsh(self.unit)[0] <= 0:
                raise ValidationError("order unit must be positive definite")
        for g in self.cone.generators:
            if norm(g, "hilbert_schmidt") > 1e-12 and trace_inner(self.unit, g) <= 0:
                raise ValidationError("order unit not interior to the dual cone")


@dataclass
class Measurement:
    """A validated family of effects summing to the order unit."""

    effects: list
    model: GptModel | None = None

    def __len__(self):
        return len(self.effects)


class MeasurementValidationError(ValidationError):
    """Raised when an effect family fails measurement validation."""

    def __init__(self, message, index=None, verdict=None):
        super().__init__(message)
        self.index = index
        self.verdict = verdict


def make_named_cone(tag: str, params: dict | None = None,
                    dims: BipartiteDims | None = None, dim: int | None = None,
                    generators=None) -> ConeRep:
    """Build an oracle-backed ConeRep for one of the named cones."""
    params = dict(params or {})
    if tag in (SEP, SEP_DUAL, CR):
        if dims is None:
            raise ValidationError(f"{tag} requires bipartite dims")
        dim = dims.total
    if tag == SHRUNK_BLOCH:
        p = params.get("p")
        if p is None or not (0.0 < p < 1.0):
            raise ValidationError("SHRUNK_BLOCH needs 0 < p < 1")
        dim = dim or 2
        if dim != 2:
            raise ValidationError("SHRUNK_BLOCH is a qubit cone")
        gens = list(generators or [])
        if not gens:
            # Affine image of PSD: images of a frame of rank-1 projectors.
            eye = np.eye(dim, dtype=complex)
            frame = [np.outer(v, v.conj()) for v in eye]
            frame.append(np.full((dim, dim), 1.0 / dim, dtype=complex))
            frame.append(np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex))
            gens = [p * f + (1 - p) / 2.0 * np.trace(f).real * eye for f in frame]
        return ConeRep(dim=dim, generators=gens, oracle=tag, params=params, dims=dims)
    if tag == CS_NEG:
        s = params.get("s")
        if s is None or s < 0:
            raise ValidationError("CS_NEG needs s >= 0")
    if dim is None:
        raise ValidationError("dimension required")
    return ConeRep(dim=dim, generators=list(generators or []), oracle=tag,
                   params=params, dims=dims)


def min_product_expectation(X, dims: BipartiteDims, restarts: int = 64,
                            iters: int = 60, tol: float = 1e-12, seed: int = 0):
    """Local search for the minimum of ``<a(x)b| X |a(x)b>`` over product
    unit vectors.

    Alternates smallest-eigenvector updates of the two local factors from
    ``restarts`` random starts.
    Returns ``(value, a, b)``; a negative value is a certified
    block-positivity violation, a nonnegative one is only evidence.
    """
    from .sampling import random_pure_vector

    X = ensure_herm(X)
    T = X.reshape(dims.dA, dims.dB, dims.dA, dims.dB)
    rng = np.random.default_rng(seed)
    best = (np.inf, None, None)
    for _ in range(max(1, restarts)):
        b = random_pure_vector(dims.dB, rng)
        val = np.inf
        for _ in range(iters):
            MA = np.einsum("a,iajb,b->ij", b.conj(), T, b)
            vals, vecs = np.linalg.eigh((MA + MA.conj().T) / 2.0)
            a = vecs[:, 0]
            MB = np.einsum("i,iajb,j->ab", a.conj(), T, a)
            vals, vecs = np.linalg.eigh((MB + MB.conj().T) / 2.0)
            b = vecs[:, 0]
            new_val = float(vals[0])
            if val - new_val <= tol:
                val = new_val
                break
            val = new_val
        if val < best[0]:
            best = (val, a, b)
    return best


def _psd_membership(x, tol):
    vals, vecs = np.linalg.eigh(x)
    if vals[0] >= -tol:
        return MembershipVerdict(IN, margin=float(vals[0]), tier="eigenvalue")
    v = vecs[:, 0]
    return MembershipVerdict(OUT, witness=np.outer(v, v.conj()),
                             margin=float(vals[0]), tier="eigenvalue")


def gurvits_ball_contains(X, tol: float = 1e-9) -> bool:
    """Sufficient separability condition ``||I - X * d/Tr X||_2 <= 1``."""
    X = ensure_herm(X)
    d = X.shape[0]
    t = float(np.trace(X).real)
    if t <= tol:
        return False
    scaled = X * (d / t)
    return norm(np.eye(d) - scaled, "hilbert_schmidt") <= 1.0 + tol


def _sep_membership(cone, x, tol, seed):
    if cone.generators:
        res = conic_feasibility(x, cone.generators, include_psd=False,
                                tol=max(tol, 1e-8))
        if isinstance(res, ConicCertificate):
            return MembershipVerdict(IN, witness=res, margin=-res.residual,
                                     tier="decomposition")
    if gurvits_ball_contains(x, tol):
        return MembershipVerdict(IN, margin=0.0, tier="gurvits")
    pt = partial_transpose(x, cone.dims)
    vals, vecs = np.linalg.eigh(pt)
    if vals[0] < -tol:
        v = vecs[:, 0]
        witness = partial_transpose(np.outer(v, v.conj()), cone.dims)
        return MembershipVerdict(OUT, witness=witness, margin=float(vals[0]),
                                 tier="ppt")
    if np.linalg.eigvalsh(x)[0] < -tol:
        return _psd_membership(x, tol)
    return MembershipVerdict(UNKNOWN, margin=float(vals[0]), tier="ppt")


def _sep_dual_membership(cone, x, tol, seed, restarts=64):
    vals = np.linalg.eigvalsh(x)
    if vals[0] >= -tol:
        return MembershipVerdict(IN, margin=float(vals[0]), tier="psd")
    val, a, b = min_product_expectation(x, cone.dims, restarts=restarts, seed=seed)
    if val < -tol:
        ab = np.kron(a, b)
        return MembershipVerdict(OUT, witness=np.outer(ab, ab.conj()),
                                 margin=val, tier="product-search")
    return MembershipVerdict(UNKNOWN, margin=val, tier="product-search")


def membership(cone: ConeRep, x, tol: float = DEFAULT_TOL,
               seed: int = 0) -> MembershipVerdict:
    """Tiered membership oracle for ``x in cone``."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    x = ensure_herm(x)
    if x.shape != (cone.dim, cone.dim):
        raise ValidationError("dimension mismatch")

    if cone.oracle == PSD:
        return _psd_membership(x, tol)
    if cone.oracle == CLASSICAL_ORTHANT:
        off = x - np.diag(np.diag(x))
        if np.max(np.abs(off)) > tol:
            return MembershipVerdict(OUT, margin=-float(np.max(np.abs(off))),
                                     tier="diagonal")
        diag = np.real(np.diag(x))
        k = int(np.argmin(diag))
        if diag[k] >= -tol:
            return MembershipVerdict(IN, margin=float(diag[k]), tier="diagonal")
        w = np.zeros_like(x)
        w[k, k] = 1.0
        return MembershipVerdict(OUT, witness=w, margin=float(diag[k]),
                                 tier="diagonal")
    if cone.oracle == SEP:
        return _sep_membership(cone, x, tol, seed)
    if cone.oracle == SEP_DUAL:
        return _sep_dual_membership(cone, x, tol, seed)
    if cone.oracle == SHRUNK_BLOCH:
        p = cone.params["p"]
        t = float(np.trace(x).real)
        rho = (x - (1 - p) / 2.0 * t * np.eye(cone.dim)) / p
        vals, vecs = np.linalg.eigh(rho)
        if vals[0] >= -tol:
            return MembershipVerdict(IN, margin=float(vals[0]), tier="affine-psd")
        u = vecs[:, 0]
        w = np.outer(u, u.conj()) - (1 - p) / 2.0 * np.eye(cone.dim)
        return MembershipVerdict(OUT, witness=w, margin=float(p * vals[0]),
                                 tier="affine-psd")
    if cone.oracle == CS_NEG:
        s = cone.params["s"]
        vals = np.linalg.eigvalsh(x)
        excess = max(-vals[0], 0.0) - s * float(np.trace(x).real)
        if excess > tol:
            return MembershipVerdict(OUT, margin=-excess, tier="nege")
        bp = _sep_dual_membership(cone, x, tol, seed)
        if bp.status == OUT:
            return bp
        if bp.status == IN and excess <= tol:
            return MembershipVerdict(IN, margin=bp.margin, tier="nege+" + (bp.tier or ""))
        return MembershipVerdict(UNKNOWN, margin=bp.margin, tier="nege")
    if cone.oracle == CR:
        from .pses import cr_membership

        return cr_membership(x, cone.params["pses"], tol=tol)
    if cone.generators:
        res = conic_feasibility(x, cone.generators, include_psd=False,
                                tol=max(tol, 1e-8))
        if isinstance(res, ConicCertificate):
            return MembershipVerdict(IN, witness=res, margin=-res.residual,
                                     tier="conic-feasibility")
        return MembershipVerdict(UNKNOWN, margin=res.bound,
                                 tier="conic-feasibility")
    return dual_membership(cone.dual_generators, x, tol)


def dual_cone_membership(cone: ConeRep, x, tol: float = DEFAULT_TOL,
                         seed: int = 0, restarts: int = 64) -> MembershipVerdict:
    """Membership of ``x`` in the *dual* of ``cone``.

    Used to validate effects: the effect space of a model lives in the
    dual of its state cone.  When a cone combines an oracle with extra
    generators (conic hull of the union), the dual is the intersection,
    so verdicts are combined accordingly.
    """
    x = ensure_herm(x)
    parts = []
    if cone.oracle == PSD:
        parts.append(_psd_membership(x, tol))
    elif cone.oracle == CLASSICAL_ORTHANT:
        diag = np.real(np.diag(x))
        k = int(np.argmin(diag))
        if diag[k] >= -tol:
            parts.append(MembershipVerdict(IN, margin=float(diag[k]), tier="diagonal"))
        else:
            w = np.zeros_like(x)
            w[k, k] = 1.0
            parts.append(MembershipVerdict(OUT, witness=w, margin=float(diag[k]),
                                           tier="diagonal"))
    elif cone.oracle == SEP:
        parts.append(_sep_dual_membership(cone, x, tol, seed, restarts=restarts))
    elif cone.oracle == SEP_DUAL:
        parts.append(_sep_membership(cone, x, tol, seed))
    elif cone.oracle == SHRUNK_BLOCH:
        p = cone.params["p"]
        val = p * float(np.linalg.eigvalsh(x)[0]) \
            + (1 - p) / 2.0 * float(np.trace(x).real)
        status = IN if val >= -tol else OUT
        parts.append(MembershipVerdict(status, margin=val, tier="shrunk-bloch-dual"))
    if cone.generators:
        parts.append(dual_membership(cone.generators, x, tol))
    if cone.dual_generators and not (cone.oracle or cone.generators):
        res = conic_feasibility(x, cone.dual_generators, include_psd=False,
                                tol=max(tol, 1e-8))
        if isinstance(res, ConicCertificate):
            parts.append(MembershipVerdict(IN, witness=res, margin=-res.residual,
                                           tier="conic-feasibility"))
        else:
            parts.append(MembershipVerdict(UNKNOWN, margin=res.bound,
                                           tier="conic-feasibility"))
    if not parts:
        return MembershipVerdict(UNKNOWN, tier="no-description")
    for p_ in parts:
        if p_.status == OUT:
            return p_
    if all(p_.status == IN for p_ in parts):
        worst = min(parts, key=lambda p_: p_.margin)
        return MembershipVerdict(IN, margin=worst.margin, tier=worst.tier)
    unknown = next(p_ for p_ in parts if p_.status == UNKNOWN)
    return unknown


def validate_measurement(model: GptModel, effects, tol: float = 1e-10,
                         seed: int = 0) -> Measurement:
    """Check sum-to-unit and dual-cone membership of every effect."""
    if not effects:
        raise MeasurementValidationError("empty effect list")
    effects = [ensure_herm(e) for e in effects]
    total = sum(effects)
    dev = float(np.max(np.abs(total - model.unit)))
    if dev > tol:
        raise MeasurementValidationError(
            f"effects sum to the unit only within {dev:.3e}")
    for k, e in enumerate(effects):
        verdict = dual_cone_membership(model.cone, e, tol=max(tol, DEFAULT_TOL),
                                       seed=seed)
        if verdict.status == OUT:
            raise MeasurementValidationError(
                f"effect {k} is outside the dual cone (margin {verdict.margin:.3e})",
                index=k, verdict=verdict)
    return Measurement(effects=effects, model=model)


def ses_model(dims: BipartiteDims) -> GptModel:
    """Standard quantum theory on the composite space (PSD cone, unit I)."""
    cone = make_named_cone(PSD, dim=dims.total, dims=dims)
    return GptModel(cone=cone, unit=np.eye(dims.total, dtype=complex), dims=dims)


def sep_model(dims: BipartiteDims) -> GptModel:
    cone = make_named_cone(SEP, dims=dims)
    return GptModel(cone=cone, unit=np.eye(dims.total, dtype=complex), dims=dims)


def capacity_demo(model: GptModel, tol: float = 1e-12):
    """Product-basis witness that the capacity equals the total dimension.

    Valid for any cone sandwiched between SEP and SEP* (caller asserts):
    returns dA*dB product basis states and the product projector
    measurement discriminating them perfectly.
    """
    dims = model.dims
    states, projectors = [], []
    for i in range(dims.dA):
        for j in range(dims.dB):
            a = np.zeros((dims.dA, dims.dA), dtype=complex)
            a[i, i] = 1.0
            b = np.zeros((dims.dB, dims.dB), dtype=complex)
            b[j, j] = 1.0
            states.append(tensor(a, b))
            projectors.append(tensor(a, b))
    gram = np.array([[trace_inner(s, p) for p in projectors] for s in states])
    if np.max(np.abs(gram - np.eye(len(states)))) > tol:
        raise ValidationError("product basis failed the discrimination check")
    return states, Measurement(effects=projectors, model=model)

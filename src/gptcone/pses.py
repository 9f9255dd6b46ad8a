"""Pseudo-standard entanglement structures: maximally entangled projector
families, the one-parameter non-positive deformations ``N(lambda)``, the
resulting pre-dual cones, their audits, and the non-orthogonal perfect
discrimination example they support."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dual import (
    ConicCertificate,
    conic_membership,
    dual_membership,
    gram_predual_check,
)
from .herm import (
    BipartiteDims,
    ValidationError,
    ensure_herm,
    norm,
    partial_trace,
    trace_inner,
)
from .verdict import IN, OUT, MembershipVerdict


@dataclass
class MeopFamily:
    """An orthonormal family of maximally entangled rank-1 projectors
    spanning the composite space (dA = dB = m, count = m^2)."""

    dims: BipartiteDims
    projectors: list

    def __post_init__(self):
        if self.dims.dA != self.dims.dB:
            raise ValidationError("maximally entangled families need dA == dB")
        if len(self.projectors) != self.dims.total:
            raise ValidationError("family must span the composite space")
        self.projectors = [ensure_herm(P) for P in self.projectors]

    def validate(self, tol: float = 1e-10):
        m = self.dims.dA
        gram = np.array([[trace_inner(P, Q) for Q in self.projectors]
                         for P in self.projectors])
        if np.max(np.abs(gram - np.eye(len(self.projectors)))) > tol:
            raise ValidationError("projectors are not trace-orthonormal")
        total = sum(self.projectors)
        if np.max(np.abs(total - np.eye(self.dims.total))) > tol:
            raise ValidationError("projectors do not resolve the identity")
        for P in self.projectors:
            for keep in ("A", "B"):
                red = partial_trace(P, self.dims, keep)
                if np.max(np.abs(red - np.eye(m) / m)) > tol:
                    raise ValidationError("projector is not maximally entangled")
        return self


@dataclass
class PsesParams:
    """A subset of MEOP families together with the deformation size r."""

    family_set: list
    r: float
    dims: BipartiteDims

    def __post_init__(self):
        if not self.family_set:
            raise ValidationError("family_set must be nonempty")
        if self.r < 0:
            raise ValidationError("r must be nonnegative")


def generalized_bell(m: int) -> MeopFamily:
    """Clock-and-shift displacement family of m^2 maximally entangled
    orthonormal projectors (the Bell basis for m = 2)."""
    if m < 2:
        raise ValidationError("local dimension must be at least 2")
    dims = BipartiteDims(m, m)
    omega = np.exp(2j * np.pi / m)
    shift = np.roll(np.eye(m, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(m))
    phi = np.eye(m, dtype=complex).reshape(-1) / np.sqrt(m)
    projectors = []
    for a in range(m):
        for b in range(m):
            U = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            v = np.kron(np.eye(m, dtype=complex), U) @ phi
            projectors.append(np.outer(v, v.conj()))
    return MeopFamily(dims=dims, projectors=projectors).validate()


def swap_family(family: MeopFamily) -> MeopFamily:
    """Same family with the first two projectors exchanged."""
    if len(family.projectors) < 2:
        raise ValidationError("need at least two projectors to swap")
    proj = list(family.projectors)
    proj[0], proj[1] = proj[1], proj[0]
    return MeopFamily(dims=family.dims, projectors=proj)


def swap_pair(family: MeopFamily) -> list:
    """The two-element family subset {family, swapped family}."""
    return [family, swap_family(family)]


def npm_element(lam: float, family: MeopFamily) -> np.ndarray:
    """``N(lambda) = -lam E_1 + (1 + lam) E_2 + (1/2) sum_{k>=3} E_k``."""
    if lam < 0:
        raise ValidationError("lambda must be nonnegative")
    E = family.projectors
    rest = sum(E[2:]) if len(E) > 2 else np.zeros_like(E[0])
    return -lam * E[0] + (1.0 + lam) * E[1] + 0.5 * rest


def npm_endpoint_generators(params: PsesParams) -> list:
    """Conic generators of the hull of the deformation family.

    ``N(lambda)`` is affine in lambda, so the hull over ``[0, r]`` is
    generated by the lambda = 0 and lambda = r endpoints of each family.
    """
    gens = []
    for fam in params.family_set:
        gens.append(npm_element(0.0, fam))
        if params.r > 0:
            gens.append(npm_element(params.r, fam))
    return gens


def r0(dims: BipartiteDims) -> float:
    """Largest deformation guaranteeing pre-duality: ``(sqrt(2D)-2)/4``
    with D the total dimension."""
    return (np.sqrt(2.0 * dims.total) - 2.0) / 4.0


def eps_of_r(r: float) -> float:
    """Distance scale ``2 sqrt(2r/(2r+1))`` of the deformed structure."""
    if r < 0:
        raise ValidationError("r must be nonnegative")
    return 2.0 * np.sqrt(2.0 * r / (2.0 * r + 1.0))


def r_of_eps(eps: float) -> float:
    """Inverse of :func:`eps_of_r`: ``r = eps^2 / (2 (4 - eps^2))``."""
    if not 0.0 <= eps < 2.0:
        raise ValidationError("eps must lie in [0, 2)")
    return eps * eps / (2.0 * (4.0 - eps * eps))


def cr_membership(x, params: PsesParams,
                  tol: float = 1e-9) -> MembershipVerdict:
    """Membership in the deformed cone ``(C_r^(0)* + NPM_r)*``.

    The dual of SES + NPM_r is ``PSD intersect {<., N_k> >= 0}``, whose
    own dual is ``PSD + cone(N_k)``.  So x is In exactly when it pairs
    nonnegatively with every deformation endpoint N_k and decomposes as
    ``x = sum_k lam_k N_k + P`` with ``lam >= 0`` and P PSD.  A negative
    endpoint pairing gives Out with that endpoint as witness; PSD x
    clearing the pairings is In with ``lam = 0, P = x``.  Otherwise
    :func:`conic_membership` over ``PSD + cone(N_k)`` decides.
    """
    x = ensure_herm(x)
    gens = npm_endpoint_generators(params)
    v = dual_membership(gens, x, tol)
    if v.status == OUT:
        return replace(v, tier="npm-endpoint")
    lam = float(np.linalg.eigvalsh(x)[0])
    if lam >= 0.0:
        return MembershipVerdict(
            IN, witness=ConicCertificate(np.zeros(len(gens)), x, 0.0),
            margin=min(lam, v.margin), tier="psd")
    return conic_membership(x, gens, tol=tol)


@dataclass
class AuditReport:
    """Structured audit result; ``checks`` maps name -> (ok, detail)."""

    checks: dict = field(default_factory=dict)

    def add(self, name, ok, **detail):
        self.checks[name] = {"ok": bool(ok), **detail}

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks.values())

    def to_json(self):
        return {"pass": self.ok, "checks": self.checks}


def predual_audit(params: PsesParams, product_samples: int = 10_000,
                  tol: float = 1e-9, seed: int = 0) -> AuditReport:
    """Numerical evidence that the deformed cone is pre-dual.

    (i) ``product_state_nonnegativity``: every deformation endpoint pairs
    nonnegatively with sampled product states (block-positivity evidence;
    a negative pairing would refute it), with r recorded against the
    analytic bound ``(sqrt(D) - 1)/2``; (ii) ``endpoint_gram``: the full
    endpoint Gram matrix is entrywise nonnegative (the endpoints lie in
    their own dual), with the sufficient bound ``r <= r0`` recorded.
    """
    from .sampling import random_product_vectors

    report = AuditReport()
    gens = npm_endpoint_generators(params)
    D = params.dims.total
    rng = np.random.default_rng(seed)

    V = random_product_vectors(params.dims, product_samples, rng)
    worst = np.inf
    for N in gens:
        vals = np.real(np.einsum("ni,ij,nj->n", V.conj(), N, V))
        worst = min(worst, float(np.min(vals)))
    bound1 = (np.sqrt(D) - 1.0) / 2.0
    report.add("product_state_nonnegativity", worst >= -tol,
               min_value=worst, analytic_bound=bound1,
               r_within_bound=params.r <= bound1 + 1e-12,
               samples=product_samples)

    ok, (pair, value) = gram_predual_check(gens, tol)
    report.add("endpoint_gram", ok, min_pair=list(pair), min_value=value,
               r0=r0(params.dims), r_within_r0=params.r <= r0(params.dims) + 1e-12)
    return report


def hierarchy_audit(r_list, family_set, dims: BipartiteDims,
                    tol: float = 1e-9) -> AuditReport:
    """Strictness certificates for the inclusion chain over decreasing r.

    For consecutive r1 > r2 the endpoint ``N(r1)`` lies outside
    ``PSD + cone(r2 endpoints)``.  A step is strict when
    :func:`conic_membership` answers Out with a separator W that passes
    direct checks: W PSD, ``<W, N> >= -tol`` for every r2 endpoint N and
    ``<W, N(r1)> < -tol``.  W and the checked values are recorded.  A
    passing chain certifies (by the general theory, existence only) an
    n-independent family of self-dual modifications.
    """
    r_list = list(r_list)
    if any(r <= 0 for r in r_list):
        raise ValidationError("hierarchy audit needs positive r values")
    if any(r1 <= r2 for r1, r2 in zip(r_list, r_list[1:])):
        raise ValidationError("r values must be strictly decreasing")
    report = AuditReport()
    if len(r_list) == 1:
        report.add("single_level", True, r=r_list[0])
        return report
    for i, (r1, r2) in enumerate(zip(r_list, r_list[1:])):
        p2 = PsesParams(family_set=family_set, r=r2, dims=dims)
        gens = npm_endpoint_generators(p2)
        n_outer = npm_element(r1, family_set[0])
        v = conic_membership(n_outer, gens, tol=1e-7)
        lam_w = float(np.linalg.eigvalsh(n_outer)[0])
        detail = {}
        strict = v.status == OUT
        if strict:
            # Re-verify the separator directly: W PSD, W in the dual of
            # every inner generator, and W strictly negative on N(r1).
            W = v.witness
            detail = {
                "separator": W,
                "separator_min_eigenvalue": float(np.linalg.eigvalsh(W)[0]),
                "separator_min_pairing": min(trace_inner(W, g) for g in gens),
                "separator_pairing": trace_inner(W, n_outer),
            }
            strict = (detail["separator_min_eigenvalue"] >= -tol
                      and detail["separator_min_pairing"] >= -tol
                      and detail["separator_pairing"] < -tol)
        bound = -v.margin / float(np.linalg.norm(W)) if strict else 0.0
        report.add(f"strict_step_{i}", strict, r_outer=r1, r_inner=r2,
                   witness_min_eigenvalue=lam_w,
                   infeasibility_bound=bound, **detail)
    report.add("self_dual_family_certified", report.ok,
               levels=len(r_list), note="existence only; no construction")
    return report


def distance_upper_bound(params: PsesParams, sigma, tol: float = 1e-8,
                         restarts: int = 32):
    """Trace-distance witness: a dual-side state within ``eps_r`` of a
    maximally entangled target.

    Constructs the isotropic-like mixture
    ``rho0 = a sigma + (1 - a)(I - sigma)/(D - 1)`` with ``a = 1/(2r+1)``,
    checks that its best maximally entangled fidelity is ``a``, checks the
    dual-side pairings against the deformation endpoints, and returns
    ``(||rho0 - sigma||_1, rho0)``.  That fidelity is exactly
    ``max(a, (1 - a)/(D - 1))``: ``<phi|rho0|phi>`` is affine in
    ``|<phi|sigma>|^2``, which spans [0, 1] on maximally entangled phi
    (the clock matrix, a traceless local unitary, reaches 0).
    ``restarts`` is ignored.
    """
    sigma = ensure_herm(sigma)
    D = params.dims.total
    m = params.dims.dA
    vals = np.linalg.eigvalsh(sigma)
    if abs(vals[-1] - 1.0) > 1e-8 or np.sum(vals > 1e-8) != 1:
        raise ValidationError("sigma must be a rank-1 state")
    for keep in ("A", "B"):
        red = partial_trace(sigma, params.dims, keep)
        if np.max(np.abs(red - np.eye(m) / m)) > 1e-8:
            raise ValidationError("sigma is not maximally entangled")
    a = 1.0 / (2.0 * params.r + 1.0)
    eye = np.eye(D, dtype=complex)
    rho0 = a * sigma + (1.0 - a) * (eye - sigma) / (D - 1.0)

    if max(a, (1.0 - a) / (D - 1.0)) > a + tol:
        raise ValidationError("fidelity certificate exceeded the target level")
    if not dual_membership(npm_endpoint_generators(params), rho0, tol):
        raise ValidationError("rho0 failed a dual-side endpoint pairing")
    dist = norm(rho0 - sigma, "trace")
    if dist > eps_of_r(params.r) + tol:
        raise ValidationError("distance exceeded the analytic bound")
    return dist, rho0


def dist_example(r: float, family: MeopFamily, tol: float = 1e-10):
    """Non-orthogonal pair perfectly discriminated inside the deformation.

    Returns ``(measurement, states, overlap)`` where the measurement is
    the lambda = r deformation pair of {family, swapped family} and the
    states are superpositions of the first two projector vectors with
    weights r/(2r+1) and (r+1)/(2r+1).  A quarter-turn relative phase on
    the second state makes the overlap equal the closed form
    ``2 r (r+1) / (2r+1)^2`` (a real-coefficient pair would double it).
    """
    dims = family.dims
    if not 0.0 < r <= r0(dims) + 1e-12:
        raise ValidationError("r must lie in (0, r0]")
    M1 = npm_element(r, family)
    M2 = npm_element(r, swap_family(family))
    if np.max(np.abs(M1 + M2 - np.eye(dims.total))) > 1e-10:
        raise ValidationError("deformation pair failed sum-to-identity")

    def top_vector(P):
        vals, vecs = np.linalg.eigh(P)
        return vecs[:, -1]

    psi1 = top_vector(family.projectors[0])
    psi2 = top_vector(family.projectors[1])
    wa = np.sqrt(r / (2.0 * r + 1.0))
    wb = np.sqrt((r + 1.0) / (2.0 * r + 1.0))
    phi1 = wa * psi1 + wb * psi2
    phi2 = wb * psi1 + 1j * wa * psi2
    rho1 = np.outer(phi1, phi1.conj())
    rho2 = np.outer(phi2, phi2.conj())

    gram = np.array([[trace_inner(rho1, M1), trace_inner(rho1, M2)],
                     [trace_inner(rho2, M1), trace_inner(rho2, M2)]])
    if np.max(np.abs(gram - np.eye(2))) > tol:
        raise ValidationError("discrimination table deviated from identity")
    params = PsesParams(family_set=swap_pair(family), r=r, dims=dims)
    gens = npm_endpoint_generators(params)
    if not all(dual_membership(gens, rho, tol) for rho in (rho1, rho2)):
        raise ValidationError("state failed a dual-side pairing")
    overlap = float(abs(np.vdot(phi1, phi2)) ** 2)
    return (M1, M2), (rho1, rho2), overlap


def overlap_closed_form(r: float) -> float:
    """``2 r (r+1) / (2r+1)^2``, the overlap of the example pair."""
    return 2.0 * r * (r + 1.0) / (2.0 * r + 1.0) ** 2


def overlap_eps_relation(eps: float) -> dict:
    """Overlap of the example pair in terms of the distance scale eps.

    Reports the r-parameterized closed form together with both algebraic
    reductions in circulation, ``eps^2 (8 - eps^2)/32`` (which matches the
    closed form exactly) and ``eps^2 (eps^2 + 8)/32`` (which does not);
    the mismatch flag records which one agrees.
    """
    if not 0.0 < eps < 2.0:
        raise ValidationError("eps must lie in (0, 2)")
    r = r_of_eps(eps)
    overlap = overlap_closed_form(r)
    rederived = eps**2 * (8.0 - eps**2) / 32.0
    printed = eps**2 * (eps**2 + 8.0) / 32.0
    return {
        "r": r,
        "overlap": overlap,
        "rederived_bound": rederived,
        "printed_bound": printed,
        "rederived_matches": abs(overlap - rederived) <= 1e-12,
        "printed_matches": abs(overlap - printed) <= 1e-12,
    }


def self_duality_verifier(candidate_generators, outer: PsesParams,
                          samples: int = 100, tol: float = 1e-8) -> AuditReport:
    """Evidence that a candidate generator set describes a self-dual cone
    sandwiched inside the deformed structure.

    The candidate cone is read as ``cone(candidates) + PSD`` (a finite
    modification of the standard structure).  (a) ``candidate_gram``:
    pairwise Gram nonnegativity (candidates inside their own dual);
    (b) ``sandwich``: candidates pass the deformed-cone membership check
    and the deformation endpoints are conic-feasible over the candidate
    cone.  The dual side needs no check of its own: every element of the
    dual is PSD, so it lies in the candidate cone already.  ``samples``
    is ignored.  Verification predicate only; it never
    constructs the modified cone.
    """
    if not len(candidate_generators):
        raise ValidationError("candidate set must be nonempty")
    cands = [ensure_herm(g) for g in candidate_generators]
    report = AuditReport()

    ok, (pair, value) = gram_predual_check(cands, tol)
    report.add("candidate_gram", ok, min_pair=list(pair), min_value=value)

    sandwich_ok = True
    for g in cands:
        if norm(g, "hilbert_schmidt") < 1e-12:
            continue
        v = cr_membership(g, outer, tol=tol)
        if v.status == OUT:
            sandwich_ok = False
            break
    endpoint_fail = None
    for k, N in enumerate(npm_endpoint_generators(outer)):
        if not conic_membership(N, cands, tol=1e-6):
            endpoint_fail = k
            break
    report.add("sandwich", sandwich_ok and endpoint_fail is None,
               candidates_inside_outer=sandwich_ok,
               failed_endpoint=endpoint_fail)
    return report

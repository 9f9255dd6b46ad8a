"""Pseudo-standard entanglement structures: maximally entangled projector
families, the one-parameter non-positive deformations ``N(lambda)``, the
resulting pre-dual cones, their audits, and the non-orthogonal perfect
discrimination example they support."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import ConeRep, _evaluate
from .discrimination import perfectly_distinguishable
from .dual import _gram_check
from .herm import (
    BipartiteDims,
    ValidationError,
    _inner,
    ensure_herm,
    maximally_entangled_vector,
    partial_trace,
)
from .sampling import random_product_vectors
from .verdict import OUT, MembershipVerdict


@dataclass(frozen=True, eq=False)
class MeopFamily:
    """An orthonormal family of maximally entangled rank-1 projectors
    spanning the composite space (dA = dB = m, count = m^2), checked when
    built to 1e-10: trace-orthonormal, resolving I, marginals I/m.
    Frozen, with read-only copies of the projectors (a tuple), so it stays
    the family that was checked.  Compared and hashed by identity."""

    dims: BipartiteDims
    projectors: tuple

    def __post_init__(self):
        if self.dims.dA != self.dims.dB:
            raise ValidationError("maximally entangled families need dA == dB")
        if len(self.projectors) != self.dims.total:
            raise ValidationError("family must span the composite space")
        # A list makes ensure_herm build a copy.
        stack = ensure_herm(list(self.projectors), dim=self.dims.total)
        stack.flags.writeable = False
        object.__setattr__(self, "projectors", tuple(stack))
        m, D = self.dims.dA, self.dims.total
        flat = stack.reshape(D, -1)
        if np.max(np.abs(np.real(flat.conj() @ flat.T) - np.eye(D))) > 1e-10:
            raise ValidationError("projectors are not trace-orthonormal")
        if np.max(np.abs(sum(self.projectors) - np.eye(D))) > 1e-10:
            raise ValidationError("projectors do not resolve the identity")
        for P in self.projectors:
            for keep in ("A", "B"):
                red = partial_trace(P, self.dims, keep)
                if np.max(np.abs(red - np.eye(m) / m)) > 1e-10:
                    raise ValidationError("projector is not maximally entangled")


@dataclass(frozen=True, eq=False)
class PsesParams:
    """A subset of MEOP families on ``dims`` together with the finite
    deformation size ``r >= 0``; ``cone`` is the deformed effect cone
    ``PSD + cone(N_k)`` over the endpoints, built once with them.  Frozen,
    with ``family_set`` kept as a tuple of frozen families, so ``cone``
    cannot go stale: ``dataclasses.replace`` builds new params with their
    own cone.  Compared and hashed by identity."""

    family_set: tuple
    r: float
    dims: BipartiteDims
    cone: ConeRep = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "family_set", tuple(self.family_set))
        if not self.family_set:
            raise ValidationError("family_set must be nonempty")
        if not 0.0 <= self.r < np.inf:  # also rejects NaN
            raise ValidationError("r must be finite and nonnegative")
        if any(fam.dims != self.dims for fam in self.family_set):
            raise ValidationError("every family must have the params' dims")
        object.__setattr__(self, "cone", ConeRep(
            generators=npm_endpoint_generators(self), dims=self.dims))


def generalized_bell(m: int) -> MeopFamily:
    """Clock-and-shift displacement family of m^2 maximally entangled
    orthonormal projectors (the Bell basis for m = 2)."""
    if m < 2:
        raise ValidationError("local dimension must be at least 2")
    dims = BipartiteDims(m, m)
    omega = np.exp(2j * np.pi / m)
    shift = np.roll(np.eye(m, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(m))
    phi = maximally_entangled_vector(m)
    projectors = []
    for a in range(m):
        for b in range(m):
            U = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            v = np.kron(np.eye(m, dtype=complex), U) @ phi
            projectors.append(np.outer(v, v.conj()))
    return MeopFamily(dims=dims, projectors=projectors)


def swap_families(family: MeopFamily, k: int) -> list:
    """The k families whose family j is ``family`` with projectors 0 and j
    exchanged; family 0 is ``family`` itself."""
    if not 1 <= k <= len(family.projectors):
        raise ValidationError("k must lie in [1, number of projectors]")
    families = [family]
    for j in range(1, k):
        proj = list(family.projectors)
        proj[0], proj[j] = proj[j], proj[0]
        families.append(MeopFamily(dims=family.dims, projectors=proj))
    return families


def swap_family(family: MeopFamily) -> MeopFamily:
    """Same family with the first two projectors exchanged."""
    return swap_families(family, 2)[1]


def swap_pair(family: MeopFamily) -> list:
    """The two-element family subset {family, swapped family}."""
    return swap_families(family, 2)


def npm_element(lam: float, family: MeopFamily) -> np.ndarray:
    """``N(lambda) = -lam E_1 + (1 + lam) E_2 + (1/2) sum_{k>=3} E_k``."""
    if not 0.0 <= lam < np.inf:  # also rejects NaN
        raise ValidationError("lambda must be finite and nonnegative")
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
    if not 0.0 <= r < np.inf:  # also rejects NaN
        raise ValidationError("r must be finite and nonnegative")
    return 2.0 * np.sqrt(2.0 * r / (2.0 * r + 1.0))


def r_of_eps(eps: float) -> float:
    """Inverse of :func:`eps_of_r`: ``r = eps^2 / (2 (4 - eps^2))``."""
    if not 0.0 <= eps < 2.0:
        raise ValidationError("eps must lie in [0, 2)")
    return eps * eps / (2.0 * (4.0 - eps * eps))


def cr_membership(x, params: PsesParams) -> MembershipVerdict:
    """``membership(params.cone, x)``: x in the deformed effect cone C_r =
    ``params.cone`` = ``PSD + cone(N_k)``, the cone ``min_error_over_cone``
    takes.  A state verdict, for the dual ``PSD ∩ cone(N_k)*``, is
    ``dual_cone_membership(params.cone, x)`` until a PSES type carrying
    both cones adds one here.  The conic description decides, to 1e-8: a
    PSD x, or an x with ``x - N_k`` PSD such as N_k, is In by the vertex
    tier without a solve (tier ``decomposition``, 0 iterations); an x
    that a shift of its bottom eigenprojector separates is Out by the
    eigen-shift tier, also without a solve (0 iterations); any other x
    gets the verdict of the first solver iterate that re-verifies, with
    that solve's ``gap``, ``iterations`` and ``converged``.  An Out margin
    ``<W, x>`` is that of a checked separator W, not necessarily the least
    pairing over the dual.
    """
    return _evaluate(params.cone, ensure_herm(x, dim=params.dims.total),
                     dual=False)


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
                  seed: int = 0) -> AuditReport:
    """Numerical evidence that the deformed cone is pre-dual.

    (i) ``product_state_nonnegativity``: every deformation endpoint pairs
    nonnegatively with sampled product states (block-positivity evidence;
    a negative pairing would refute it), with r recorded against the
    analytic bound ``(sqrt(D) - 1)/2``; (ii) ``endpoint_gram``: the full
    endpoint Gram matrix is entrywise nonnegative (the endpoints lie in
    their own dual), with the sufficient bound ``r <= r0`` recorded.
    """
    if product_samples < 1:
        raise ValidationError("product_samples must be at least 1")
    report = AuditReport()
    gens = params.cone.generators
    D = params.dims.total
    rng = np.random.default_rng(seed)

    V = random_product_vectors(params.dims, product_samples, rng)
    worst = np.inf
    for rows in np.split(V, range(1024, product_samples, 1024)):
        for N in gens:  # <v|N|v> = Re sum_i v_i conj((N v)_i), in chunks
            vals = np.einsum("ni,ni->n", rows, (rows @ N.T).conj()).real
            worst = min(worst, float(np.min(vals)))
    bound1 = (np.sqrt(D) - 1.0) / 2.0
    report.add("product_state_nonnegativity", worst >= -1e-9,
               min_value=worst, analytic_bound=bound1,
               r_within_bound=params.r <= bound1 + 1e-12,
               samples=product_samples)

    ok, (pair, value) = _gram_check(gens)
    report.add("endpoint_gram", ok, min_pair=list(pair), min_value=value,
               r0=r0(params.dims), r_within_r0=params.r <= r0(params.dims) + 1e-12)
    return report


def hierarchy_audit(r_list, family_set, dims: BipartiteDims) -> AuditReport:
    """Strictness certificates for the inclusion chain over decreasing r.

    For consecutive r1 > r2 the endpoint ``N(r1)`` lies outside
    ``PSD + cone(r2 endpoints)``, the r2 :attr:`PsesParams.cone`.  A step
    is strict when that cone's conic description, at its 1e-8, answers
    Out with a separator W that passes direct checks: W PSD,
    ``<W, N> >= -1e-9`` for every r2 endpoint N and ``<W, N(r1)> < -1e-9``.
    W and the checked values are recorded, with ``infeasibility_bound``,
    minus the Out margin ``<W, N(r1)>`` over ``||W||_HS``, a lower bound
    on the distance from N(r1) to the inner cone.  For the Bell-family
    swap pair the eigen-shift tier decides each step without a solve:
    ``W = (E_1 + t I) / (1 + t D)`` with ``t = 2 r2 / D``, which pairs
    ``-(r1 - r2) / (1 + 2 r2)`` with N(r1), the value of the closed-form
    ``(1 + r2) E_1 + r2 E_2`` at trace one.  Where no tier decides
    without a solve, W is the first solver iterate's separator that
    re-verified: a checked value, not the optimum.
    A passing chain certifies (by the general theory, existence only) an
    n-independent family of self-dual modifications.
    """
    r_list = list(r_list)
    if not r_list:
        raise ValidationError("hierarchy audit needs at least one r value")
    if not all(0.0 < r < np.inf for r in r_list):  # also rejects NaN
        raise ValidationError("hierarchy audit needs finite positive r values")
    if any(r1 <= r2 for r1, r2 in zip(r_list, r_list[1:])):
        raise ValidationError("r values must be strictly decreasing")
    report = AuditReport()
    if len(r_list) == 1:
        report.add("single_level", True, r=r_list[0])
        return report
    for i, (r1, r2) in enumerate(zip(r_list, r_list[1:])):
        inner = PsesParams(family_set=family_set, r=r2, dims=dims).cone
        gens = inner.generators
        n_outer = npm_element(r1, family_set[0])
        v = _evaluate(inner, n_outer, dual=False)
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
                "separator_min_pairing": min(_inner(W, g) for g in gens),
                "separator_pairing": _inner(W, n_outer),
            }
            strict = (detail["separator_min_eigenvalue"] >= -1e-9
                      and detail["separator_min_pairing"] >= -1e-9
                      and detail["separator_pairing"] < -1e-9)
        bound = -v.margin / float(np.linalg.norm(W)) if strict else 0.0
        report.add(f"strict_step_{i}", strict, r_outer=r1, r_inner=r2,
                   witness_min_eigenvalue=lam_w,
                   infeasibility_bound=bound, **detail)
    report.add("self_dual_family_certified", report.ok,
               levels=len(r_list), note="existence only; no construction")
    return report


def distance_upper_bound(params: PsesParams, sigma, restarts: int = 32):
    """Trace-distance witness: a dual-side state within ``eps_r`` of a
    maximally entangled target.

    Constructs the isotropic-like mixture
    ``rho0 = a sigma + (1 - a)(I - sigma)/(D - 1)`` with ``a = 1/(2r+1)``,
    checks that its best maximally entangled fidelity is ``a``, checks that
    it lies in the dual of ``params.cone``, and returns
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

    if max(a, (1.0 - a) / (D - 1.0)) > a + 1e-8:
        raise ValidationError("fidelity certificate exceeded the target level")
    if not _evaluate(params.cone, rho0, dual=True):
        raise ValidationError("rho0 failed a dual-side endpoint pairing")
    dist = float(np.sum(np.abs(np.linalg.eigvalsh(rho0 - sigma))))
    if dist > eps_of_r(params.r) + 1e-8:
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
    params = PsesParams(family_set=swap_pair(family), r=r, dims=dims)
    M1, M2 = (npm_element(r, f) for f in params.family_set)

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

    if not perfectly_distinguishable((rho1, rho2), (M1, M2), tol=tol):
        raise ValidationError("discrimination table deviated from identity")
    if not all(_evaluate(params.cone, rho, dual=True) for rho in (rho1, rho2)):
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
                          samples: int = 100) -> AuditReport:
    """Evidence that a candidate generator set describes a self-dual cone
    sandwiched inside the deformed structure.

    The candidate cone is read as ``cone(candidates) + PSD`` (a finite
    modification of the standard structure).  (a) ``candidate_gram``:
    pairwise Gram nonnegativity to 1e-9 (candidates inside their own
    dual); (b) ``sandwich``: no candidate is Out of ``outer.cone``, the
    cone :func:`cr_membership` decides, and every deformation endpoint is
    In the candidate :class:`~gptcone.cones.ConeRep`, validated once,
    both to 1e-8 like every conic solve.  The dual side needs no check of
    its own: every element of the dual is PSD, so it lies in the
    candidate cone already.  ``samples`` is ignored.  Verification predicate only; it
    never constructs the modified cone.

    Its ``ok`` is no evidence of self-duality: no check asks whether the
    candidates pair nonnegatively with PSD.  The 2x2 Bell-pair endpoints
    at r = 0.1 pass (Gram minimum 0.28), although two have least
    eigenvalue -0.1, so their cone contains that eigenprojector, which
    pairs negatively with them: the cone is not inside its own dual.
    """
    if not len(candidate_generators):
        raise ValidationError("candidate set must be nonempty")
    candidate = ConeRep(generators=candidate_generators, dims=outer.dims)
    report = AuditReport()

    ok, (pair, value) = _gram_check(candidate.generators)
    report.add("candidate_gram", ok, min_pair=list(pair), min_value=value)

    sandwich_ok = all(np.linalg.norm(g) < 1e-12
                      or _evaluate(outer.cone, g, dual=False).status != OUT
                      for g in candidate.generators)
    endpoint_fail = next(
        (k for k, N in enumerate(outer.cone.generators)
         if not _evaluate(candidate, N, dual=False)), None)
    report.add("sandwich", sandwich_ok and endpoint_fail is None,
               candidates_inside_outer=sandwich_ok,
               failed_endpoint=endpoint_fail)
    return report

"""Dual cones, conic feasibility and the conic solver behind them.

The numerical heart of the library: membership in cones generated by a
finite list of Hermitian matrices (optionally together with the full PSD
cone), pre-duality certificates via Gram matrices, and minimization of a
linear functional over spectrahedra.  Every conic program here goes
through :func:`_solve`, one dense primal-dual interior-point method over
a nonnegative orthant times Hermitian PSD blocks, and every answer
carries the primal or dual point that certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .herm import ValidationError, ensure_herm, trace_inner
from .verdict import IN, OUT, UNKNOWN, MembershipVerdict


@dataclass
class ConicCertificate:
    """``x = sum_k coefficients[k] g_k + psd_part`` up to ``residual``.

    The coefficients are nonnegative, ``psd_part`` is PSD (None when the
    cone has no PSD part) and ``residual`` is the Hilbert-Schmidt norm of
    what the decomposition misses.  ``gap`` is the solver's duality gap.
    """

    coefficients: np.ndarray
    psd_part: np.ndarray | None
    residual: float
    gap: float = 0.0


@dataclass
class Infeasible:
    """``x`` lies outside the cone.

    ``witness`` is a separating functional W with ``<W, g_k> >= 0`` for
    every generator, W PSD when the cone includes PSD, and ``<W, x> < 0``.
    ``bound = -<W, x> / ||W||_HS`` is then a lower bound on the
    Hilbert-Schmidt distance from x to the cone.  When the solver
    certified neither membership nor separation, ``witness`` is None and
    ``bound`` is 0.  ``gap`` is the solver's duality gap.
    """

    bound: float
    witness: np.ndarray | None = None
    gap: float = 0.0


# The solver stops once the relative primal and dual residuals and the
# relative duality gap are all below _TARGET: iterating further lets the
# primal residual drift back up.  A solve whose best iterate misses
# _ACCEPT is reported as not converged.
_TARGET = 1e-10
_ACCEPT = 1e-8
_MAX_ITER = 100
_STALL_ITER = 5


@dataclass
class _Solution:
    """Best iterate of :func:`_solve`.  The dual slacks are implied:
    ``z = c - A^T y`` and ``Z_j = C_j - A_j^*(y)``."""

    u: np.ndarray
    X: list
    y: np.ndarray
    gap: float
    iterations: int
    converged: bool


def _herm(A):
    return (A + np.swapaxes(A, -1, -2).conj()) / 2.0


def _stack(mats, d: int) -> np.ndarray:
    """Hermitian matrices as a ``(len(mats), d, d)`` array, also when empty."""
    return np.array(mats, dtype=complex).reshape(len(mats), d, d)


def _op(A, X):
    """``<A_i, X>`` for a stack ``A`` of Hermitian matrices; a stack of
    m matrices ``X`` gives a ``(len(A), m)`` array."""
    size = A.shape[1] * A.shape[2]
    X = np.asarray(X, dtype=complex)
    flat = X.reshape(X.shape[:-2] + (size,))
    return np.real(A.reshape(len(A), size).conj() @ flat.T)


def _adj(A, y):
    """``sum_i y_i A_i``."""
    flat = A.reshape(len(A), A.shape[1] * A.shape[2])
    return (y @ flat).reshape(A.shape[1:])


def _basis(d: int) -> np.ndarray:
    """Orthonormal basis of the d x d Hermitian matrices under the trace
    inner product, as a ``(d*d, d, d)`` stack."""
    E = np.zeros((d * d, d, d), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    k = 0
    for i in range(d):
        E[k, i, i] = 1.0
        k += 1
        for j in range(i + 1, d):
            E[k, i, j] = E[k, j, i] = s
            E[k + 1, i, j], E[k + 1, j, i] = 1j * s, -1j * s
            k += 2
    return E


def _max_step(v, dv):
    """Largest alpha with ``v + alpha dv >= 0`` (inf when unbounded)."""
    neg = dv < 0
    return float(np.min(-v[neg] / dv[neg])) if np.any(neg) else np.inf


def _max_step_psd(L_inv, dX):
    """Largest alpha with ``X + alpha dX`` PSD, for ``X = L L^*``."""
    lam = np.linalg.eigvalsh(_herm(L_inv @ dX @ L_inv.conj().T))[0]
    return -1.0 / lam if lam < 0 else np.inf


def _solve(b, c, A, blocks=()) -> _Solution:
    """Primal-dual interior-point method for the conic program

        min  c.u + sum_j <C_j, X_j>
        s.t. A u + sum_j A_j(X_j) = b,   u >= 0,   X_j PSD,

    and its dual ``max b.y`` subject to ``c - A^T y >= 0`` and
    ``C_j - A_j^*(y)`` PSD, where ``A_j(X)_i = <A_j[i], X>``.  ``blocks``
    lists the pairs ``(C_j, A_j)``, ``A_j`` a stack of Hermitian matrices
    with one matrix per equality.

    HKM search direction with Mehrotra's predictor-corrector from an
    infeasible start at the identity.  The Schur complement is solved by
    LU, which survives the near-singular systems close to the optimum
    where Cholesky fails (least squares if a pivot is exactly zero).
    Dependent equalities are dropped first, and an inconsistent system
    raises :class:`ValidationError`.  Returns the iterate with the
    smallest worst relative residual or gap.
    """
    norm = np.linalg.norm
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(len(b), len(c))
    Cs = [np.asarray(Cj, dtype=complex) for Cj, _ in blocks]
    As = [np.asarray(Aj, dtype=complex) for _, Aj in blocks]

    # Drop dependent equalities (a pure generator cone spans only part of
    # the Hermitian matrices).
    rows = np.hstack([A] + [np.hstack([Aj.reshape(len(b), -1).real,
                                       Aj.reshape(len(b), -1).imag])
                            for Aj in As])
    U, s, _ = np.linalg.svd(rows, full_matrices=False)
    keep = s > 1e-12 * s[0] if s.size else s > 0
    if keep.sum() < len(b):
        Q = U[:, keep]
        if norm(b - Q @ (Q.T @ b)) > 1e-9 * (1.0 + norm(b)):
            raise ValidationError("conic program has inconsistent equalities")
        b, A = Q.T @ b, Q.T @ A
        As = [np.tensordot(Q.T, Aj, axes=1) for Aj in As]
    p = len(b)

    nu = len(c) + sum(len(Cj) for Cj in Cs)
    u, z, y = np.ones(len(c)), np.ones(len(c)), np.zeros(p)
    X = [np.eye(len(Cj), dtype=complex) for Cj in Cs]
    Z = [np.eye(len(Cj), dtype=complex) for Cj in Cs]
    b_scale = 1.0 + norm(b)
    c_scale = 1.0 + np.sqrt(norm(c) ** 2 + sum(norm(Cj) ** 2 for Cj in Cs))
    best, best_err, best_it = None, np.inf, 0
    tau = 0.9
    for it in range(_MAX_ITER):
        rp = b - A @ u - sum((_op(Aj, Xj) for Aj, Xj in zip(As, X)),
                             np.zeros(p))
        rd = c - z - A.T @ y
        Rd = [Cj - Zj - _adj(Aj, y) for Cj, Zj, Aj in zip(Cs, Z, As)]
        pobj = c @ u + sum(np.real(np.vdot(Cj, Xj)) for Cj, Xj in zip(Cs, X))
        dobj = b @ y
        err = max(norm(rp) / b_scale,
                  np.sqrt(norm(rd) ** 2 + sum(norm(R) ** 2 for R in Rd))
                  / c_scale,
                  abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)))
        if err < best_err:
            best = (u.copy(), [Xj.copy() for Xj in X], y.copy(), pobj - dobj)
            best_err, best_it = err, it
        if err <= _TARGET or it - best_it >= _STALL_ITER:
            break
        mu = (u @ z + sum(np.real(np.vdot(Xj, Zj))
                          for Xj, Zj in zip(X, Z))) / nu
        try:
            LX = [np.linalg.inv(np.linalg.cholesky(Xj)) for Xj in X]
            LZ = [np.linalg.inv(np.linalg.cholesky(Zj)) for Zj in Z]
            Zinv = [L.conj().T @ L for L in LZ]
            ratio = u / z
            M = (A * ratio) @ A.T
            for Aj, Xj, Zi in zip(As, X, Zinv):
                M += _op(Aj, Xj @ Aj @ Zi)
            M = (M + M.T) / 2.0

            def direction(target, corr_u, corr_X):
                h = (target - corr_u) / z - u
                H = [target * Zi - Xj - _herm(Cx @ Zi)
                     for Zi, Xj, Cx in zip(Zinv, X, corr_X)]
                rhs = rp - A @ (h - ratio * rd) - sum(
                    (_op(Aj, Hj - _herm(Xj @ R @ Zi))
                     for Aj, Hj, Xj, R, Zi in zip(As, H, X, Rd, Zinv)),
                    np.zeros(p))
                try:
                    dy = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    # An exactly singular pivot near a degenerate optimum.
                    dy = np.linalg.lstsq(M, rhs, rcond=None)[0]
                dz = rd - A.T @ dy
                dZ = [R - _adj(Aj, dy) for R, Aj in zip(Rd, As)]
                du = h - ratio * dz
                dX = [Hj - _herm(Xj @ dZj @ Zi)
                      for Hj, Xj, dZj, Zi in zip(H, X, dZ, Zinv)]
                return du, dX, dy, dz, dZ

            def steps(du, dX, dz, dZ):
                ap = min([_max_step(u, du)]
                         + [_max_step_psd(L, d) for L, d in zip(LX, dX)])
                ad = min([_max_step(z, dz)]
                         + [_max_step_psd(L, d) for L, d in zip(LZ, dZ)])
                return ap, ad

            du, dX, dy, dz, dZ = direction(
                0.0, 0.0, [np.zeros_like(Xj) for Xj in X])
            ap, ad = steps(du, dX, dz, dZ)
            ap, ad = min(1.0, ap), min(1.0, ad)
            mu_aff = ((u + ap * du) @ (z + ad * dz) + sum(
                np.real(np.vdot(Xj + ap * a, Zj + ad * g))
                for Xj, a, Zj, g in zip(X, dX, Z, dZ))) / nu
            sigma = min(1.0, max(mu_aff, 0.0) / mu) ** 3
            du, dX, dy, dz, dZ = direction(
                sigma * mu, du * dz, [a @ g for a, g in zip(dX, dZ)])
            ap, ad = steps(du, dX, dz, dZ)
        except np.linalg.LinAlgError:
            break
        ap, ad = min(1.0, tau * ap), min(1.0, tau * ad)
        u, z, y = u + ap * du, z + ad * dz, y + ad * dy
        X = [Xj + ap * d for Xj, d in zip(X, dX)]
        Z = [Zj + ad * d for Zj, d in zip(Z, dZ)]
        tau = 0.9 + 0.09 * min(ap, ad)
    u, X, y, gap = best
    return _Solution(u=u, X=X, y=y, gap=float(gap), iterations=it + 1,
                     converged=best_err <= _ACCEPT)


def dual_membership(generators, x, tol: float = 1e-9) -> MembershipVerdict:
    """Is ``<x, g> >= -tol`` for every generator?

    Decides membership in the dual of the conic hull of ``generators``.
    An Out verdict carries the violating generator as witness.
    """
    if not len(generators):
        raise ValueError("dual_membership needs at least one generator")
    x = ensure_herm(x)
    gens = _stack([ensure_herm(g) for g in generators], len(x))
    vals = _op(gens, x)
    k = int(np.argmin(vals))
    if vals[k] >= -tol:
        return MembershipVerdict(IN, margin=float(vals[k]))
    return MembershipVerdict(OUT, witness=gens[k], margin=float(vals[k]))


def gram_predual_check(generators, tol: float = 1e-9):
    """Pairwise-Gram nonnegativity of a generating set.

    If all ``<g_i, g_j> >= 0`` then the generated cone D satisfies
    D subset D*, so C := D* contains its own dual C* = closure of D.
    Returns ``(verdict, ((i, j), value))`` with the most negative pair.
    """
    if not len(generators):
        raise ValueError("gram_predual_check needs at least one generator")
    G = np.array([np.asarray(g).reshape(-1) for g in generators])
    gram = np.real(G.conj() @ G.T)
    i, j = np.unravel_index(np.argmin(gram), gram.shape)
    worst = float(gram[i, j])
    return worst >= -tol, ((int(i), int(j)), worst)


def _spectrahedron(x, halfspaces) -> _Solution:
    """``min <x, W>`` over PSD W with ``tr W = 1`` and ``<W, h_k> >= 0``.

    The orthant block holds the halfspace slacks.  The dual is
    ``max t`` subject to ``x - t I - sum_k y_k h_k`` PSD and ``y >= 0``,
    with ``(t, y) = solution.y``.
    """
    d, K = x.shape[0], len(halfspaces)
    A_W = np.array([np.eye(d, dtype=complex), *halfspaces])
    A = np.vstack([np.zeros((1, K)), -np.eye(K)])
    return _solve(np.eye(1, K + 1)[0], np.zeros(K), A, [(x, A_W)])


def _phase1(x, generators) -> _Solution:
    """``min ||x - sum_k lam_k g_k||_1`` over ``lam >= 0``, the 1-norm
    taken in the coordinates of :func:`_basis`.

    The orthant block is ``(lam, s+, s-)`` with the residual split into
    ``s+ - s-``.  The dual is ``max <x, Y>`` over Y with coordinates in
    ``[-1, 1]`` and ``<Y, g_k> <= 0``, with Y's coordinates in
    ``solution.y``.
    """
    E = _basis(x.shape[0])
    p = len(E)
    G = _op(E, _stack(generators, x.shape[0]))
    A = np.hstack([G, np.eye(p), -np.eye(p)])
    c = np.concatenate([np.zeros(G.shape[1]), np.ones(2 * p)])
    return _solve(_op(E, x), c, A)


def conic_feasibility(x, generators, include_psd: bool = True,
                      tol: float = 1e-8):
    """Decide ``x in cone(generators) + PSD`` (no PSD part when
    ``include_psd`` is false), with a certificate either way.

    With PSD this solves ``min <x, W>`` over trace-one PSD W with
    ``<W, g_k> >= 0``, whose dual writes ``x - t I = sum_k lam_k g_k + Z``
    with Z PSD.  Without PSD it solves the phase-1 LP
    ``min ||x - sum_k lam_k g_k||_1``, whose dual is a separating
    functional.  Both answers are re-verified here, independently of the
    solver: a :class:`ConicCertificate` when ``x - sum_k lam_k g_k`` is
    within ``tol`` (Hilbert-Schmidt) of PSD (of zero without PSD), else an
    :class:`Infeasible` whose witness W checks ``<W, g_k> >= -tol``, W PSD
    (with PSD) and ``<W, x> < 0``.
    """
    x = ensure_herm(x)
    gens = [ensure_herm(g) for g in generators]
    m = len(gens)
    if include_psd:
        sol = _spectrahedron(x, gens)
        lam, W = sol.y[1:], sol.X[0]
    else:
        sol = _phase1(x, gens)
        lam, W = sol.u[:m], -_adj(_basis(x.shape[0]), sol.y)
    lam = np.maximum(lam, 0.0)
    R = x - _adj(_stack(gens, x.shape[0]), lam)
    if include_psd:
        vals, vecs = np.linalg.eigh(R)
        psd_part = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
        residual = float(np.linalg.norm(np.minimum(vals, 0.0)))
    else:
        psd_part, residual = None, float(np.linalg.norm(R))
    if residual <= tol:
        return ConicCertificate(lam, psd_part, residual, sol.gap)

    W = _herm(W)
    pairing = trace_inner(W, x)
    separates = pairing < 0.0 and all(trace_inner(W, g) >= -tol for g in gens)
    if include_psd:
        separates = separates and np.linalg.eigvalsh(W)[0] >= -tol
    if separates:
        return Infeasible(-pairing / float(np.linalg.norm(W)), W, sol.gap)
    return Infeasible(0.0, None, sol.gap)


def conic_membership(x, generators, include_psd: bool = True,
                     tol: float = 1e-8) -> MembershipVerdict:
    """:func:`conic_feasibility` as a verdict: In with the certificate,
    Out with the separator W and margin ``<W, x>``, Unknown when neither
    verified.  Tiers: ``decomposition`` (In) and ``spectrahedron-search``
    with PSD, ``conic-feasibility`` without."""
    res = conic_feasibility(x, generators, include_psd, tol)
    if isinstance(res, ConicCertificate):
        tier = "decomposition" if include_psd else "conic-feasibility"
        return MembershipVerdict(IN, res, -res.residual, tier)
    tier = "spectrahedron-search" if include_psd else "conic-feasibility"
    if res.witness is None:
        return MembershipVerdict(UNKNOWN, margin=0.0, tier=tier)
    return MembershipVerdict(OUT, witness=res.witness,
                             margin=trace_inner(res.witness, x), tier=tier)


def min_over_spectrahedron(x, halfspaces=(), tol: float = 1e-9):
    """Minimum of ``<x, y>`` over trace-one PSD ``y`` meeting
    ``<y, h> >= 0`` for every halfspace ``h``; returns ``(value, y)``.

    The solver's dual point certifies the value to within its duality
    gap.  A negative value is a witness that ``x`` is outside the dual of
    ``PSD intersect halfspaces``, i.e. outside ``PSD + cone(halfspaces)``.
    Raises :class:`ValidationError` when the solve does not reach a gap of
    ``tol`` (for instance when no trace-one PSD ``y`` meets the
    halfspaces).
    """
    x = ensure_herm(x)
    sol = _spectrahedron(x, [ensure_herm(h) for h in halfspaces])
    if not sol.converged or abs(sol.gap) > tol:
        raise ValidationError("spectrahedron solve did not converge "
                              f"(duality gap {sol.gap:.3e})")
    y = _herm(sol.X[0])
    return trace_inner(x, y), y


@dataclass
class DualIdentityReport:
    """Sampled check of ``(C1 + C2)* = C1* intersect C2*``."""

    samples: int
    disagreements: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def dual_identity_check(g1, g2, samples: int = 1000, tol: float = 1e-9,
                        seed: int = 0) -> DualIdentityReport:
    """Membership in dual(g1 u g2) must equal dual(g1) AND dual(g2)."""
    from .sampling import random_herm

    g1 = [ensure_herm(g) for g in g1]
    g2 = [ensure_herm(g) for g in g2]
    d = (g1 + g2)[0].shape[0]
    rng = np.random.default_rng(seed)
    xs = _stack([random_herm(d, rng) for _ in range(samples)], d)

    def inside(gens):
        return np.all(_op(_stack(gens, d), xs) >= -tol, axis=0)

    lhs = inside(g1 + g2)
    rhs = inside(g1) & inside(g2)
    return DualIdentityReport(samples, [(int(k), bool(lhs[k]), bool(rhs[k]))
                                        for k in np.flatnonzero(lhs != rhs)])

"""Dual cones, conic feasibility and the conic solver behind them.

The numerical heart of the library: membership in a cone described by
``(generators, maps)``, the hull of finitely many Hermitian matrices and
the images of PSD under linear maps, pre-duality certificates via Gram
matrices, linear minimization over spectrahedra and effects, and the
largest overlap with a state whose marginals are maximally mixed.  Only
this module turns a description into a program for :func:`_solve`, one
dense primal-dual interior-point method over a nonnegative orthant times
Hermitian PSD blocks, and every answer carries its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .herm import ValidationError, _herm, _inner, ensure_herm
from .sampling import random_herm
from .verdict import IN, OUT, UNKNOWN, MembershipVerdict


@dataclass
class ConicCertificate:
    """``x - sum_k coefficients[k] g_k - sum_j L_j(P_j)`` is within
    ``residual`` of PSD (of zero without maps), L_j the maps after the
    identity, P_j ``mapped_parts[j]``: the coefficients are nonnegative,
    the parts PSD (a solver iterate's positive LP slacks and positive
    definite slack blocks), and ``residual`` is the norm of that
    remainder's negative eigenvalues (of the remainder without maps).  It
    is the witness of an In verdict; the diagnostics of the solve it was
    read from are on that verdict.
    """

    coefficients: np.ndarray
    residual: float
    mapped_parts: list = field(default_factory=list)


# The solver stops once the relative primal and dual residuals and the
# relative duality gap are all below _TARGET, or _STALL_ITER iterations
# after a best iterate within _ACCEPT: iterating further lets the primal
# residual drift back up.  Early steps may raise the gap for a while, so a
# solve whose best iterate misses _ACCEPT runs on and is not converged.
_TARGET = 1e-10
_ACCEPT = 1e-8
_MAX_ITER = 100
_STALL_ITER = 5
_CONIC_TOL = 1e-8  # of every conic decision, In or Out


@dataclass
class _Solution:
    """Best or certified iterate of :func:`_solve` with its own dual
    slacks: ``z > 0`` and every ``Z_j`` positive definite, equal to
    ``c - A^T y`` and ``C_j - A_j^*(y)`` up to the dual residual.
    ``certificate`` is what the certify callback returned, if anything."""

    u: np.ndarray
    X: np.ndarray
    y: np.ndarray
    z: np.ndarray
    Z: np.ndarray
    gap: float
    iterations: int
    converged: bool
    certificate: object = None


def _stack(mats, d: int) -> np.ndarray:
    """Hermitian matrices as a ``(len(mats), d, d)`` array, also when empty."""
    return np.asarray(mats, dtype=complex).reshape(len(mats), d, d)


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


@lru_cache(maxsize=None)
def _basis(d: int) -> np.ndarray:
    """Orthonormal basis of the d x d Hermitian matrices under the trace
    inner product, as a read-only ``(d*d, d, d)`` stack."""
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
    E.flags.writeable = False
    return E


def _max_step(v, dv, lam):
    """Largest alpha with ``v + alpha dv >= 0`` and every block PSD, given
    the eigenvalues ``lam`` of each block's step scaled by the block's
    inverse Cholesky factor (inf when unbounded)."""
    worst = max((-dv / v).max(initial=0.0), -lam.min(initial=0.0))
    return 1.0 / worst if worst > 0.0 else np.inf


def _solve(b, c, A, blocks, certify=None) -> _Solution:
    """Primal-dual interior-point method for the conic program

        min  c.u + sum_j <C_j, X_j>
        s.t. A u + sum_j A_j(X_j) = b,   u >= 0,   X_j PSD,

    and its dual ``max b.y`` subject to ``c - A^T y >= 0`` and
    ``C_j - A_j^*(y)`` PSD, where ``A_j(X)_i = <A_j[i], X>``.  ``blocks``
    lists the pairs ``(C_j, A_j)``, ``A_j`` a stack of Hermitian matrices
    with one matrix per equality.  Every block has the same size d, and
    the equalities are linearly independent: a caller whose rows can be
    dependent reduces them first.

    HKM search direction with Mehrotra's predictor-corrector from an
    infeasible start at the identity, on all blocks at once as one
    ``(len(blocks), d, d)`` stack.  The Schur complement is solved by
    LU, which survives the near-singular systems close to the optimum
    where Cholesky fails (least squares if a pivot is exactly zero).
    Returns the iterate with the smallest worst relative residual or gap.
    ``certify``, if given, is called on every iterate as a
    :class:`_Solution` with ``converged`` True; the first iterate for which
    it returns something other than None ends the solve and is returned
    with that value as its ``certificate``.
    """
    norm = np.linalg.norm
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    p, nb = len(b), len(blocks)
    A = np.asarray(A, dtype=float).reshape(p, len(c))
    d = len(blocks[0][0]) if blocks else 0
    C = np.array([Cj for Cj, _ in blocks], dtype=complex).reshape(nb, d, d)
    # Each row of Af holds the i-th matrix of every block as real and
    # imaginary parts, so that A(X) and A*(y) are real products; Ar holds
    # them as one d x p*d row of matrices per block.
    Ab = np.array([Aj for _, Aj in blocks], dtype=complex).reshape(nb, p, d, d)
    Af = np.ascontiguousarray(Ab.swapaxes(0, 1)).reshape(p, -1).view(float)
    Ar = np.ascontiguousarray(Ab.swapaxes(1, 2)).reshape(nb, d, p * d)

    def op(X):
        return Af @ X.reshape(-1).view(float)

    def adj(y):
        return (y @ Af).view(complex).reshape(nb, d, d)

    nu = len(c) + nb * d
    u, z, y = np.ones(len(c)), np.ones(len(c)), np.zeros(p)
    X = Z = np.tile(np.eye(d, dtype=complex), (nb, 1, 1))
    b_scale = 1.0 + norm(b)
    c_scale = 1.0 + np.sqrt(norm(c) ** 2 + norm(C) ** 2)
    best, best_err, best_it, tau = None, np.inf, 0, 0.9
    for it in range(_MAX_ITER):
        rp = b - A @ u - op(X)
        rd = c - z - A.T @ y
        Rd = C - Z - adj(y)
        pobj = c @ u + np.vdot(C, X).real
        dobj = b @ y
        err = max(norm(rp) / b_scale,
                  np.sqrt(norm(rd) ** 2 + norm(Rd) ** 2) / c_scale,
                  abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)))
        sol = _Solution(u, X, y, z, Z, float(pobj - dobj), it + 1, True)
        if err < best_err:
            best, best_err, best_it = sol, err, it
        if certify is not None:
            sol.certificate = certify(sol)
            if sol.certificate is not None:
                return sol
        if err <= _TARGET or (best_err <= _ACCEPT
                              and it - best_it >= _STALL_ITER):
            break
        mu = (u @ z + np.vdot(X, Z).real) / nu
        try:
            # Inverse Cholesky factors of X (first nb) and Z (last nb).
            L = np.linalg.inv(np.linalg.cholesky(np.concatenate([X, Z])))
            Lh = L.conj().swapaxes(-1, -2)
            Zinv = Lh[nb:] @ L[nb:]
            ratio = u / z
            # Row i of T holds every X_j A_j[i] Z_j^-1, laid out like Af.
            T = ((X @ Ar).reshape(nb, d * p, d) @ Zinv).reshape(
                nb, d, p, d).transpose(2, 0, 1, 3).reshape(p, -1).view(float)
            M = (A * ratio) @ A.T + Af @ T.T
            M = (M + M.T) / 2.0
            XRZ = X @ Rd @ Zinv

            def direction(target, corr_u, P):
                # P is the corrector's dX dZ Z^-1 plus X Rd Z^-1.
                h = (target - corr_u) / z - u
                rhs = rp - A @ (h - ratio * rd) - op(target * Zinv - X - P)
                try:
                    dy = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    # An exactly singular pivot near a degenerate optimum.
                    dy = np.linalg.lstsq(M, rhs, rcond=None)[0]
                dz = rd - A.T @ dy
                dZ = Rd - adj(dy)
                du = h - ratio * dz
                dX = target * Zinv - X - _herm(
                    P - (dy @ T).view(complex).reshape(X.shape))
                lam = np.linalg.eigvalsh(L @ np.concatenate([dX, dZ]) @ Lh)
                return (du, dX, dy, dz, dZ,
                        _max_step(u, du, lam[:nb]), _max_step(z, dz, lam[nb:]))

            du, dX, dy, dz, dZ, ap, ad = direction(0.0, 0.0, XRZ)
            ap, ad = min(1.0, ap), min(1.0, ad)
            mu_aff = ((u + ap * du) @ (z + ad * dz)
                      + np.vdot(X + ap * dX, Z + ad * dZ).real) / nu
            sigma = min(1.0, max(mu_aff, 0.0) / mu) ** 3
            du, dX, dy, dz, dZ, ap, ad = direction(
                sigma * mu, du * dz, dX @ dZ @ Zinv + XRZ)
        except np.linalg.LinAlgError:
            break
        ap, ad = min(1.0, tau * ap), min(1.0, tau * ad)
        u, z, y = u + ap * du, z + ad * dz, y + ad * dy
        X, Z = X + ap * dX, Z + ad * dZ
        tau = 0.9 + 0.09 * min(ap, ad)
    best.iterations, best.converged = it + 1, bool(best_err <= _ACCEPT)
    return best


def dual_membership(generators, x) -> MembershipVerdict:
    """Is ``<x, g> >= -1e-9`` for every generator?

    Decides membership in the dual of the conic hull of ``generators``,
    with tier ``generator-pairing``.  An Out verdict carries the violating
    generator as witness.
    """
    if not len(generators):
        raise ValueError("dual_membership needs at least one generator")
    S = ensure_herm([x, *generators])
    return _dual_membership(S[1:], S[0])


def _dual_membership(gens, x) -> MembershipVerdict:
    gens = _stack(gens, len(x))
    vals = _op(gens, x)
    k = int(np.argmin(vals))
    status, witness = (IN, None) if vals[k] >= -1e-9 else (OUT, gens[k])
    return MembershipVerdict(status, witness=witness, margin=float(vals[k]),
                             tier="generator-pairing")


def gram_predual_check(generators):
    """Pairwise-Gram nonnegativity of a generating set, to 1e-9.

    If all ``<g_i, g_j> >= 0`` then the generated cone D satisfies
    D subset D*, so C := D* contains its own dual C* = closure of D.
    Returns ``(verdict, ((i, j), value))`` with the most negative pair.
    """
    if not len(generators):
        raise ValueError("gram_predual_check needs at least one generator")
    return _gram_check(ensure_herm(list(generators)))


def _gram_check(gens):
    gram = _op(_stack(gens, len(gens[0])), gens)
    i, j = np.unravel_index(np.argmin(gram), gram.shape)
    worst = float(gram[i, j])
    return worst >= -1e-9, ((int(i), int(j)), worst)


def identity(X):
    """The identity map: the first map of every nonempty description."""
    return X


def _miss(R, maps):
    """Distance of R (or of each matrix of a stack) from PSD by the norm
    of its negative eigenvalues with maps, from zero without."""
    if maps:
        return np.linalg.norm(np.minimum(np.linalg.eigvalsh(R), 0.0), axis=-1)
    return np.linalg.norm(R, axis=(-2, -1))


def _w_form(x, halfspaces, maps, certify=None) -> _Solution:
    """``min <x, W>`` over normalised W with ``<W, h_k> >= 0`` and
    ``L(W)`` PSD for every map L of the description.

    With maps, W is PSD with ``tr W = 1``, and each map after the identity
    adds a block tied to W by the images ``L(E_i)``.  The dual is ``max t``
    with ``x - t I - sum_k y_k h_k - sum_L L(Q_L)``, y and every Q_L PSD.
    Without maps W is free: ``W = X_0 - X_1`` with both blocks PSD and
    ``tr X_0 + tr X_1 = 1``, the second carrying the halfspace rows
    negated.  The dual is then ``max t`` with ``x - sum_k y_k h_k``
    between ``t I`` and ``-t I``.  Either way ``solution.y`` is t, y, then
    minus each Q_L; the LP slacks ``solution.z`` are y and the slack
    blocks ``solution.Z[1:len(maps)]`` the Q_L, up to the dual residual.
    ``certify`` is passed on to :func:`_solve`.
    """
    d, K = x.shape[0], len(halfspaces)
    E = _basis(d)
    images = [-_stack([L(e) for e in E], d) for L in maps[1:]]
    n = 1 + K + d * d * len(images)
    A_W = np.concatenate([np.eye(d, dtype=complex)[None], halfspaces,
                          *images])
    A = np.vstack([np.zeros((1, K)), -np.eye(K), np.zeros((n - 1 - K, K))])
    if not maps:
        blocks = [(x, A_W), (-x, np.concatenate([A_W[:1], -A_W[1:]]))]
    else:
        A_Y = np.zeros((len(images), n, d, d), dtype=complex)
        for j, A_j in enumerate(A_Y):
            A_j[1 + K + j * d * d:1 + K + (j + 1) * d * d] = E
        blocks = [(x, A_W)] + [(np.zeros((d, d)), A_j) for A_j in A_Y]
    return _solve(np.eye(1, n)[0], np.zeros(K), A, blocks, certify)


def conic_feasibility(x, generators, maps=(identity,)):
    """Decide ``x in cone(generators) + sum_L L(PSD)``, certified to 1e-8.

    ``(generators, maps)`` is a conic description: ``maps`` lists the
    self-adjoint linear maps whose images of PSD the cone contains, ``()``
    for cone(G), ``(identity,)`` for PSD + cone(G), ``(identity, Gamma)``
    for PSD + PSD^Gamma; a nonempty list begins with :func:`identity`.

    1e-8 is the one tolerance of every conic decision in the library.
    In: the witness is a :class:`ConicCertificate` whose ``residual``, the
    distance of x less its weighted generators and mapped parts from PSD
    (from zero without maps), is within it, the margin minus that
    residual.  Out: the witness is a separator W with
    ``<W, g_k> >= -1e-8`` and each ``L(W)`` PSD to ``-1e-8``, the margin
    ``<W, x> < 0``, and ``-<W, x> / ||W||_HS`` a lower bound on the
    distance from x to the cone.  Unknown, without witness, when neither
    verified.  Tiers: ``decomposition`` (In) and ``spectrahedron-search``
    with maps, ``conic-feasibility`` without.  The first tier that
    certifies answers:

    - the vertex tier: ``x - v`` within 1e-8 of PSD (of zero without
      maps) for v = 0 or a generator g_k gives In with coefficients e_k
      (0 for v = 0) and 0 iterations, without a solve;
    - the eigen-shift tier: ``W = (P + t I) / (1 + t d)``, P the bottom
      eigenprojector of x and t >= 0 the least shift that puts W in the
      dual (``<W, g_k> >= 0`` and, for a unital map L such as Gamma,
      ``L(W)`` PSD), gives Out without a solve when every
      ``<W, g_k> >= 0`` exactly and ``<W, x> <= -1e-8``, with 0
      iterations;
    - one solve of :func:`_w_form`, stopped at the first iterate whose
      decomposition (its own dual slacks as weights and mapped parts) or
      separator re-verifies.  The verdict's ``gap`` and ``iterations``
      are that iterate's, and an Out's W and margin are a checked
      separator and its pairing, not the optimal ones.
      ``converged`` is True when the solve stopped on a re-verified
      certificate or on its gap target.
    """
    S = ensure_herm([x, *generators])
    return _feasibility(S[0], S[1:], maps)


def _verdict(status, witness, margin, maps, sol=None) -> MembershipVerdict:
    """A verdict of :func:`conic_feasibility`, with the diagnostics of the
    solver iterate ``sol`` if there is one."""
    tier = ("decomposition" if status == IN else "spectrahedron-search") \
        if maps else "conic-feasibility"
    diagnostics = () if sol is None else (sol.gap, sol.iterations,
                                          sol.converged)
    return MembershipVerdict(status, witness, margin, tier, *diagnostics)


def _feasibility(x, gens, maps) -> MembershipVerdict:
    if maps and maps[0] is not identity:
        raise ValueError("a nonempty list of maps begins with the identity")
    gens = _stack(gens, x.shape[0])
    for tier in (_vertex, _eigen_shift):
        verdict = tier(x, gens, maps)
        if verdict is not None:
            return verdict
    sol = _w_form(x, gens, maps, lambda it: _certificate(x, gens, maps, it))
    if sol.certificate is not None:
        return sol.certificate
    return _verdict(UNKNOWN, None, 0.0, maps, sol)


def _vertex(x, gens, maps):
    """The vertex tier: In with coefficients e_k when ``x - g_k`` is
    within 1e-8 of PSD (of zero without maps), or with coefficients 0
    when x itself is; the closest of these, by one stacked eigvalsh.  None
    when no vertex is that close."""
    miss = _miss(x - np.concatenate([np.zeros_like(x)[None], gens]), maps)
    k = int(np.argmin(miss))
    if miss[k] > _CONIC_TOL:
        return None
    cert = ConicCertificate(np.eye(len(gens) + 1)[k, 1:], float(miss[k]),
                            [np.zeros_like(x) for _ in maps[1:]])
    return _verdict(IN, cert, -cert.residual, maps)


def _certificate(x, gens, maps, sol):
    """The In verdict, or else the Out verdict, that one iterate of
    :func:`_w_form` gives if it re-verifies; None when neither does.

    In: the iterate's LP slacks ``z`` as weights and its slack blocks
    ``Z[1:len(maps)]`` as the parts Q_L, positive (definite) by the step
    rule, leave x within 1e-8 of PSD (of zero without maps).  Out: W,
    scaled to the program's normalisation, has ``<W, g_k> >= -1e-8``,
    each ``L(W)`` PSD to ``-1e-8`` and ``<W, x> < 0``.
    """
    lam, parts = sol.z, list(sol.Z[1:len(maps)])
    R = x - _adj(gens, lam) - sum((L(P) for L, P in zip(maps[1:], parts)),
                                  np.zeros_like(x))
    residual = float(_miss(R, maps))
    if residual <= _CONIC_TOL:
        return _verdict(IN, ConicCertificate(lam, residual, parts),
                        -residual, maps, sol)

    # The program asks tr W = 1 with maps, tr X_0 + tr X_1 = 1 without.
    if maps:
        W, scale = sol.X[0], np.trace(sol.X[0]).real
    else:
        W, scale = sol.X[0] - sol.X[1], np.trace(sol.X[0] + sol.X[1]).real
    W = _herm(W) / scale
    pairing = _separation(x, gens, maps, W, _CONIC_TOL)
    if pairing is not None:
        return _verdict(OUT, W, pairing, maps, sol)
    return None


def _separation(x, gens, maps, W, slack):
    """``<W, x>`` if W separates x from the cone ``(gens, maps)``: every
    ``<W, g_k> >= -slack``, each ``L(W)`` PSD to -1e-8 and ``<W, x> < 0``;
    None otherwise.  The one Out check of :func:`_feasibility`."""
    pairing = _inner(W, x)
    if pairing < 0.0 and np.all(_op(gens, W) >= -slack) and all(
            np.linalg.eigvalsh(L(W))[0] >= -_CONIC_TOL for L in maps):
        return pairing
    return None


def _eigen_shift(x, gens, maps):
    """The eigen-shift tier: Out with ``W = (P + t I) / (1 + t d)``,
    P the bottom eigenprojector of x, from one ``eigh``.  W has trace one
    and pairs ``(lambda_min + t tr x) / (1 + t d)`` with x; t >= 0 is the
    least shift with ``<P, g_k> + t tr g_k >= 0`` for every generator and
    ``L(P) + t I`` PSD for every map after the identity, each of which
    must be unital.  Answers only when every ``<W, g_k> >= 0`` exactly and
    ``<W, x> <= -1e-8``, so that rounding cannot put a point of the cone
    Out; None otherwise, also when a generator with ``<P, g_k> < 0`` has
    no positive trace."""
    lam, V = np.linalg.eigh(x)
    if lam[0] > -_CONIC_TOL:
        return None
    d = x.shape[0]
    eye = np.eye(d)
    P = np.outer(V[:, 0], V[:, 0].conj())
    pg = _op(gens, P)
    tr = np.trace(gens, axis1=1, axis2=2).real
    low = pg < 0.0
    if np.any(tr[low] <= 0.0):
        return None
    shifts = [0.0, *(-pg[low] / tr[low])]
    for L in maps[1:]:
        if not np.array_equal(L(eye), eye):
            return None
        shifts.append(-np.linalg.eigvalsh(L(P))[0])
    # 1e-12 above the least shift keeps every <W, g_k> >= 0 after rounding.
    t = max(shifts) + 1e-12
    W = (P + t * eye) / (1.0 + t * d)
    pairing = _separation(x, gens, maps, W, 0.0)
    if pairing is None or pairing > -_CONIC_TOL:
        return None
    return _verdict(OUT, W, pairing, maps)


def min_over_spectrahedron(x, halfspaces=()):
    """Minimum of ``<x, y>`` over trace-one PSD ``y`` meeting
    ``<y, h> >= 0`` for every halfspace ``h``; returns ``(value, y)``.

    The solver's dual point certifies the value to within its duality
    gap.  A negative value is a witness that ``x`` is outside the dual of
    ``PSD intersect halfspaces``, i.e. outside ``PSD + cone(halfspaces)``.
    Raises :class:`ValidationError` when the solve does not reach a gap of
    1e-9 (for instance when no trace-one PSD ``y`` meets the halfspaces).
    """
    S = ensure_herm([x, *halfspaces])
    sol = _w_form(S[0], S[1:], (identity,))
    if not sol.converged or abs(sol.gap) > 1e-9:
        raise ValidationError("spectrahedron solve did not converge "
                              f"(duality gap {sol.gap:.3e})")
    y = _herm(sol.X[0])
    return _inner(S[0], y), y


def min_over_effects(c, generators, maps=(identity,)):
    """``(min <c, M>, M)`` over M with M and ``I - M`` in the cone
    ``(generators, maps)``: ``M = sum mu_k g_k + sum_L L(T_L)``, ``I - M``
    alike with nu and S_L, T_L and S_L PSD.  M is exactly Hermitian.

    With maps, the Helstrom tier answers first, without a solve: M is the
    projector onto c's negative eigenspace when both parts of
    ``c = c_+ - c_-`` lie in the dual cone (each pairing with a generator,
    and the least eigenvalue of each image under a map after the
    identity, at least 0 exactly), since the dual point ``-c_-`` then has
    the value ``<c, M>``.  Otherwise one solve answers, to its gap target;
    raises :class:`ValidationError` when it does not converge.
    """
    S = ensure_herm([c, *generators])
    return _min_over_effects(S[0], S[1:], maps)


def _min_over_effects(c, gens, maps):
    d = c.shape[0]
    gens = _stack(gens, d)
    if maps:
        M = _helstrom_optimum(c, gens, maps)
        if M is not None:
            return _inner(c, M), M
    E = _basis(d)
    m = len(gens)
    blocks = []
    for L in maps:
        LE = _stack([L(e) for e in E], d)
        blocks += [(L(c), LE), (np.zeros_like(c), LE)]
    b, A = _op(E, np.eye(d)), np.hstack([_op(E, gens)] * 2)
    if not maps:
        # cone(G) alone may span only part of the Hermitian matrices, so
        # only this program can have dependent equalities: keep a basis.
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        Q = U[:, s > 1e-12 * s.max(initial=0.0)]
        if np.linalg.norm(b - Q @ (Q.T @ b)) > 1e-9 * (1 + np.linalg.norm(b)):
            raise ValidationError("conic program has inconsistent equalities")
        b, A = Q.T @ b, Q.T @ A
    cost = np.concatenate([_op(gens, c), np.zeros(m)])
    sol = _solve(b, cost, A, blocks)
    if not sol.converged:
        raise ValidationError("effect-cone program did not converge "
                              "(is the unit decomposable over the cone?)")
    M = _herm(_adj(gens, sol.u[:m]) + sum(
        (L(T) for L, T in zip(maps, sol.X[::2])), np.zeros_like(c)))
    return _inner(c, M), M


def _helstrom_optimum(c, gens, maps):
    """The Helstrom tier of :func:`min_over_effects`: its M, or None when
    ``c_+`` or ``c_-``, both PSD by construction, misses the dual cone."""
    w, V = np.linalg.eigh(c)
    parts = np.stack([(V * np.maximum(s * w, 0.0)) @ V.conj().T
                      for s in (1.0, -1.0)])
    if np.any(_op(gens, parts) < 0.0) or any(
            np.linalg.eigvalsh(np.stack([L(P) for P in parts]))[:, 0].min()
            < 0.0 for L in maps[1:]):
        return None
    N = V[:, w < 0.0]
    return _herm(N @ N.conj().T)


def _max_over_mixed_marginals(rho, m: int):
    """``(upper, sigma)``: an upper bound on ``max <rho, sigma>`` over
    states sigma on an m x m system with both marginals I/m, and sigma.

    The equalities pair sigma with ``E_i (x) I`` and ``I (x) E_i`` over
    :func:`_basis`, less the first of the second kind (both kinds sum to
    the identity).  Every feasible sigma has trace one, so with the dual
    slack ``Z = -rho - sum_i y_i A_i`` re-checked by eigenvalues,
    ``-b.y + max(0, -lambda_min(Z))`` is certified.  Raises
    :class:`ValidationError` when the solve does not converge.
    """
    E, I = _basis(m), np.eye(m)
    A_s = np.concatenate([np.kron(E, I), np.kron(I, E[1:])])
    b = _op(A_s, np.eye(m * m) / (m * m))
    sol = _solve(b, np.zeros(0), np.zeros((len(b), 0)), [(-rho, A_s)])
    if not sol.converged:
        raise ValidationError("marginal-constrained program did not converge "
                              f"(duality gap {sol.gap:.3e})")
    # y's implied slack, not sol.Z: the bound must hold for this very y.
    slack = np.linalg.eigvalsh(_herm(-rho - _adj(A_s, sol.y)))[0]
    return float(-b @ sol.y + max(0.0, -slack)), _herm(sol.X[0])


@dataclass
class DualIdentityReport:
    """Sampled check of ``(C1 + C2)* = C1* intersect C2*``."""

    samples: int
    disagreements: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def dual_identity_check(g1, g2, samples: int = 1000,
                        seed: int = 0) -> DualIdentityReport:
    """Membership in dual(g1 u g2) must equal dual(g1) AND dual(g2).

    Both sides are read from the same pairings ``<x, g>``, so they can
    differ only by rounding: the check guards this code, not the identity.
    """
    G = ensure_herm([*g1, *g2])
    d, k = G.shape[1], len(g1)
    rng = np.random.default_rng(seed)
    xs = _stack([random_herm(d, rng) for _ in range(samples)], d)

    def inside(gens):
        return np.all(_op(gens, xs) >= -1e-9, axis=0)

    lhs = inside(G)
    rhs = inside(G[:k]) & inside(G[k:])
    return DualIdentityReport(samples, [(int(k), bool(lhs[k]), bool(rhs[k]))
                                        for k in np.flatnonzero(lhs != rhs)])

"""Hermitian-matrix algebra over the trace inner product.

Everything downstream (cones, measurements, entanglement-structure audits)
works in the real vector space of d x d Hermitian matrices with
``<X, Y> = Tr XY``.  Matrices are plain complex numpy arrays; the helpers
here validate Hermiticity once at the boundary and stay pure afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when an input fails a structural precondition."""


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions of a bipartite system; ``total = dA * dB``."""

    dA: int
    dB: int

    def __post_init__(self):
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer))
               for n in (self.dA, self.dB)):
            raise ValidationError("local dimensions must be integers")
        if self.dA < 1 or self.dB < 1:
            raise ValidationError("local dimensions must be positive")

    @property
    def total(self) -> int:
        return self.dA * self.dB


def ensure_herm(A, dim: int | None = None) -> np.ndarray:
    """Validate Hermiticity of ``A`` and return it as a complex array.

    ``A`` is one square matrix, or a list or tuple of square matrices of
    one size (``dim`` when given), returned as an ``(n, d, d)`` stack.
    A matrix off Hermitian by more than ``HERM_TOL``, or with a NaN or
    infinite entry, is rejected, never symmetrized: that would hide
    fixture bugs.  Matrices computed from checked input are symmetrized
    by :func:`_herm` instead.
    """
    stack = isinstance(A, (list, tuple))
    try:
        A = np.asarray(A, dtype=complex)
    except ValueError:  # a ragged list: matrices of different sizes
        raise ValidationError("expected matrices of one size") from None
    d = A.shape[-1] if A.ndim == 2 or stack and A.ndim == 3 else None
    if d is None or A.shape[-2] != d or dim not in (None, d):
        raise ValidationError(f"expected square matrices of size {dim or 'd'}"
                              f", got shape {A.shape}")
    AH = A.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, caught below
        dev = np.abs(A - AH).max() if A.size else 0.0
    if not dev <= HERM_TOL:  # also when an entry is NaN or infinite
        if not np.all(np.isfinite(A)):
            raise ValidationError("matrix has non-finite entries")
        raise ValidationError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return A


def _herm(A):
    """The Hermitian part of A (of each matrix of a stack)."""
    return (A + np.swapaxes(A, -1, -2).conj()) / 2.0


def _inner(X, Y) -> float:
    return float(np.real(np.sum(X * Y.T)))


def trace_inner(X, Y) -> float:
    """Trace inner product ``Tr XY`` of two Hermitian matrices."""
    return _inner(*ensure_herm([X, Y]))


def norm(X, kind: str = "trace") -> float:
    """Matrix norm of a Hermitian matrix.

    ``trace`` = sum |eigenvalues|, ``hilbert_schmidt`` = sqrt(sum of
    squares), ``operator`` = max |eigenvalue|.
    """
    vals = np.linalg.eigvalsh(ensure_herm(X))
    if kind == "trace":
        return float(np.sum(np.abs(vals)))
    if kind == "hilbert_schmidt":
        return float(np.sqrt(np.sum(vals**2)))
    if kind == "operator":
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    raise ValidationError(f"unknown norm kind {kind!r}")


def tensor(X, Y) -> np.ndarray:
    """Kronecker product of two Hermitian matrices."""
    return np.kron(np.asarray(X, dtype=complex), np.asarray(Y, dtype=complex))


def _as_bipartite(X, dims: BipartiteDims) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.shape != (dims.total, dims.total):
        raise ValidationError(
            f"matrix of shape {X.shape} does not match dims {dims.dA}x{dims.dB}"
        )
    return X.reshape(dims.dA, dims.dB, dims.dA, dims.dB)


def partial_trace(X, dims: BipartiteDims, keep: str = "A") -> np.ndarray:
    """Trace out one factor of a bipartite matrix, keeping ``A`` or ``B``."""
    T = _as_bipartite(X, dims)
    if keep == "A":
        return np.trace(T, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(T, axis1=0, axis2=2)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(X, dims: BipartiteDims) -> np.ndarray:
    """Partial transposition on the second factor (id (x) transpose)."""
    T = _as_bipartite(X, dims)
    return T.transpose(0, 3, 2, 1).reshape(dims.total, dims.total)


def schmidt_coefficients(v, dims: BipartiteDims) -> np.ndarray:
    """Schmidt coefficients of a bipartite vector, descending.

    The vector is normalized internally; the zero vector yields all zeros.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != dims.total:
        raise ValidationError("vector length does not match dims")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return np.zeros(min(dims.dA, dims.dB))
    return np.linalg.svd(v.reshape(dims.dA, dims.dB) / nv, compute_uv=False)


def nege(X) -> float:
    """Negativity of the spectrum: ``max(-lambda_min, 0)``."""
    vals = np.linalg.eigvalsh(ensure_herm(X))
    return float(max(-vals[0], 0.0))


def sco(v, dims: BipartiteDims) -> float:
    """Product of the two largest Schmidt coefficients; 0 for v = 0."""
    lam = schmidt_coefficients(v, dims)
    if lam.size < 2:
        return 0.0
    return float(lam[0] * lam[1])


def maximally_entangled_vector(m: int) -> np.ndarray:
    """Canonical maximally entangled vector on an m x m system."""
    v = np.eye(m, dtype=complex).reshape(-1)
    return v / np.sqrt(m)


def max_entangled_fidelity(rho, dims: BipartiteDims
                           ) -> tuple[float, float, np.ndarray]:
    """Best fidelity of ``rho`` with a maximally entangled state, bounded
    both ways: ``(lower, upper, P)``.

    ``upper`` is the certified maximum of ``<rho, sigma>`` over states
    with maximally mixed marginals, which hold every maximally entangled
    state.  A polar fixed point ascends over unitaries U from the polar
    factor of each eigenvector in the optimum's range (as m x m); P
    projects onto the best ``vec(U) / sqrt(m)`` and ``lower = <rho, P>``.
    The bounds meet at m = 2, where unital channels are mixed-unitary
    (Landau & Streater, 1993), and can stay apart at m >= 3.
    """
    from .dual import _max_over_mixed_marginals

    if dims.dA != dims.dB:
        raise ValidationError("maximally entangled states need dA == dB")
    m = dims.dA
    rho = ensure_herm(rho, dim=dims.total)
    upper, sigma = _max_over_mixed_marginals(rho, m)
    w, vecs = np.linalg.eigh(sigma)
    lower, P = -np.inf, None
    for v in vecs[:, w > 1e-6 * w[-1]].T:
        # <U, M> = <vec U|rho|vec U> / m; polar(M) never lowers it (rho PSD).
        M, val = v.reshape(m, m), -np.inf
        for _ in range(1000):
            W, _, Vh = np.linalg.svd(M)
            U = W @ Vh
            M = (rho @ U.reshape(-1)).reshape(m, m) / m
            new = float(np.real(np.vdot(U, M)))
            if new - val <= 1e-12:
                break
            val = new
        if new > lower:
            phi = U.reshape(-1) / np.sqrt(m)
            lower, P = new, np.outer(phi, phi.conj())
    return lower, upper, P

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
        if self.dA < 1 or self.dB < 1:
            raise ValidationError("local dimensions must be positive")

    @property
    def total(self) -> int:
        return self.dA * self.dB


def ensure_herm(A, tol: float = HERM_TOL, repair: bool = False) -> np.ndarray:
    """Validate Hermiticity of ``A`` and return it as a complex array.

    With ``repair=True`` the matrix is symmetrized instead of rejected.
    Repair is opt-in on purpose: silently symmetrizing hides fixture bugs.
    A NaN or infinite entry is rejected either way.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, caught below
        dev = np.abs(A - A.conj().T).max() if A.size else 0.0
    if not dev <= tol:  # also when an entry is NaN or infinite
        if not np.all(np.isfinite(A)):
            raise ValidationError("matrix has non-finite entries")
        if repair:
            return (A + A.conj().T) / 2.0
        raise ValidationError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return A


def trace_inner(X, Y) -> float:
    """Trace inner product ``Tr XY`` of two Hermitian matrices."""
    X = ensure_herm(X)
    Y = ensure_herm(Y)
    if X.shape != Y.shape:
        raise ValidationError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    return float(np.real(np.sum(X * Y.T)))


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


def fidelity(rho, sigma, tol: float = 1e-9) -> float:
    """Fidelity ``Tr rho sigma`` of a state with a *pure* state sigma."""
    sigma = ensure_herm(sigma)
    vals = np.linalg.eigvalsh(sigma)
    if np.sum(vals > tol) != 1 or vals[0] < -tol:
        raise ValidationError("sigma must be a rank-1 PSD matrix")
    return trace_inner(ensure_herm(rho), sigma)


def maximally_entangled_vector(m: int) -> np.ndarray:
    """Canonical maximally entangled vector on an m x m system."""
    v = np.eye(m, dtype=complex).reshape(-1)
    return v / np.sqrt(m)


def max_entangled_fidelity(
    rho,
    dims: BipartiteDims,
    restarts: int = 32,
    iters: int = 200,
    tol: float = 1e-12,
    seed: int | None = 0,
) -> tuple[float, np.ndarray]:
    """Lower bound on the best fidelity with a maximally entangled state.

    Every maximally entangled pure state is ``(I (x) U)|Phi>`` for a
    unitary U, so we ascend over U by the polar-decomposition fixed point
    of the quadratic form ``<Phi_U| rho |Phi_U>``, best over Haar restarts.
    The result is a certified lower bound, not an exact maximum.
    """
    from .sampling import haar_unitary

    if dims.dA != dims.dB:
        raise ValidationError("maximally entangled states need dA == dB")
    m = dims.dA
    R = _as_bipartite(ensure_herm(rho), dims)
    rng = np.random.default_rng(seed)

    def value_and_update(U):
        # M[b, a] = sum_{c,d} R[a, b, c, d] U[d, c]
        M = np.einsum("abcd,dc->ba", R, U) / m
        val = float(np.real(np.sum(U.conj() * M)))
        W, _, Vh = np.linalg.svd(M)
        return val, W @ Vh

    best_val, best_U = -np.inf, np.eye(m, dtype=complex)
    for k in range(max(1, restarts)):
        U = np.eye(m, dtype=complex) if k == 0 else haar_unitary(m, rng)
        val = -np.inf
        for _ in range(iters):
            new_val, U = value_and_update(U)
            if new_val - val <= tol:
                val = new_val
                break
            val = new_val
        if val > best_val:
            best_val, best_U = val, U
    phi = (np.kron(np.eye(m, dtype=complex), best_U)
           @ maximally_entangled_vector(m))
    return best_val, np.outer(phi, phi.conj())

"""Seeded random generators for matrices, states, and product vectors."""

from __future__ import annotations

import numpy as np

from .herm import BipartiteDims, maximally_entangled_vector, tensor


def haar_unitary(n: int, seed=None) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    # Fix the phase ambiguity of QR so the distribution is exactly Haar.
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_herm(n: int, seed=None) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (Z + Z.conj().T) / 2.0


def random_pure_vector(n: int, seed=None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_pure_state(n: int, seed=None) -> np.ndarray:
    v = random_pure_vector(n, seed)
    return np.outer(v, v.conj())


def random_state(n: int, seed=None, rank: int | None = None) -> np.ndarray:
    """Random density matrix (normalized Wishart)."""
    rng = np.random.default_rng(seed)
    k = rank or n
    G = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    W = G @ G.conj().T
    return W / np.trace(W).real


def random_psd(n: int, seed=None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G @ G.conj().T) / n


def random_product_vectors(dims: BipartiteDims, count: int, seed=None) -> np.ndarray:
    """``count`` normalized product vectors, stacked as rows."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((count, dims.dA)) + 1j * rng.standard_normal((count, dims.dA))
    B = rng.standard_normal((count, dims.dB)) + 1j * rng.standard_normal((count, dims.dB))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    B /= np.linalg.norm(B, axis=1, keepdims=True)
    return np.einsum("na,nb->nab", A, B).reshape(count, dims.total)


def random_separable_state(dims: BipartiteDims, seed=None) -> np.ndarray:
    """Random convex mixture of four product pure states."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(4))
    out = np.zeros((dims.total, dims.total), dtype=complex)
    for k in range(4):
        a = random_pure_state(dims.dA, rng)
        b = random_pure_state(dims.dB, rng)
        out += w[k] * tensor(a, b)
    return out


def random_max_entangled_state(m: int, seed=None) -> np.ndarray:
    """Haar-random maximally entangled pure state on an m x m system."""
    U = haar_unitary(m, seed)
    phi = np.kron(np.eye(m, dtype=complex), U) @ maximally_entangled_vector(m)
    return np.outer(phi, phi.conj())

"""Symmetry-group actions on bipartite cones: orbit invariance checks, a
falsifier for full-unitary covariance of entanglement-aware cones, and
the counterexample separating pairwise-overlap data from two-state
symmetry equivalence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import ConeRep, membership
from .herm import BipartiteDims, ValidationError, ensure_herm, trace_inner
from .sampling import haar_unitary
from .verdict import IN, OUT

GLOBAL_UNITARY = "GLOBAL_UNITARY"
LOCAL_UNITARY = "LOCAL_UNITARY"
LOCAL_WITH_TRANSPOSE = "LOCAL_WITH_TRANSPOSE"
SWAP_FACTORS = "SWAP_FACTORS"

_KINDS = (GLOBAL_UNITARY, LOCAL_UNITARY, LOCAL_WITH_TRANSPOSE, SWAP_FACTORS)


@dataclass
class TransformSpec:
    """A sampled element of one of the supported symmetry actions."""

    kind: str
    dims: BipartiteDims

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown transform kind {self.kind!r}")
        if self.kind == SWAP_FACTORS and self.dims.dA != self.dims.dB:
            raise ValidationError("factor swap needs equal local dimensions")

    def sample(self, rng=None):
        """Draw one transform as a callable on Hermitian matrices."""
        rng = np.random.default_rng(rng)
        dA, dB = self.dims.dA, self.dims.dB
        if self.kind == GLOBAL_UNITARY:
            U = haar_unitary(self.dims.total, rng)
            return lambda X: U @ X @ U.conj().T
        if self.kind in (LOCAL_UNITARY, LOCAL_WITH_TRANSPOSE):
            U = np.kron(haar_unitary(dA, rng), haar_unitary(dB, rng))
            conj = self.kind == LOCAL_WITH_TRANSPOSE and rng.integers(2) == 1

            def act(X, U=U, conj=conj):
                if conj:
                    X = X.T
                return U @ X @ U.conj().T

            return act
        # SWAP_FACTORS
        perm = np.arange(dA * dB).reshape(dA, dB).T.reshape(-1)

        def swap(X, perm=perm):
            return X[np.ix_(perm, perm)]

        return swap


def orbit_invariance_check(cone: ConeRep, spec: TransformSpec,
                           elements, samples: int = 20,
                           tol: float = 1e-8, seed: int = 0) -> dict:
    """Test whether sampled transforms preserve the cone's verdicts.

    Each element's membership status is compared before and after each
    transform; Unknown verdicts are skipped as inconclusive.  Returns a
    report with any violating (element, status) pair.
    """
    rng = np.random.default_rng(seed)
    checked, skipped = 0, 0
    violation = None
    for X in elements:
        X = ensure_herm(X)
        base = membership(cone, X, tol)
        if base.status not in (IN, OUT):
            skipped += 1
            continue
        for _ in range(samples):
            act = spec.sample(rng)
            image = ensure_herm(act(X), repair=True)
            after = membership(cone, image, tol)
            if after.status not in (IN, OUT):
                skipped += 1
                continue
            checked += 1
            if after.status != base.status:
                violation = {"before": base.status, "after": after.status,
                             "element": X, "image": image}
                break
        if violation:
            break
    return {"invariant": violation is None, "checked": checked,
            "skipped": skipped, "violation": violation,
            "kind": spec.kind}


def gu_falsifier(x, dims: BipartiteDims, tol: float = 1e-9):
    """Full-unitary-orbit contradiction chain for a cone holding a
    non-PSD element x.

    Takes the pure state on x's most negative eigenvector (so
    ``Tr rho x < 0``), builds the global unitary g carrying it onto a
    product state, and certifies that ``g(x)`` fails block positivity:
    the product image itself pairs negatively with ``g(x)``.  A cone
    containing x therefore cannot be invariant under all global unitaries
    while staying inside the block-positive dual.

    Returns a report with the unitary, the states, and the negative value.
    """
    x = ensure_herm(x)
    vals, vecs = np.linalg.eigh(x)
    if vals[0] >= -tol:
        raise ValidationError("falsifier needs an element with a negative eigenvalue")
    v = vecs[:, 0]
    rho = np.outer(v, v.conj())

    # Global unitary sending v onto |0> x |0>, completed arbitrarily on
    # the orthogonal complements.
    e0 = np.zeros(dims.total, dtype=complex)
    e0[0] = 1.0
    U = _complete_basis(e0) @ _complete_basis(v).conj().T
    gx = ensure_herm(U @ x @ U.conj().T, repair=True)
    product_image = ensure_herm(U @ rho @ U.conj().T, repair=True)
    if np.max(np.abs(product_image - np.outer(e0, e0.conj()))) > 1e-9:
        raise ValidationError("orbit construction failed to reach the product state")
    value = trace_inner(product_image, gx)
    if value >= -tol:
        raise ValidationError("image unexpectedly passed the product pairing")
    a = np.zeros(dims.dA, dtype=complex)
    b = np.zeros(dims.dB, dtype=complex)
    a[0] = b[0] = 1.0
    return {"unitary": U, "state": rho, "product_state": product_image,
            "product_factors": (a, b), "value": float(value),
            "transformed_element": gx}


def _complete_basis(v):
    d = v.shape[0]
    M = np.eye(d, dtype=complex) - np.outer(v, v.conj())
    q, r = np.linalg.qr(np.column_stack([v, M]))
    # First column of q is v up to phase; fix the phase to match exactly.
    q[:, 0] *= np.vdot(q[:, 0], v)
    return q


def _form_three_map(dims: BipartiteDims, rng):
    """One sampled overlap-preserving transform: local unitaries, an
    optional global transpose, and an optional factor swap."""
    spec_lu = TransformSpec(LOCAL_WITH_TRANSPOSE, dims)
    act_lu = spec_lu.sample(rng)
    use_swap = dims.dA == dims.dB and rng.integers(2) == 1
    if use_swap:
        act_swap = TransformSpec(SWAP_FACTORS, dims).sample(rng)
        return lambda X: act_lu(act_swap(X))
    return act_lu


def two_symmetry_counterexample(samples: int = 200, tol: float = 1e-10,
                                seed: int = 0) -> dict:
    """Two pure-state pairs with matching single-state data whose pairwise
    overlaps differ (1/4 vs 0), so no overlap-preserving symmetry maps one
    pair onto the other.

    Verifies overlap invariance on ``samples`` sampled transforms as a
    finite stand-in for the full group, and returns the overlap gap.
    """
    dims = BipartiteDims(2, 2)
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    plus = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    vpp = np.kron(plus, plus)
    rho1 = np.outer(v00, v00.conj())
    rho2 = np.outer(vpp, vpp.conj())

    w = np.array([3.0 + np.sqrt(3.0), 3.0 - np.sqrt(3.0)]) / 6.0
    u1 = np.array([np.sqrt(w[0]), np.sqrt(w[1]), 0, 0], dtype=complex)
    u2 = np.array([np.sqrt(w[1]), -np.sqrt(w[0]), 0, 0], dtype=complex)
    sigma1 = np.outer(u1, u1.conj())
    sigma2 = np.outer(u2, u2.conj())

    g_rho = trace_inner(rho1, rho2)
    g_sigma = trace_inner(sigma1, sigma2)
    if abs(g_rho - 0.25) > tol or abs(g_sigma) > tol:
        raise ValidationError("pair overlaps deviated from 1/4 and 0")

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        f = _form_three_map(dims, rng)
        a, b = ensure_herm(f(rho1), repair=True), ensure_herm(f(rho2), repair=True)
        worst = max(worst, abs(trace_inner(a, b) - g_rho))
    if worst > tol:
        raise ValidationError("a sampled symmetry failed overlap invariance")
    return {"pair_one_overlap": float(g_rho),
            "pair_two_overlap": float(g_sigma),
            "gap": float(g_rho - g_sigma),
            "invariance_violation": float(worst),
            "transforms_checked": samples,
            "equivalent": False}

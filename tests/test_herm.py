import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptcone.cones import PSD, make_named_cone, membership
from gptcone.dual import conic_membership
from gptcone.herm import (
    BipartiteDims,
    ValidationError,
    ensure_herm,
    fidelity,
    max_entangled_fidelity,
    maximally_entangled_vector,
    nege,
    norm,
    partial_trace,
    partial_transpose,
    schmidt_coefficients,
    sco,
    tensor,
    trace_inner,
)
from gptcone.sampling import random_herm, random_state


def test_ensure_herm_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        ensure_herm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ensure_herm_repair_symmetrizes():
    A = np.array([[1.0, 1.0 + 1e-13j], [1.0 - 2e-13j, 2.0]])
    H = ensure_herm(A, repair=True)
    assert np.allclose(H, H.conj().T)


@pytest.mark.parametrize("x", [np.diag([np.nan, 1.0]),
                               np.array([[1.0, np.inf], [0.0, 1.0]]),
                               np.diag([1.0, complex(0.0, np.inf)])])
def test_non_finite_matrices_are_rejected(x):
    # A NaN pairing would give an Out whose witness cannot be checked.
    psd = make_named_cone(PSD, dim=2)
    for call in (ensure_herm, lambda x: ensure_herm(x, repair=True),
                 lambda x: membership(psd, x),
                 lambda x: conic_membership(x, [np.eye(2)])):
        with pytest.raises(ValidationError, match="non-finite"):
            call(x)


def test_ensure_herm_rejects_nonsquare():
    with pytest.raises(ValidationError):
        ensure_herm(np.zeros((2, 3)))


def test_trace_inner_real_and_symmetric():
    rng = np.random.default_rng(0)
    X, Y = random_herm(4, rng), random_herm(4, rng)
    assert trace_inner(X, Y) == pytest.approx(np.trace(X @ Y).real, abs=1e-12)
    assert trace_inner(X, Y) == pytest.approx(trace_inner(Y, X), abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_norm_inequalities(seed):
    X = random_herm(4, np.random.default_rng(seed))
    tr, hs, op = (norm(X, k) for k in ("trace", "hilbert_schmidt", "operator"))
    assert tr >= hs - 1e-12
    assert hs >= op - 1e-12
    assert tr <= 4 * op + 1e-12


def test_norm_unknown_kind():
    with pytest.raises(ValidationError):
        norm(np.eye(2), "spectral-ish")


def test_partial_trace_of_product_factors(dims22):
    rng = np.random.default_rng(1)
    a, b = random_state(2, rng), random_state(2, rng)
    X = tensor(a, b)
    assert np.allclose(partial_trace(X, dims22, "A"), a, atol=1e-12)
    assert np.allclose(partial_trace(X, dims22, "B"), b, atol=1e-12)


def test_partial_trace_bad_keep(dims22):
    with pytest.raises(ValidationError):
        partial_trace(np.eye(4), dims22, "C")


def test_partial_transpose_involution_and_isometry(dims22):
    rng = np.random.default_rng(2)
    X = random_herm(4, rng)
    Y = partial_transpose(X, dims22)
    assert np.allclose(partial_transpose(Y, dims22), X, atol=1e-14)
    assert norm(Y, "hilbert_schmidt") == pytest.approx(
        norm(X, "hilbert_schmidt"), abs=1e-12)


def test_partial_transpose_of_bell_spectrum(bell_state, dims22):
    vals = np.linalg.eigvalsh(partial_transpose(bell_state, dims22))
    assert vals[0] == pytest.approx(-0.5, abs=1e-12)
    assert vals[-1] == pytest.approx(0.5, abs=1e-12)


def test_schmidt_coefficients(dims22):
    v = maximally_entangled_vector(2)
    coeffs = schmidt_coefficients(v, dims22)
    assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)
    prod = np.kron(np.array([1.0, 0]), np.array([0, 1.0]))
    coeffs = schmidt_coefficients(prod.astype(complex), dims22)
    assert np.sum(coeffs > 1e-12) == 1


def test_nege_and_sco():
    X = np.diag([2.0, -0.5, -0.25]).astype(complex)
    assert nege(X) == pytest.approx(0.5, abs=1e-12)
    assert nege(np.eye(3)) == pytest.approx(0.0, abs=1e-12)
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert sco(bell, BipartiteDims(2, 2)) == pytest.approx(0.5, abs=1e-12)
    prod = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert sco(prod, BipartiteDims(2, 2)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_target():
    rho = np.diag([0.25, 0.75]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(rho, sigma) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValidationError):
        fidelity(rho, np.eye(2) / 2)  # mixed target unsupported


def test_max_entangled_fidelity_of_bell(bell_state, dims22):
    f, P = max_entangled_fidelity(bell_state, dims22, restarts=4, seed=0)
    assert f == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(P, bell_state, atol=1e-6)


def test_max_entangled_fidelity_product_state(dims22):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    f, _ = max_entangled_fidelity(rho, dims22, restarts=8, seed=0)
    # A product state overlaps any maximally entangled vector by <= 1/m.
    assert f == pytest.approx(0.5, abs=1e-9)


def test_max_entangled_fidelity_lower_bounds_true_value(dims22):
    rng = np.random.default_rng(3)
    rho = random_state(4, rng)
    f, P = max_entangled_fidelity(rho, dims22, restarts=6, seed=1)
    assert f == pytest.approx(trace_inner(rho, P), abs=1e-9)
    # The argmax is itself a maximally entangled state.
    for keep in ("A", "B"):
        assert np.allclose(partial_trace(P, dims22, keep), np.eye(2) / 2,
                           atol=1e-8)
    # And it never exceeds the overlap with the best pure state.
    assert f <= np.linalg.eigvalsh(rho)[-1] + 1e-9


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(4)
    X, Y = random_herm(2, rng), random_herm(3, rng)
    assert np.trace(tensor(X, Y)).real == pytest.approx(
        np.trace(X).real * np.trace(Y).real, abs=1e-12)

import numpy as np
import pytest

from gptcone.herm import BipartiteDims, partial_transpose
from gptcone.sampling import (
    haar_unitary,
    random_herm,
    random_max_entangled_state,
    random_product_vectors,
    random_pure_state,
    random_separable_state,
    random_state,
)


def test_haar_unitary_is_unitary():
    U = haar_unitary(5, 0)
    assert np.allclose(U @ U.conj().T, np.eye(5), atol=1e-12)


def test_haar_seed_reproducible():
    assert np.allclose(haar_unitary(4, 11), haar_unitary(4, 11))
    assert not np.allclose(haar_unitary(4, 11), haar_unitary(4, 12))


def test_random_herm_hermitian():
    X = random_herm(4, 0)
    assert np.allclose(X, X.conj().T)


def test_random_state_properties():
    rho = random_state(4, 1)
    vals = np.linalg.eigvalsh(rho)
    assert vals[0] >= -1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_random_state_rank_control():
    rho = random_state(4, 2, rank=1)
    assert np.sum(np.linalg.eigvalsh(rho) > 1e-10) == 1


def test_random_pure_state_rank_one():
    rho = random_pure_state(4, 3)
    vals = np.linalg.eigvalsh(rho)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(vals > 1e-12) == 1


def test_product_vectors_normalized_and_product():
    dims = BipartiteDims(2, 3)
    V = random_product_vectors(dims, 50, 5)
    assert V.shape == (50, 6)
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
    assert all(np.linalg.matrix_rank(v.reshape(2, 3), tol=1e-10) == 1
               for v in V)


def test_separable_state_is_ppt():
    dims = BipartiteDims(2, 2)
    rho = random_separable_state(dims, seed=6)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(partial_transpose(rho, dims))[0] >= -1e-12


def test_max_entangled_state_reductions():
    rho = random_max_entangled_state(3, 7)
    from gptcone.herm import partial_trace

    dims = BipartiteDims(3, 3)
    for keep in ("A", "B"):
        assert np.allclose(partial_trace(rho, dims, keep), np.eye(3) / 3,
                           atol=1e-10)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptcone import dual
from gptcone.cones import PSD, make_named_cone, membership
from gptcone.dual import conic_feasibility
from gptcone.herm import (
    BipartiteDims,
    ValidationError,
    ensure_herm,
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
from gptcone.sampling import (
    random_herm,
    random_max_entangled_state,
    random_state,
)


def test_ensure_herm_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        ensure_herm(np.array([[0.0, 1.0], [0.0, 0.0]]))


# Rejected, not warned about: inf - inf in the Hermiticity test is NaN.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [np.diag([np.nan, 1.0]),
                               np.array([[1.0, np.inf], [0.0, 1.0]]),
                               np.diag([1.0, complex(0.0, np.inf)]),
                               np.diag([np.inf, 1.0]),
                               np.array([[1.0, -np.inf], [-np.inf, 1.0]])])
def test_non_finite_matrices_are_rejected(x):
    # A NaN pairing would give an Out whose witness cannot be checked.
    psd = make_named_cone(PSD, dim=2)
    for call in (ensure_herm, lambda x: membership(psd, x),
                 lambda x: conic_feasibility(x, [np.eye(2)])):
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


def test_max_entangled_fidelity_of_bell(bell_state, dims22):
    lower, upper, P = max_entangled_fidelity(bell_state, dims22)
    assert lower == pytest.approx(1.0, abs=1e-9)
    assert upper == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(P, bell_state, atol=1e-6)


def test_max_entangled_fidelity_product_state(dims22):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    lower, upper, _ = max_entangled_fidelity(rho, dims22)
    # A product state overlaps any maximally entangled vector by <= 1/m.
    assert lower == pytest.approx(0.5, abs=1e-9)
    assert upper == pytest.approx(0.5, abs=1e-9)


def test_max_entangled_fidelity_lower_bounds_true_value(dims22):
    rng = np.random.default_rng(3)
    rho = random_state(4, rng)
    lower, upper, P = max_entangled_fidelity(rho, dims22)
    assert lower == pytest.approx(trace_inner(rho, P), abs=1e-12)
    # The argmax is itself a maximally entangled state.
    for keep in ("A", "B"):
        assert np.allclose(partial_trace(P, dims22, keep), np.eye(2) / 2,
                           atol=1e-8)
    # And it never exceeds the overlap with the best pure state.
    assert lower <= upper <= np.linalg.eigvalsh(rho)[-1] + 1e-9


def _two_qubit_max_entangled_fidelity(rho):
    """lambda_max(Re(B^dag rho B)), B's columns the magic basis, in which
    the maximally entangled states are exactly the real unit vectors (Hill
    & Wootters, PRL 78, 5022, 1997)."""
    B = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1],
                  [0, 0, 1j, -1], [1, -1j, 0, 0]]) / np.sqrt(2.0)
    return np.linalg.eigvalsh((B.conj().T @ rho @ B).real)[-1]


def test_max_entangled_fidelity_is_exact_for_qubits(dims22):
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = random_state(4, rng)
        lower, upper, _ = max_entangled_fidelity(rho, dims22)
        closed = _two_qubit_max_entangled_fidelity(rho)
        assert lower == pytest.approx(closed, abs=1e-8)
        assert upper == pytest.approx(closed, abs=1e-8)


def _seeded_states(m, n=20):
    rng = np.random.default_rng(m)
    return [random_state(m * m, rng) for _ in range(n)], rng


@pytest.mark.parametrize("m", [3, 4])
def test_max_entangled_fidelity_brackets_the_maximum(m):
    dims = BipartiteDims(m, m)
    states, rng = _seeded_states(m)
    for rho in states:
        lower, upper, P = max_entangled_fidelity(rho, dims)
        assert 0.0 <= upper - lower
        assert lower == pytest.approx(trace_inner(rho, P), abs=1e-12)
        for keep in ("A", "B"):
            assert np.allclose(partial_trace(P, dims, keep), np.eye(m) / m,
                               atol=1e-8)
        best = max(trace_inner(rho, random_max_entangled_state(m, rng))
                   for _ in range(200))
        assert lower >= best - 1e-12


def test_max_entangled_fidelity_bounds_meet_for_qutrits():
    dims = BipartiteDims(3, 3)
    for rho in _seeded_states(3)[0]:
        lower, upper, _ = max_entangled_fidelity(rho, dims)
        assert upper - lower <= 1e-8


# The overlaps that the polar ascent this function replaced (32 Haar
# restarts, seed 0) reached on the 30 m = 4 states of _seeded_states.
# On the last one an ascent from the optimum's top eigenvector alone
# stops 1.9e-5 short.
_ASCENT_M4 = [
    0.180402081409, 0.170510424317, 0.158166208433, 0.187243191152,
    0.177245153355, 0.168503003710, 0.153585525541, 0.162599069824,
    0.183466528004, 0.172468108770, 0.162371411225, 0.163463359058,
    0.152869382722, 0.169809057927, 0.181474883713, 0.170079676242,
    0.178089883145, 0.160899923275, 0.158067356566, 0.212036483865,
    0.173461697380, 0.174328638461, 0.172830002868, 0.169770883481,
    0.151086523942, 0.178447221293, 0.163972959189, 0.160620063804,
    0.159377238439, 0.164664171039,
]


def test_max_entangled_fidelity_lower_reaches_the_restarted_ascent():
    # Both ascents stop on steps below 1e-12 and the references keep 12
    # decimals, hence the 1e-11 slack.
    dims = BipartiteDims(4, 4)
    states = _seeded_states(4, len(_ASCENT_M4))[0]
    for rho, ref in zip(states, _ASCENT_M4):
        lower, _, _ = max_entangled_fidelity(rho, dims)
        assert lower >= ref - 1e-11


@pytest.mark.xfail(strict=True, reason="at m = 4 the states with maximally "
                   "mixed marginals reach beyond the hull of the maximally "
                   "entangled ones: the bounds stay apart on 3 of these 20 "
                   "states, by up to 2.1e-3")
def test_max_entangled_fidelity_bounds_meet_at_m4():
    dims = BipartiteDims(4, 4)
    for rho in _seeded_states(4)[0]:
        lower, upper, _ = max_entangled_fidelity(rho, dims)
        assert upper - lower <= 1e-8


@pytest.mark.parametrize("rho, dims", [
    (np.eye(6) / 6, BipartiteDims(2, 3)),
    (np.eye(9) / 9, BipartiteDims(2, 2)),
    (np.triu(np.ones((4, 4))) / 4, BipartiteDims(2, 2)),
])
def test_max_entangled_fidelity_rejects_bad_input(rho, dims):
    with pytest.raises(ValidationError):
        max_entangled_fidelity(rho, dims)


def test_max_entangled_fidelity_raises_when_the_solve_fails(dims22,
                                                            monkeypatch):
    solve = dual._solve
    monkeypatch.setattr(dual, "_solve", lambda *args: dataclasses.replace(
        solve(*args), converged=False))
    with pytest.raises(ValidationError, match="did not converge"):
        max_entangled_fidelity(np.eye(4) / 4, dims22)


def test_max_entangled_fidelity_upper_is_certified_off_the_optimum(
        dims22, monkeypatch):
    # A dual point moved off the optimum, even out of the feasible set,
    # still gives an upper bound: the slack's eigenvalues pay for it.
    rng = np.random.default_rng(5)
    solve = dual._solve

    def perturbed(*args):
        sol = solve(*args)
        return dataclasses.replace(
            sol, y=sol.y + 1e-3 * rng.standard_normal(len(sol.y)))

    monkeypatch.setattr(dual, "_solve", perturbed)
    for _ in range(20):
        rho = random_state(4, rng)
        closed = _two_qubit_max_entangled_fidelity(rho)
        _, upper, _ = max_entangled_fidelity(rho, dims22)
        assert closed <= upper + 1e-12


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(4)
    X, Y = random_herm(2, rng), random_herm(3, rng)
    assert np.trace(tensor(X, Y)).real == pytest.approx(
        np.trace(X).real * np.trace(Y).real, abs=1e-12)

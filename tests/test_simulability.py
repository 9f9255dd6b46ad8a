import numpy as np
import pytest

from gptcone.dovm import Dovm, bq_witness_states
from gptcone.herm import BipartiteDims, ValidationError, trace_inner
from gptcone.sampling import random_separable_state, random_state
from gptcone.simulability import (
    domain_contains,
    n_copy_overlap,
    non_simulability_certificate,
    shrunk_bloch_example,
)
from gptcone.verdict import UNKNOWN, MembershipVerdict


def test_domain_contains_separable_states(e_dovm, dims22):
    for seed in range(5):
        rho = random_separable_state(dims22, seed=seed)
        assert domain_contains(e_dovm, rho)


def test_domain_contains_witness_states(e_dovm):
    rho1, rho2, _ = bq_witness_states(e_dovm)
    assert domain_contains(e_dovm, rho1)
    assert domain_contains(e_dovm, rho2)


def test_domain_excludes_negative_eigenstate(e_dovm, e_pair):
    e1, _ = e_pair
    vals, vecs = np.linalg.eigh(e1)
    psi = np.outer(vecs[:, 0], vecs[:, 0].conj())
    assert trace_inner(psi, e1) == pytest.approx(-0.5, abs=1e-9)
    assert not domain_contains(e_dovm, psi)


def test_domain_rejects_non_psd(e_dovm):
    with pytest.raises(ValidationError):
        domain_contains(e_dovm, np.diag([1.0, -0.2, 0.1, 0.1]))


def test_n_copy_overlap_powers(entropy_quartet):
    rho1, rho2, _, _ = entropy_quartet
    base = trace_inner(rho1, rho2)
    assert base == pytest.approx(0.25, abs=1e-12)
    for n in range(1, 6):
        assert n_copy_overlap(rho1, rho2, n) == pytest.approx(0.25**n,
                                                             abs=1e-12)
    assert n_copy_overlap(rho1, rho1, 3) == pytest.approx(
        trace_inner(rho1, rho1) ** 3, abs=1e-12)
    with pytest.raises(ValidationError):
        n_copy_overlap(rho1, rho2, 0)


def test_n_copy_overlap_decreasing():
    rho1 = np.diag([1.0, 0.0]).astype(complex)
    rho2 = np.diag([0.5, 0.5]).astype(complex)
    vals = [n_copy_overlap(rho1, rho2, n) for n in range(1, 5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_certificate_on_fixture(e_dovm):
    cert = non_simulability_certificate(e_dovm)
    assert cert.status == "NonSimulable"
    assert cert.overlap == pytest.approx(0.75, abs=1e-9)
    rho1, rho2 = cert.states
    gram = np.array([[trace_inner(rho1, e_dovm.m1), trace_inner(rho1, e_dovm.m2)],
                     [trace_inner(rho2, e_dovm.m1), trace_inner(rho2, e_dovm.m2)]])
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-8


def test_certificate_inconclusive_on_unfit_state_pairs(e_dovm, e_pair):
    e1, _ = e_pair
    vecs = np.linalg.eigh(e1)[1]
    bottom = np.outer(vecs[:, 0], vecs[:, 0].conj())
    cert = non_simulability_certificate(e_dovm, states=(bottom, bottom))
    assert cert.status == "Inconclusive"
    assert "outside the measurement domain" in cert.detail

    # |00> and |11> give e1 the value 1, so both lie in the domain.
    p00, p11 = np.diag([1.0, 0, 0, 0]), np.diag([0, 0, 0, 1.0])
    cert = non_simulability_certificate(e_dovm, states=(p00, p11))
    assert cert.status == "Inconclusive"
    assert cert.detail == "witness pair is orthogonal"


def test_certificate_povm_inconclusive(dims22):
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    povm = Dovm(m1=p, m2=np.eye(4) - p, dims=dims22)
    cert = non_simulability_certificate(povm)
    assert cert.status == "Inconclusive"


def test_certificate_aq_inconclusive(dims22):
    m1 = np.diag([0.95, -0.1, 0.5, 0.4]).astype(complex)
    ev = (MembershipVerdict(UNKNOWN, tier="given"),) * 2
    aq = Dovm(m1=m1, m2=np.eye(4) - m1, dims=dims22,
              block_positivity_evidence=ev)
    cert = non_simulability_certificate(aq)
    assert cert.status == "Inconclusive"


def test_shrunk_bloch_example_half():
    rep = shrunk_bloch_example(0.5, samples=1000)
    assert rep["pass"]
    assert rep["overlap"] == pytest.approx(0.375, abs=1e-12)
    assert rep["table_residual"] <= 1e-12
    assert rep["valid_on_domain"]
    assert rep["certificate"].status == "NonSimulable"


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_shrunk_bloch_domain_minimum_is_exact(p):
    rep = shrunk_bloch_example(p)
    m1, m2 = rep["measurement"].effects
    rho1, rho2 = rep["boundary_states"]
    # Each effect's least probability is reached at a boundary state.
    boundary = min(trace_inner(rho2, m1), trace_inner(rho1, m2))
    assert rep["domain_min_probability"] == pytest.approx(boundary, abs=1e-12)
    rng = np.random.default_rng(int(100 * p))
    eye = np.eye(2)
    for _ in range(200):
        sigma = p * random_state(2, rng) + (1.0 - p) / 2.0 * eye
        for m in (m1, m2):
            assert trace_inner(sigma, m) >= rep["domain_min_probability"] - 1e-12


def test_shrunk_bloch_margin_is_the_closed_form():
    # The SHRUNK_BLOCH dual oracle's margin is the least probability on the
    # shrunk states, p lambda_min(M) + (1-p)/2 Tr M, over a grid of p.
    for p in np.linspace(0.01, 0.99, 99):
        rep = shrunk_bloch_example(p)
        closed = min(p * np.linalg.eigvalsh(m)[0]
                     + (1.0 - p) / 2.0 * np.trace(m).real
                     for m in rep["measurement"].effects)
        assert rep["domain_min_probability"] == pytest.approx(closed,
                                                              abs=1e-14)
        assert rep["valid_on_domain"] == (closed >= -1e-9)


def test_shrunk_bloch_overlap_vanishes_near_quantum():
    rep = shrunk_bloch_example(0.999, samples=50)
    assert rep["overlap"] < 2e-3
    assert rep["overlap"] == pytest.approx(rep["overlap_closed_form"],
                                           abs=1e-12)


def test_shrunk_bloch_range():
    with pytest.raises(ValidationError):
        shrunk_bloch_example(0.0)
    with pytest.raises(ValidationError):
        shrunk_bloch_example(1.0)

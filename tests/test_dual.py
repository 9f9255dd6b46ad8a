import numpy as np
import pytest

from gptcone.dual import (
    ConicCertificate,
    Infeasible,
    conic_feasibility,
    dual_identity_check,
    dual_membership,
    gram_predual_check,
    identity,
    min_over_spectrahedron,
)
from gptcone.herm import trace_inner
from gptcone.sampling import random_herm
from gptcone.verdict import IN, OUT


def _diag_gens():
    return [np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]


def test_dual_membership_in_and_out():
    gens = _diag_gens()
    assert dual_membership(gens, np.diag([0.5, 2.0])).status == IN
    v = dual_membership(gens, np.diag([0.5, -1.0]))
    assert v.status == OUT
    assert trace_inner(v.witness, np.diag([0.5, -1.0])) < 0


def test_conic_feasibility_recovers_combination():
    gens = _diag_gens()
    x = 0.3 * gens[0] + 1.7 * gens[1]
    res = conic_feasibility(x, gens, ())
    assert isinstance(res, ConicCertificate)
    assert np.allclose(res.coefficients, [0.3, 1.7], atol=1e-6)


def test_conic_feasibility_with_psd_block():
    gens = [np.diag([1.0, -1.0]).astype(complex)]
    x = np.diag([2.0, 0.0]).astype(complex)  # = gen + diag(1,1)
    res = conic_feasibility(x, gens, (identity,))
    assert isinstance(res, ConicCertificate)
    rem = x - res.coefficients[0] * gens[0]
    assert np.linalg.eigvalsh(rem)[0] >= -1e-7


def test_conic_feasibility_infeasible_bound():
    gens = _diag_gens()
    res = conic_feasibility(-np.eye(2), gens, (identity,))
    assert isinstance(res, Infeasible)
    assert res.bound > 0


def test_gram_predual_check():
    ok, (pair, val) = gram_predual_check(_diag_gens())
    assert ok and val >= 0
    bad = _diag_gens() + [np.diag([1.0, -2.0]).astype(complex)]
    ok, (pair, val) = gram_predual_check(bad)
    assert not ok
    assert val < 0
    assert trace_inner(bad[pair[0]], bad[pair[1]]) == pytest.approx(val)


def test_min_over_spectrahedron_matches_min_eigenvalue():
    rng = np.random.default_rng(0)
    X = random_herm(3, rng)
    val, y = min_over_spectrahedron(X, halfspaces=[])
    lam = np.linalg.eigvalsh(X)[0]
    assert val == pytest.approx(lam, abs=1e-6)
    assert np.trace(y).real == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.eigvalsh(y)[0] >= -1e-9


def test_min_over_spectrahedron_respects_halfspaces():
    X = np.diag([-1.0, 1.0]).astype(complex)
    # Forbid weight on the first axis: the minimum flips to +1.
    val, y = min_over_spectrahedron(X, halfspaces=[np.diag([-1.0, 0.0])])
    assert trace_inner(y, np.diag([-1.0, 0.0])) >= -1e-7
    assert val >= -1e-6


def test_dual_identity_on_random_pairs():
    rng = np.random.default_rng(1)
    for k in range(3):
        g1 = [random_herm(3, rng) for _ in range(3)]
        g2 = [random_herm(3, rng) for _ in range(3)]
        rep = dual_identity_check(g1, g2, samples=200, seed=k)
        assert rep.ok, rep.disagreements

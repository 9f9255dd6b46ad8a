import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptcone.cones import CLASSICAL_ORTHANT, make_named_cone
from gptcone.discrimination import min_error_over_cone
from gptcone import dual
from gptcone.dual import (
    ConicCertificate,
    _solve,
    conic_feasibility,
    dual_identity_check,
    dual_membership,
    gram_predual_check,
    identity,
    min_over_effects,
    min_over_spectrahedron,
)
from gptcone.herm import ValidationError, trace_inner
from gptcone.sampling import random_herm, random_psd, random_state
from gptcone.verdict import IN, OUT, UNKNOWN


def _diag_gens():
    return [np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]


def test_dual_membership_in_and_out():
    gens = _diag_gens()
    v = dual_membership(gens, np.diag([0.5, 2.0]))
    assert (v.status, v.tier, v.margin) == (IN, "generator-pairing", 0.5)
    v = dual_membership(gens, np.diag([0.5, -1.0]))
    assert (v.status, v.tier, v.margin) == (OUT, "generator-pairing", -1.0)
    assert trace_inner(v.witness, np.diag([0.5, -1.0])) < 0


def test_conic_feasibility_recovers_combination():
    gens = _diag_gens()
    x = 0.3 * gens[0] + 1.7 * gens[1]
    res = conic_feasibility(x, gens, ())
    assert res.status == IN and isinstance(res.witness, ConicCertificate)
    assert np.allclose(res.witness.coefficients, [0.3, 1.7], atol=1e-6)


def test_conic_feasibility_with_psd_block():
    gens = [np.diag([1.0, -1.0]).astype(complex)]
    x = np.diag([2.0, 0.0]).astype(complex)  # = gen + diag(1,1)
    res = conic_feasibility(x, gens, (identity,))
    assert res.status == IN and isinstance(res.witness, ConicCertificate)
    rem = x - res.witness.coefficients[0] * gens[0]
    assert np.linalg.eigvalsh(rem)[0] >= -1e-7


def test_conic_feasibility_infeasible_bound():
    gens = _diag_gens()
    res = conic_feasibility(-np.eye(2), gens, (identity,))
    assert res.status == OUT
    assert -res.margin / np.linalg.norm(res.witness) > 0


def test_conic_feasibility_reports_an_undecided_search(monkeypatch):
    # One iteration neither decomposes x nor separates it: the verdict is
    # Unknown, with the diagnostics of the solve that gave up.
    monkeypatch.setattr(dual, "_MAX_ITER", 1)
    rng = np.random.default_rng(1)
    x = random_herm(3, rng)
    gens = [random_herm(3, rng) for _ in range(2)]
    v = conic_feasibility(x, gens, ())
    assert v.status == UNKNOWN and v.witness is None
    assert v.iterations == 1 and v.converged is False


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


def test_min_over_spectrahedron_raises_on_an_empty_spectrahedron():
    # <y, -I> >= 0 leaves no trace-one PSD y.
    with pytest.raises(ValidationError, match="did not converge"):
        min_over_spectrahedron(np.diag([1.0, 2.0]), [-np.eye(2)])


def test_dual_identity_on_random_pairs():
    rng = np.random.default_rng(1)
    for k in range(3):
        g1 = [random_herm(3, rng) for _ in range(3)]
        g2 = [random_herm(3, rng) for _ in range(3)]
        rep = dual_identity_check(g1, g2, samples=200, seed=k)
        assert rep.ok, rep.disagreements


def _pairings(As, X):
    """``<A[i], X>`` for a stack A of Hermitian matrices."""
    return np.einsum("iab,ba->i", As, X).real


def _feasible_program(rng, n, nb, d):
    """A program for ``_solve`` with strictly feasible primal and dual
    points, so that both optima are attained and equal."""
    p = int(rng.integers(1, min(n + nb * d * d, 8) + 1))
    A = rng.normal(size=(p, n))
    As = [np.array([random_herm(d, rng) for _ in range(p)])
          for _ in range(nb)]
    u, z, y = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n), \
        rng.normal(size=p)
    b = A @ u + sum((_pairings(Aj, random_psd(d, rng) + np.eye(d))
                     for Aj in As), np.zeros(p))
    blocks = [(random_psd(d, rng) + np.eye(d) + np.tensordot(y, Aj, 1), Aj)
              for Aj in As]
    return b, z + A.T @ y, A, blocks


@given(st.integers(0, 10_000), st.integers(0, 3), st.sampled_from([2, 3, 4]),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_solver_converges_on_feasible_programs(seed, nb, d, orthant):
    # Every residual of the returned iterate, and its duality gap, meets
    # the acceptance level; the dual slacks are the implied ones.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5)) if orthant or not nb else 0
    b, c, A, blocks = _feasible_program(rng, n, nb, d)
    sol = _solve(b, c, A, blocks)
    assert sol.converged
    assert len(sol.X) == nb
    rp = b - A @ sol.u - sum((_pairings(Aj, Xj)
                              for (_, Aj), Xj in zip(blocks, sol.X)),
                             np.zeros(len(b)))
    assert np.linalg.norm(rp) <= 1e-8 * (1.0 + np.linalg.norm(b))
    c_scale = 1.0 + np.sqrt(np.linalg.norm(c) ** 2 + sum(
        np.linalg.norm(Cj) ** 2 for Cj, _ in blocks))
    assert np.all(sol.u >= 0.0)
    assert np.min(c - A.T @ sol.y, initial=0.0) >= -1e-8 * c_scale
    for (Cj, Aj), Xj in zip(blocks, sol.X):
        assert np.linalg.eigvalsh(Xj)[0] >= -1e-12  # rounding at a face
        Zj = Cj - np.tensordot(sol.y, Aj, 1)
        assert np.linalg.eigvalsh(Zj)[0] >= -1e-8 * c_scale
    pobj = c @ sol.u + sum(np.vdot(Cj, Xj).real
                           for (Cj, _), Xj in zip(blocks, sol.X))
    dobj = b @ sol.y
    assert abs(pobj - dobj) <= 1e-8 * (1.0 + abs(pobj) + abs(dobj))
    assert sol.gap == pytest.approx(pobj - dobj, abs=1e-12)


@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
@settings(max_examples=30, deadline=None)
def test_effect_program_reduces_dependent_rows(seed, d):
    # The orthant's generators and their pairwise sums span only the
    # diagonal matrices: min_over_effects without maps drops the dependent
    # rows, and the orthant's error is still the diagonal distance.
    rng = np.random.default_rng(seed)
    diag = [np.diag(np.eye(d)[k]).astype(complex) for k in range(d)]
    gens = diag + [diag[k] + diag[(k + 1) % d] for k in range(d)]
    a, b = random_state(d, rng), random_state(d, rng)
    distance = 0.5 * np.sum(np.abs(np.diag(a - b)))
    value, M = min_over_effects(b - a, gens, ())
    assert 1.0 + value == pytest.approx(1.0 - distance, abs=1e-9)
    assert np.allclose(M, np.diag(np.diag(M)), atol=1e-9)
    cval, _ = min_error_over_cone(a, b, make_named_cone(CLASSICAL_ORTHANT,
                                                        dim=d))
    assert cval == pytest.approx(1.0 - distance, abs=1e-9)


def test_effect_program_rejects_a_unit_outside_the_span():
    # Without maps, M and I - M must lie in the span of the generators.
    with pytest.raises(ValidationError):
        min_over_effects(np.diag([1.0, -1.0]), [np.diag([1.0, 0.0])], ())


@pytest.mark.parametrize("call", [
    lambda: dual_membership([np.eye(6)], np.eye(4)),
    lambda: conic_feasibility(np.eye(4), [np.eye(6)]),
    lambda: min_over_spectrahedron(np.eye(4), [np.eye(2)]),
    lambda: min_over_effects(np.eye(4), [np.eye(3)], ()),
], ids=["dual_membership", "conic_feasibility", "min_over_spectrahedron",
        "min_over_effects"])
def test_generators_of_another_size_are_rejected(call):
    with pytest.raises(ValidationError):
        call()


def test_gram_predual_check_rejects_non_hermitian_generators():
    x = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        gram_predual_check([x, np.eye(2)])

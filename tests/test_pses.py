import dataclasses

import numpy as np
import pytest

from gptcone import dual, pses
from gptcone.cones import ConeRep, GptModel
from gptcone.dual import ConicCertificate, conic_feasibility, identity
from gptcone.herm import (
    BipartiteDims,
    ValidationError,
    max_entangled_fidelity,
    partial_trace,
    trace_inner,
)
from gptcone.pses import (
    MeopFamily,
    PsesParams,
    cr_membership,
    dist_example,
    distance_upper_bound,
    eps_of_r,
    generalized_bell,
    hierarchy_audit,
    npm_element,
    npm_endpoint_generators,
    overlap_closed_form,
    overlap_eps_relation,
    predual_audit,
    r0,
    r_of_eps,
    self_duality_verifier,
    swap_families,
    swap_family,
    swap_pair,
)
from gptcone.sampling import (
    random_max_entangled_state,
    random_product_vectors,
    random_separable_state,
)
from gptcone.verdict import IN, OUT


@pytest.fixture(scope="module")
def bell_family():
    return generalized_bell(2)


@pytest.fixture(scope="module")
def params01(bell_family):
    return PsesParams(family_set=swap_pair(bell_family), r=0.1,
                      dims=bell_family.dims)


@pytest.mark.parametrize("m", [2, 3])
def test_generalized_bell_invariants(m):
    fam = generalized_bell(m)
    assert len(fam.projectors) == m * m
    for P in fam.projectors:
        red = partial_trace(P, fam.dims, "A")
        assert np.max(np.abs(red - np.eye(m) / m)) <= 1e-12


def test_generalized_bell_rejects_small_m():
    with pytest.raises(ValidationError):
        generalized_bell(1)


def test_swap_family_involution(bell_family):
    twice = swap_family(swap_family(bell_family))
    for P, Q in zip(twice.projectors, bell_family.projectors):
        assert np.allclose(P, Q)


def test_swap_preserves_invariants(bell_family):
    swap_family(bell_family)


@pytest.mark.parametrize("m", [2, 3])
def test_swap_families_exchange_projector_zero_with_projector_j(m):
    bell = generalized_bell(m)
    for k in range(1, m * m + 1):
        families = swap_families(bell, k)
        assert len(families) == k and families[0] is bell
        for j, fam in enumerate(families):
            expected = list(bell.projectors)
            expected[0], expected[j] = expected[j], expected[0]
            assert all(np.array_equal(P, Q)
                       for P, Q in zip(fam.projectors, expected))
    pair, two = swap_pair(bell), swap_families(bell, 2)
    assert pair[0] is bell
    for fam in (pair[1], swap_family(bell)):
        assert all(np.array_equal(P, Q)
                   for P, Q in zip(fam.projectors, two[1].projectors))
    for k in (0, m * m + 1):
        with pytest.raises(ValidationError):
            swap_families(bell, k)


def test_deformation_pair_sums_to_identity(bell_family):
    for lam in (0.0, 0.1, 0.2):
        M1 = npm_element(lam, bell_family)
        M2 = npm_element(lam, swap_family(bell_family))
        assert np.max(np.abs(M1 + M2 - np.eye(4))) <= 1e-12


def test_npm_element_spectrum(bell_family):
    N = npm_element(0.1, bell_family)
    vals = np.linalg.eigvalsh(N)
    assert np.allclose(sorted(vals), [-0.1, 0.5, 0.5, 1.1], atol=1e-12)
    assert np.trace(N).real == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValidationError):
        npm_element(-0.1, bell_family)


def test_npm_linearity(bell_family):
    r = 0.2
    N0 = npm_element(0.0, bell_family)
    Nr = npm_element(r, bell_family)
    for lam in np.linspace(0.0, r, 7):
        N = npm_element(lam, bell_family)
        mix = (1 - lam / r) * N0 + (lam / r) * Nr
        assert np.max(np.abs(N - mix)) <= 1e-14


def test_r0_values():
    assert r0(BipartiteDims(2, 2)) == pytest.approx(0.2071068, abs=1e-7)
    assert r0(BipartiteDims(3, 3)) == pytest.approx(0.5606602, abs=1e-7)
    assert r0(BipartiteDims(3, 3)) > r0(BipartiteDims(2, 2))


def test_eps_r_roundtrip():
    assert eps_of_r(0.0) == 0.0
    assert eps_of_r(0.1) == pytest.approx(0.8164966, abs=1e-7)
    for r in np.linspace(0.0, 1.5, 12):
        assert r_of_eps(eps_of_r(r)) == pytest.approx(r, abs=1e-12)
    with pytest.raises(ValidationError):
        r_of_eps(2.0)


def test_cr_membership_cases(params01, bell_family):
    rho = random_separable_state(bell_family.dims, seed=0)
    assert cr_membership(rho, params01).status == IN
    assert cr_membership(-np.eye(4), params01).status == OUT
    _, (rho1, rho2), _ = dist_example(0.1, bell_family)
    assert cr_membership(rho1, params01).status != OUT
    assert cr_membership(rho2, params01).status != OUT


@pytest.mark.parametrize("m", [2, 3])
def test_cr_membership_own_generator_is_in(m):
    fam = generalized_bell(m)
    params = PsesParams(family_set=swap_pair(fam), r=0.1, dims=fam.dims)
    x = npm_element(0.1, fam)
    v = cr_membership(x, params)
    assert v.status == IN
    cert = v.witness
    assert isinstance(cert, ConicCertificate)
    assert np.all(cert.coefficients >= 0)
    gens = npm_endpoint_generators(params)
    rest = x - sum(c * g for c, g in zip(cert.coefficients, gens))
    miss = np.linalg.norm(np.minimum(np.linalg.eigvalsh(rest), 0.0))
    assert miss <= 1e-9 and cert.residual == pytest.approx(miss, abs=1e-12)


def test_predual_audit_passes_at_small_r(params01):
    rep = predual_audit(params01, product_samples=3000)
    assert rep.ok
    gram = rep.checks["endpoint_gram"]
    # Worst Gram entry follows the -2(r+1/2)^2 + D/4 chain.
    assert gram["min_value"] == pytest.approx(-2 * 0.6**2 + 1.0, abs=1e-9)


def test_predual_audit_fails_beyond_r0(bell_family):
    params = PsesParams(family_set=swap_pair(bell_family), r=0.3,
                        dims=bell_family.dims)
    rep = predual_audit(params, product_samples=500)
    assert not rep.ok
    gram = rep.checks["endpoint_gram"]
    assert not gram["ok"]
    assert gram["min_value"] < -1e-9
    i, j = gram["min_pair"]
    gens = npm_endpoint_generators(params)
    assert trace_inner(gens[i], gens[j]) == pytest.approx(gram["min_value"])


def test_predual_audit_zero_margin_at_r0(bell_family):
    params = PsesParams(family_set=swap_pair(bell_family),
                        r=r0(bell_family.dims), dims=bell_family.dims)
    rep = predual_audit(params, product_samples=500)
    assert rep.ok
    assert rep.checks["endpoint_gram"]["min_value"] == pytest.approx(0.0,
                                                                     abs=1e-9)


def test_hierarchy_audit(bell_family):
    rep = hierarchy_audit([0.2, 0.1], swap_pair(bell_family),
                          bell_family.dims)
    assert rep.ok
    step = rep.checks["strict_step_0"]
    W = step["separator"]
    inner = npm_endpoint_generators(PsesParams(
        family_set=swap_pair(bell_family), r=0.1, dims=bell_family.dims))
    assert np.linalg.eigvalsh(W)[0] >= -1e-9
    assert min(trace_inner(W, N) for N in inner) >= -1e-9
    outer = npm_element(0.2, bell_family)
    assert trace_inner(W, outer) == pytest.approx(step["separator_pairing"])
    assert step["separator_pairing"] < 0
    assert step["infeasibility_bound"] == pytest.approx(
        -step["separator_pairing"] / np.linalg.norm(W))
    single = hierarchy_audit([0.1], swap_pair(bell_family), bell_family.dims)
    assert single.ok
    with pytest.raises(ValidationError):
        hierarchy_audit([0.1, 0.1], swap_pair(bell_family), bell_family.dims)
    with pytest.raises(ValidationError):
        hierarchy_audit([0.1, -0.2], swap_pair(bell_family), bell_family.dims)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_hierarchy_steps_reach_the_closed_form_without_a_solve(
        m, monkeypatch):
    # The eigen-shift tier decides every step.  Its separator pairs
    # -(r1 - r2)/(1 + 2 r2) with N(r1), as does the closed-form
    # W = (1 + r2) E_1 + r2 E_2 at trace one.
    def no_solve(*args, **kwargs):
        raise AssertionError("a hierarchy step needed a conic solve")

    monkeypatch.setattr(dual, "_solve", no_solve)
    fam = generalized_bell(m)
    rep = hierarchy_audit([0.3, 0.2, 0.1], swap_pair(fam), fam.dims)
    assert rep.ok
    for name in ("strict_step_0", "strict_step_1"):
        step = rep.checks[name]
        r1, r2 = step["r_outer"], step["r_inner"]
        assert step["ok"]
        assert step["separator_pairing"] == pytest.approx(
            -(r1 - r2) / (1.0 + 2.0 * r2), abs=1e-9)
        assert step["separator_min_pairing"] >= 0.0
        assert step["separator_min_eigenvalue"] >= 0.0


def test_hierarchy_audit_rejects_an_empty_chain(bell_family):
    # No levels would certify nothing, yet pass vacuously.
    with pytest.raises(ValidationError):
        hierarchy_audit([], swap_pair(bell_family), bell_family.dims)


@pytest.mark.parametrize("samples", [1, 1025, 2500])
def test_predual_audit_pairs_every_sample_with_every_endpoint(
        params01, samples, monkeypatch):
    # The product check works in chunks of samples. The worst sample is
    # put last, so a chunk edge that drops a sample changes min_value.
    V = random_product_vectors(params01.dims, samples, seed=7)
    gens = npm_endpoint_generators(params01)
    pairings = [min(np.vdot(v, N @ v).real for N in gens) for v in V]
    V = np.concatenate([np.delete(V, np.argmin(pairings), axis=0),
                        V[[np.argmin(pairings)]]])
    monkeypatch.setattr(pses, "random_product_vectors", lambda *args: V)
    rep = predual_audit(params01, product_samples=samples)
    value = rep.checks["product_state_nonnegativity"]["min_value"]
    assert value == pytest.approx(min(pairings), abs=1e-14)


def test_predual_audit_needs_a_product_sample(params01):
    with pytest.raises(ValidationError):
        predual_audit(params01, product_samples=0)


def test_distance_upper_bound(params01):
    sigma = random_max_entangled_state(2, seed=5)
    dist, rho0 = distance_upper_bound(params01, sigma, restarts=8)
    assert dist == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert dist <= eps_of_r(0.1)
    assert np.trace(rho0).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("r", [0.1, 5.0])
def test_isotropic_fidelity_closed_form_matches_the_ascent(m, r):
    # <phi|rho0|phi> is linear in f = |<phi|sigma>|^2, which spans [0, 1]
    # over maximally entangled phi.
    dims = BipartiteDims(m, m)
    D = dims.total
    sigma = random_max_entangled_state(m, seed=m)
    a = 1.0 / (2.0 * r + 1.0)
    rho0 = a * sigma + (1.0 - a) * (np.eye(D) - sigma) / (D - 1.0)
    lower, upper, _ = max_entangled_fidelity(rho0, dims)
    closed = max(a, (1.0 - a) / (D - 1.0))
    assert lower - 1e-8 <= closed <= upper + 1e-8
    assert lower == pytest.approx(closed, abs=1e-8)


def test_distance_upper_bound_raises_past_the_fidelity_level(bell_family):
    # 2r + 1 > D: the best maximally entangled fidelity exceeds a.
    params = PsesParams(family_set=swap_pair(bell_family), r=2.0,
                        dims=bell_family.dims)
    with pytest.raises(ValidationError, match="fidelity"):
        distance_upper_bound(params, random_max_entangled_state(2, seed=5))


def test_distance_upper_bound_rejects_bad_sigma(params01):
    with pytest.raises(ValidationError):
        distance_upper_bound(params01, np.eye(4) / 4)


def test_dist_example(bell_family):
    meas, states, overlap = dist_example(0.1, bell_family)
    assert overlap == pytest.approx(overlap_closed_form(0.1), abs=1e-12)
    assert overlap == pytest.approx(0.1527778, abs=1e-7)
    M1, M2 = meas
    rho1, rho2 = states
    gram = np.array([[trace_inner(rho1, M1), trace_inner(rho1, M2)],
                     [trace_inner(rho2, M1), trace_inner(rho2, M2)]])
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_deformation_pair_sums_to_identity_on_generalized_bell(m):
    # N(r) + N_swap(r) = I on [0, r0]: dist_example's effects form a
    # measurement by this algebra alone.
    fam = generalized_bell(m)
    swapped, eye = swap_family(fam), np.eye(m * m)
    for r in np.linspace(0.0, r0(fam.dims), 200):
        total = npm_element(r, fam) + npm_element(r, swapped)
        assert np.max(np.abs(total - eye)) <= 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_dist_example_effects_are_the_r_endpoints(m):
    fam = generalized_bell(m)
    (M1, M2), _, _ = dist_example(0.1, fam)
    cone = PsesParams(family_set=swap_pair(fam), r=0.1, dims=fam.dims).cone
    assert np.array_equal(M1, cone.generators[1])
    assert np.array_equal(M2, cone.generators[3])


def test_dist_example_small_r_nearly_orthogonal(bell_family):
    _, _, overlap = dist_example(1e-6, bell_family)
    assert overlap < 1e-5


def test_dist_example_range(bell_family):
    with pytest.raises(ValidationError):
        dist_example(0.3, bell_family)


def test_overlap_eps_relation():
    rel = overlap_eps_relation(eps_of_r(0.1))
    assert rel["overlap"] == pytest.approx(0.1527778, abs=1e-7)
    assert rel["rederived_matches"]
    assert not rel["printed_matches"]
    assert rel["rederived_bound"] == pytest.approx(rel["overlap"], abs=1e-12)
    for eps in np.linspace(0.05, 1.9, 9):
        rel = overlap_eps_relation(eps)
        assert rel["rederived_matches"]


def test_self_duality_verifier_cases(bell_family, params01):
    params0 = PsesParams(family_set=swap_pair(bell_family), r=0.0,
                         dims=bell_family.dims)
    ok_rep = self_duality_verifier(npm_endpoint_generators(params0), params0,
                                   samples=30)
    assert ok_rep.ok

    deformed = self_duality_verifier(npm_endpoint_generators(params01),
                                     params01, samples=30)
    assert deformed.ok

    missing = self_duality_verifier(npm_endpoint_generators(params0),
                                    params01, samples=10)
    assert not missing.ok
    assert not missing.checks["sandwich"]["ok"]

    bad = npm_endpoint_generators(params01) + [np.diag([1.0, -2, 0, 0])]
    gram_fail = self_duality_verifier(bad, params01, samples=5)
    assert not gram_fail.checks["candidate_gram"]["ok"]

    with pytest.raises(ValidationError):
        self_duality_verifier([], params01)


def test_hierarchy_witness_is_conic_infeasible(bell_family):
    gens = npm_endpoint_generators(
        PsesParams(family_set=swap_pair(bell_family), r=0.1,
                   dims=bell_family.dims))
    witness = npm_element(0.2, bell_family)
    assert conic_feasibility(witness, gens, (identity,)).status == OUT


def test_meop_family_validation_rejects_bad_sets(bell_family):
    with pytest.raises(ValidationError):
        MeopFamily(dims=bell_family.dims,
                   projectors=bell_family.projectors[:3])
    prod = np.zeros((4, 4), dtype=complex)
    prod[0, 0] = 1.0
    broken = [prod] + [P.copy() for P in bell_family.projectors[1:]]
    with pytest.raises(ValidationError):
        MeopFamily(dims=bell_family.dims, projectors=broken)
    # Four 9x9 projectors are not a 2x2 family.
    with pytest.raises(ValidationError, match="size 4"):
        MeopFamily(dims=bell_family.dims,
                   projectors=generalized_bell(3).projectors[:4])


@pytest.mark.parametrize("change, message", [
    (lambda P: [np.diag(e) for e in np.eye(4)], "maximally entangled"),
    (lambda P: [(P[0] + P[1]) / 2, (P[0] + P[1]) / 2, *P[2:]],
     "trace-orthonormal"),
    (lambda P: [-P[0], *P[1:]], "resolve the identity"),
])
def test_a_non_meop_set_raises_at_construction(bell_family, change, message):
    with pytest.raises(ValidationError, match=message):
        MeopFamily(dims=bell_family.dims,
                   projectors=change(list(bell_family.projectors)))


@pytest.mark.parametrize("r", [-0.1, np.nan, np.inf])
def test_pses_params_reject_r_that_is_not_finite_and_nonnegative(
        bell_family, r):
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        PsesParams(family_set=swap_pair(bell_family), r=r,
                   dims=bell_family.dims)


@pytest.mark.parametrize("r", [np.nan, np.inf])
def test_r_and_lambda_that_are_not_finite_are_rejected(bell_family, r):
    with pytest.raises(ValidationError, match="finite"):
        npm_element(r, bell_family)
    with pytest.raises(ValidationError, match="finite"):
        eps_of_r(r)
    for r_list in ([r, 0.1], [0.2, r]):
        with pytest.raises(ValidationError, match="finite"):
            hierarchy_audit(r_list, swap_pair(bell_family), bell_family.dims)


def test_self_duality_verifier_rejects_candidates_of_another_size(params01):
    # Four 9x9 candidates do not live on the 2x2 system.
    with pytest.raises(ValidationError, match="size 4"):
        self_duality_verifier(generalized_bell(3).projectors[:4], params01)


def test_pses_params_reject_families_of_other_dims(bell_family):
    fam3 = generalized_bell(3)
    for families, dims in ((swap_pair(bell_family), fam3.dims),
                           ([bell_family, fam3], bell_family.dims)):
        with pytest.raises(ValidationError, match="dims"):
            PsesParams(family_set=families, r=0.1, dims=dims)


def test_pses_params_and_families_are_frozen(bell_family, params01):
    # params.cone is built from r once, so r cannot change under it.
    with pytest.raises(dataclasses.FrozenInstanceError):
        params01.r = 0.3
    with pytest.raises(dataclasses.FrozenInstanceError):
        params01.cone.generators = []
    with pytest.raises(dataclasses.FrozenInstanceError):
        bell_family.projectors = []
    wider = dataclasses.replace(params01, r=0.3)
    assert np.allclose(wider.cone.generators[1], npm_element(0.3, bell_family))
    assert np.allclose(params01.cone.generators[1],
                       npm_element(0.1, bell_family))


@pytest.mark.parametrize("build", [
    lambda fam: ConeRep(generators=[np.eye(4), npm_element(0.1, fam)]),
    lambda fam: GptModel(ConeRep(dim=4), np.eye(4)),
    lambda fam: MeopFamily(dims=fam.dims, projectors=fam.projectors),
    lambda fam: PsesParams(family_set=swap_pair(fam), r=0.1, dims=fam.dims),
], ids=["ConeRep", "GptModel", "MeopFamily", "PsesParams"])
def test_value_types_compare_and_hash_by_identity(build, bell_family):
    # Equal values would otherwise compare arrays with == and raise.
    a, b = build(bell_family), build(bell_family)
    assert (a == b) is False and a == a
    assert {a: "a", b: "b"}[a] == "a"


def test_a_pses_cannot_go_stale(bell_family, params01):
    with pytest.raises(AttributeError):
        params01.family_set.append(generalized_bell(2))
    assert len(params01.cone.generators) == 4
    assert len(npm_endpoint_generators(params01)) == 4
    mine = [P.copy() for P in bell_family.projectors]
    fam = MeopFamily(dims=bell_family.dims, projectors=mine)
    with pytest.raises(ValueError, match="read-only"):
        fam.projectors[0][0, 0] = 5.0
    mine[0][0, 0] = 5.0  # the caller's arrays stay writable
    assert np.trace(npm_element(0.1, fam)).real == pytest.approx(2.0, abs=1e-12)

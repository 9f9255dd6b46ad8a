import numpy as np
import pytest

from gptcone.cones import (
    CLASSICAL_ORTHANT,
    PSD,
    SEP,
    ConeRep,
    make_named_cone,
    membership,
)
from gptcone.fixtures import appendix_states
from gptcone.herm import BipartiteDims, ValidationError, trace_inner
from gptcone.pses import generalized_bell, npm_element
from gptcone.sampling import random_separable_state
from gptcone.symmetry import (
    GLOBAL_UNITARY,
    LOCAL_UNITARY,
    LOCAL_WITH_TRANSPOSE,
    SWAP_FACTORS,
    TransformSpec,
    gu_falsifier,
    orbit_invariance_check,
    two_symmetry_counterexample,
)
from gptcone.verdict import IN, OUT, UNKNOWN


def test_transform_spec_validation():
    with pytest.raises(ValidationError):
        TransformSpec("made-up", BipartiteDims(2, 2))
    with pytest.raises(ValidationError):
        TransformSpec(SWAP_FACTORS, BipartiteDims(2, 3))


def test_sampled_maps_preserve_spectrum():
    rng = np.random.default_rng(3)
    dims = BipartiteDims(2, 2)
    x = np.diag([0.7, 0.2, -0.3, 0.1]).astype(complex)
    for kind in (GLOBAL_UNITARY, LOCAL_UNITARY, SWAP_FACTORS):
        f = TransformSpec(kind, dims).sample(rng)
        y = f(x)
        assert np.allclose(np.linalg.eigvalsh(y), np.linalg.eigvalsh(x),
                           atol=1e-10)


def test_transpose_maps_preserve_trace_norms():
    rng = np.random.default_rng(4)
    dims = BipartiteDims(2, 2)
    f = TransformSpec(LOCAL_WITH_TRANSPOSE, dims).sample(rng)
    x = random_separable_state(dims, seed=9)
    y = f(x)
    assert np.trace(y).real == pytest.approx(1.0, abs=1e-10)
    assert trace_inner(y, y) == pytest.approx(trace_inner(x, x), abs=1e-10)


def test_separable_cone_orbit_invariance(dims22):
    cone = ConeRep(dim=4, oracle=SEP, dims=dims22)
    # Decisive elements only: a state deep inside the Gurvits ball (In)
    # and an entangled projector caught by partial transposition (Out);
    # generic separable states hit the honest Unknown tier and are skipped.
    bell = np.zeros((4, 4), dtype=complex)
    v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2.0)
    bell += np.outer(v, v)
    elements = [np.eye(4, dtype=complex) / 4
                + 0.01 * np.diag([1.0, -1.0, 1.0, -1.0]),
                bell]
    for kind in (LOCAL_UNITARY, LOCAL_WITH_TRANSPOSE, SWAP_FACTORS):
        rep = orbit_invariance_check(cone, TransformSpec(kind, dims22),
                                     elements)
        assert rep["invariant"]
        assert rep["checked"] > 0


def test_psd_global_orbit_invariance(dims22):
    cone = ConeRep(dim=4, oracle=PSD, dims=dims22)
    elements = [np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)]
    rep = orbit_invariance_check(cone, TransformSpec(GLOBAL_UNITARY, dims22),
                                 elements)
    assert rep["invariant"]


def test_orthant_global_orbit_invariance_fails(dims22):
    # A global unitary rotates diag(1, 0, 0, 0) off the diagonal.
    cone = make_named_cone(CLASSICAL_ORTHANT, dim=4)
    rep = orbit_invariance_check(cone, TransformSpec(GLOBAL_UNITARY, dims22),
                                 [np.diag([1.0, 0, 0, 0])])
    assert not rep["invariant"]
    assert (rep["violation"]["before"], rep["violation"]["after"]) == (IN, OUT)
    assert rep["checked"] == 1


def test_orbit_invariance_skips_unknown_elements():
    dims = BipartiteDims(3, 3)
    cone = ConeRep(dim=9, oracle=SEP, dims=dims)
    rho = random_separable_state(dims, seed=0)
    v = membership(cone, rho)
    assert (v.status, v.tier) == (UNKNOWN, "ppt")
    rep = orbit_invariance_check(cone, TransformSpec(LOCAL_UNITARY, dims),
                                 [rho])
    assert rep["invariant"]
    assert (rep["skipped"], rep["checked"]) == (1, 0)


def test_gu_falsifier_on_partial_transpose(bell_state, dims22):
    from gptcone.herm import partial_transpose

    x = partial_transpose(bell_state, dims22)
    out = gu_falsifier(x, dims22)
    assert out["value"] == pytest.approx(-0.5, abs=1e-9)
    assert trace_inner(out["product_state"], out["transformed_element"]) == \
        pytest.approx(out["value"], abs=1e-9)
    a, b = out["product_factors"]
    v = np.kron(a, b)
    assert np.allclose(out["product_state"], np.outer(v, v.conj()), atol=1e-9)


def test_gu_falsifier_on_deformed_generator(dims22):
    fam = generalized_bell(2)
    x = npm_element(0.1, fam)
    out = gu_falsifier(x, dims22)
    assert out["value"] == pytest.approx(-0.1, abs=1e-9)


def test_gu_falsifier_rejects_psd(dims22):
    with pytest.raises(ValidationError):
        gu_falsifier(np.eye(4, dtype=complex) / 4, dims22)


def test_two_symmetry_counterexample():
    out = two_symmetry_counterexample(samples=200)
    assert out["pair_one_overlap"] == pytest.approx(0.25, abs=1e-10)
    assert out["pair_two_overlap"] == pytest.approx(0.0, abs=1e-10)
    assert out["invariance_violation"] <= 1e-10
    assert not out["equivalent"]


def test_two_symmetry_pair_one_is_the_appendix_pair():
    out = two_symmetry_counterexample(samples=10)
    assert out["pair_one_overlap"] == trace_inner(*appendix_states()[:2]) == 0.25

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gptcone import dual
from gptcone.cones import (
    CLASSICAL_ORTHANT,
    CS_NEG,
    PSD,
    SEP_DUAL,
    SHRUNK_BLOCH,
    ConeRep,
    make_named_cone,
    membership,
)
from gptcone.discrimination import (
    arai_criterion,
    entropy_example_audit,
    err_of_measurement,
    helstrom,
    min_error_over_cone,
    perfectly_distinguishable,
    sco_param_of_t,
    yah_region,
)
from gptcone.dovm import classify, preceding_measurement
from gptcone.herm import BipartiteDims, ValidationError, norm, trace_inner
from gptcone.pses import (
    PsesParams,
    dist_example,
    generalized_bell,
    swap_pair,
)
from gptcone.sampling import random_pure_state, random_state
from gptcone.verdict import IN


def test_helstrom_orthogonal_pure_states():
    rho1 = np.diag([1.0, 0.0]).astype(complex)
    rho2 = np.diag([0.0, 1.0]).astype(complex)
    val, meas = helstrom(rho1, rho2)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert err_of_measurement(rho1, rho2, meas.effects) == pytest.approx(
        0.0, abs=1e-12)


def test_helstrom_identical_states():
    rho = np.eye(2, dtype=complex) / 2
    val, _ = helstrom(rho, rho)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_helstrom_value_formula():
    rng = np.random.default_rng(0)
    a, b = random_state(3, rng), random_state(3, rng)
    val, meas = helstrom(a, b)
    assert val == pytest.approx(1.0 - 0.5 * norm(a - b, "trace"), abs=1e-9)
    assert err_of_measurement(a, b, meas.effects) == pytest.approx(val, abs=1e-9)


def test_helstrom_zero_iff_orthogonal_pure():
    rng = np.random.default_rng(1)
    for k in range(5):
        r1, r2 = random_pure_state(3, 2 * k), random_pure_state(3, 2 * k + 1)
        val, _ = helstrom(r1, r2)
        overlap = trace_inner(r1, r2)
        assert (val <= 1e-9) == (overlap <= 1e-9)


def test_error_success_identity():
    rng = np.random.default_rng(2)
    a, b = random_state(4, rng), random_state(4, rng)
    _, meas = helstrom(a, b)
    m1, m2 = meas.effects
    err = err_of_measurement(a, b, meas.effects)
    succ = trace_inner(a, m1) + trace_inner(b, m2)
    assert succ == pytest.approx(2.0 - err, abs=1e-9)


def test_min_error_over_cone_psd_matches_helstrom():
    cone = make_named_cone(PSD, dim=4)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = random_state(4, rng), random_state(4, rng)
        hval, _ = helstrom(a, b)
        cval, meas = min_error_over_cone(a, b, cone)
        assert cval == pytest.approx(hval, abs=1e-6)
        assert np.allclose(meas.effects[0] + meas.effects[1], np.eye(4),
                           atol=1e-8)


def test_a_cone_without_a_tag_is_psd_plus_its_generators():
    # One ConeRep names one cone: the effects that min_error_over_cone
    # returns over PSD + cone(diag(1, 0)) are members of that cone.
    cone = ConeRep(dim=2, generators=[np.diag([1.0, 0.0])])
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    err, meas = min_error_over_cone(plus, minus, cone)
    assert err <= 1e-8
    for m in meas.effects:
        assert membership(cone, m).status == IN
    assert cone.oracle == ConeRep(dim=2).oracle == PSD


def test_min_error_over_cone_antitone_in_generators():
    # Adding generators can only help (never increases the error).
    rng = np.random.default_rng(4)
    base = [np.diag([1.0, 0, 0, 0]).astype(complex),
            np.diag([0, 1.0, 0, 0]).astype(complex),
            np.diag([0, 0, 1.0, 0]).astype(complex),
            np.diag([0, 0, 0, 1.0]).astype(complex)]
    extra = base + [random_pure_state(4, 9)]
    small = ConeRep(dim=4, generators=base, oracle=CLASSICAL_ORTHANT)
    big = ConeRep(dim=4, generators=extra, oracle=None)
    for k in range(5):
        a, b = random_state(4, rng), random_state(4, rng)
        e_small, _ = min_error_over_cone(a, b, small)
        e_big, _ = min_error_over_cone(a, b, big)
        assert e_big <= e_small + 1e-7


def _cr_params(m, r):
    fam = generalized_bell(m)
    return fam, PsesParams(family_set=swap_pair(fam), r=r, dims=fam.dims)


@pytest.mark.parametrize("m", [2, 3])
def test_min_error_over_cone_dist_example(m):
    # The non-orthogonal pair fails the Helstrom tier, so it is solved:
    # C_r discriminates it perfectly, below Helstrom's error, and the
    # returned effects are exactly Hermitian.
    fam, params = _cr_params(m, 0.1)
    _, (rho1, rho2), _ = dist_example(0.1, fam)
    hval, _ = helstrom(rho1, rho2)
    cval, meas = min_error_over_cone(rho1, rho2, params.cone)
    m1, m2 = meas.effects
    assert hval == pytest.approx(0.0796, abs=1e-4)
    assert abs(cval) <= 1e-8
    assert np.max(np.abs(m1 + m2 - np.eye(m * m))) <= 1e-8
    assert np.array_equal(m1, m1.conj().T) and np.array_equal(m2, m2.conj().T)
    assert err_of_measurement(rho1, rho2, meas) == pytest.approx(cval,
                                                                 abs=1e-8)


def test_min_error_over_cone_reports_a_solve_that_does_not_converge(
        monkeypatch):
    # Helstrom's dual point fails on dist_example's pair, so it is solved.
    fam, params = _cr_params(2, 0.1)
    _, (rho1, rho2), _ = dist_example(0.1, fam)
    monkeypatch.setattr(dual, "_MAX_ITER", 1)
    with pytest.raises(ValidationError, match="did not converge"):
        min_error_over_cone(rho1, rho2, params.cone)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("r", [0.1, 0.3])
def test_helstrom_tier_answers_random_pairs_in_c_r_without_a_solve(
        m, r, monkeypatch):
    # Both parts of c = rho2 - rho1 clear every endpoint, so -c_- is a
    # dual point of Helstrom's value and Helstrom's projectors are optimal.
    _, params = _cr_params(m, r)
    monkeypatch.setattr(dual, "_solve", None)  # any solve would raise
    rng = np.random.default_rng(10 * m + int(10 * r))
    for _ in range(3):
        a, b = random_state(m * m, rng), random_state(m * m, rng)
        w, V = np.linalg.eigh(b - a)
        for sign in (1.0, -1.0):
            part = (V * np.maximum(sign * w, 0.0)) @ V.conj().T
            assert min(trace_inner(g, part)
                       for g in params.cone.generators) >= 0.0
        hval, hmeas = helstrom(a, b)
        cval, meas = min_error_over_cone(a, b, params.cone)
        assert cval == pytest.approx(hval, abs=1e-12)
        for m_c, m_h in zip(meas.effects, hmeas.effects):
            assert np.allclose(m_c, m_h, atol=1e-10)
            assert membership(params.cone, m_c).status == IN


def test_min_error_restricted_cone_at_least_helstrom():
    gens = [np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)]
    cone = ConeRep(dim=2, generators=gens, oracle=CLASSICAL_ORTHANT)
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b = random_state(2, rng), random_state(2, rng)
        hval, _ = helstrom(a, b)
        cval, _ = min_error_over_cone(a, b, cone)
        assert cval >= hval - 1e-8


@pytest.mark.parametrize("d", [2, 4, 6])
def test_orthant_effect_cone_error_is_the_diagonal_distance(d):
    # Orthant effects are diagonal, so only the diagonals can be told apart.
    rng = np.random.default_rng(d)
    a, b = random_state(d, rng), random_state(d, rng)
    cone = make_named_cone(CLASSICAL_ORTHANT, dim=d)
    cval, meas = min_error_over_cone(a, b, cone)
    assert cval == pytest.approx(1.0 - 0.5 * np.sum(np.abs(np.diag(a - b))),
                                 abs=1e-9)
    for m in meas.effects:
        assert np.allclose(m, np.diag(np.diag(m)), atol=1e-9)


def test_orthant_plus_a_generator_errs_no_more_than_the_orthant():
    rng = np.random.default_rng(6)
    g = random_pure_state(3, 9)
    orthant = make_named_cone(CLASSICAL_ORTHANT, dim=3)
    hull = make_named_cone(CLASSICAL_ORTHANT, dim=3, generators=[g])
    for _ in range(5):
        a, b = random_state(3, rng), random_state(3, rng)
        cval, meas = min_error_over_cone(a, b, hull)
        assert cval <= min_error_over_cone(a, b, orthant)[0] + 1e-8
        assert np.allclose(sum(meas.effects), np.eye(3), atol=1e-8)


@pytest.mark.parametrize("tag", [SEP_DUAL, CS_NEG, SHRUNK_BLOCH])
def test_effect_cones_without_a_conic_program_are_rejected(tag):
    # SEP_DUAL has a program up to dA dB = 6 (decomposability).
    dims = BipartiteDims(3, 3) if tag == SEP_DUAL else BipartiteDims(2, 2)
    if tag == SHRUNK_BLOCH:
        cone = make_named_cone(tag, params={"p": 0.5}, dim=2)
    else:
        cone = make_named_cone(tag, params={"s": 0.1}, dims=dims)
    rng = np.random.default_rng(8)
    a, b = random_state(cone.dim, rng), random_state(cone.dim, rng)
    with pytest.raises(ValidationError, match=tag):
        min_error_over_cone(a, b, cone)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sep_dual_effect_cone_error_matches_arai_criterion(seed):
    # Pure product pairs are perfectly distinguishable by block-positive
    # effects exactly when Tr rhoA1 rhoA2 + Tr rhoB1 rhoB2 <= 1.
    rng = np.random.default_rng(seed)
    a1, b1, a2, b2 = (random_pure_state(2, rng) for _ in range(4))
    ok, lhs = arai_criterion(a1, b1, a2, b2)
    assume(abs(lhs - 1.0) > 0.05)
    cone = make_named_cone(SEP_DUAL, dims=BipartiteDims(2, 2))
    cval, meas = min_error_over_cone(np.kron(a1, b1), np.kron(a2, b2), cone)
    assert (cval <= 1e-7) == ok
    assert cval >= -1e-7
    assert np.allclose(sum(meas.effects), np.eye(4), atol=1e-9)


def test_perfectly_distinguishable(e_pair, entropy_quartet):
    rho1, rho2, sigma1, sigma2 = entropy_quartet
    assert perfectly_distinguishable([rho1, rho2], list(e_pair))
    p1 = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert not perfectly_distinguishable([rho1, rho2],
                                         [p1, np.eye(4) - p1])


def test_a_dovm_is_a_measurement(e_dovm, entropy_quartet):
    rho1, rho2, _, _ = entropy_quartet
    assert err_of_measurement(rho1, rho2, e_dovm) == pytest.approx(0.0,
                                                                   abs=1e-12)
    assert perfectly_distinguishable([rho1, rho2], e_dovm)


def test_arai_criterion():
    up, dn = np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)
    # Same local pairs on both sides: lhs = 2 > 1 -> criterion fails.
    ok, lhs = arai_criterion(up, up, up, up)
    assert not ok and lhs == pytest.approx(2.0, abs=1e-12)
    # Orthogonal local supports: lhs = 0 <= 1 -> criterion holds.
    ok, lhs = arai_criterion(up, up, dn, dn)
    assert ok and lhs == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        arai_criterion(np.eye(2) / 2, up, dn, dn)  # mixed input


def test_yah_region():
    # x = y = 1/2 at the extreme negativity parameter is attainable.
    assert yah_region(0.5, 0.5, "NEG", s=0.25)
    assert not yah_region(0.9, 0.9, "NEG", s=0.1)
    assert yah_region(0.5, 0.5, "SCO", t=1.0)
    with pytest.raises(ValidationError):
        yah_region(0.5, 0.5, "BOGUS", s=0.1)


def test_sco_param_of_t():
    assert sco_param_of_t(1.0) == pytest.approx(0.5)
    assert sco_param_of_t(0.0) == pytest.approx(0.0)


def test_preceding_measurement_valid_point():
    dovm = preceding_measurement(0.9, 0.4, beta1=0.6, beta2=0.2)
    assert classify(dovm).tag == "BQ"


def test_preceding_measurement_invalid_point_rejected():
    with pytest.raises(ValidationError):
        preceding_measurement(0.6, 0.8, beta1=0.8, beta2=0.6)


def test_preceding_measurement_alpha_range():
    with pytest.raises(ValidationError):
        preceding_measurement(0.0, 0.5, beta1=0.1, beta2=0.1)


def test_entropy_example_audit():
    rep = entropy_example_audit()
    assert rep["pass"]
    assert rep["decomposition_residual"] <= 1e-12
    assert rep["entropy_first_bits"] == pytest.approx(0.9182958, abs=1e-6)
    assert rep["entropy_second_bits"] == pytest.approx(0.7440, abs=5e-4)
    assert rep["entropy_gap_bits"] > 0.17


def test_states_of_different_sizes_are_rejected():
    with pytest.raises(ValidationError):
        helstrom(np.eye(4) / 4, np.eye(6) / 6)
    with pytest.raises(ValidationError):
        err_of_measurement(np.eye(4) / 4, np.eye(6) / 6,
                           [np.eye(4), np.zeros((4, 4))])
    cone = make_named_cone(PSD, dim=4)
    with pytest.raises(ValidationError):
        min_error_over_cone(np.eye(6) / 6, np.eye(6) / 6, cone)

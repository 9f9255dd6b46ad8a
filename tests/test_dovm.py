import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptcone.cones import (
    SEP,
    SEP_DUAL,
    Measurement,
    MeasurementValidationError,
    gurvits_ball_contains,
    make_named_cone,
    membership,
    sep_model,
)
from gptcone.dovm import (
    AQ,
    BQ,
    NAQ,
    POVM,
    TOL,
    Dovm,
    aq_advantage_states,
    aq_from_subcone_witness,
    bq_witness_states,
    classify,
    random_dovm,
)
from gptcone.herm import BipartiteDims, ValidationError, partial_transpose, trace_inner
from gptcone.sampling import haar_unitary
from gptcone.verdict import IN, OUT, UNKNOWN, MembershipVerdict


def _commuting_dovm(diag):
    m1 = np.diag(np.asarray(diag, dtype=complex))
    ev = (MembershipVerdict(UNKNOWN, tier="given"),) * 2
    return Dovm(m1=m1, m2=np.eye(len(diag)) - m1, dims=BipartiteDims(2, 2),
                block_positivity_evidence=ev)


def test_classify_appendix_fixture(e_dovm):
    cls = classify(e_dovm)
    assert cls.tag == BQ
    assert cls.spectrum_summary[cls.deciding_effect][0] == pytest.approx(-0.5)
    assert cls.spectrum_summary[cls.deciding_effect][1] == pytest.approx(1.5)


def test_classify_aq_commuting_example():
    dovm = _commuting_dovm([0.95, -0.1, 0.5, 0.4])
    assert classify(dovm).tag == AQ


def test_classify_povm():
    dovm = _commuting_dovm([0.3, 0.7, 0.5, 0.2])
    assert classify(dovm).tag == POVM


def test_classify_naq():
    dovm = _commuting_dovm([0.8, -0.1, 0.5, 0.4])
    assert classify(dovm).tag == NAQ


def test_classify_boundary_resolves_to_bq():
    dovm = _commuting_dovm([1.0, -0.2, 0.5, 0.4])
    assert classify(dovm).tag == BQ


@given(st.floats(1e-8, 0.9), st.floats(0.0, 1.0),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_classify_class_boundaries(a, t, mid):
    def tag(top, bottom):
        # First effect spectrum: top, bottom and two values between them.
        inner = [bottom + s * (top - bottom) for s in mid]
        return classify(_commuting_dovm([top, bottom, *inner])).tag

    assert tag(1.0 - t * TOL, -a) == BQ  # lambda_max in [1 - TOL, 1]
    assert tag(1.0 - a, -a) == NAQ  # width exactly 1
    assert tag(1.0 - a + 2.0 * TOL, -a) == AQ  # width 1 + 2 TOL
    assert tag(t, -TOL / 2.0) == POVM  # lambda_min = -TOL / 2


def test_classify_invariant_under_swap_and_unitary(e_pair, dims22):
    e1, e2 = e_pair
    swapped = Dovm(m1=e2, m2=e1, dims=dims22)
    assert classify(swapped).tag == BQ
    U = haar_unitary(4, 5)
    ev = (MembershipVerdict(UNKNOWN, tier="given"),) * 2
    rotated = Dovm(m1=U @ e1 @ U.conj().T, m2=U @ e2 @ U.conj().T,
                   dims=dims22, block_positivity_evidence=ev)
    assert classify(rotated).tag == BQ


def test_dovm_rejects_bad_sum(dims22):
    with pytest.raises(MeasurementValidationError, match="sum to the unit"):
        Dovm(m1=np.eye(4), m2=np.eye(4), dims=dims22)


def test_dovm_rejects_non_blockpositive(dims22, bell_state, e_pair):
    bad = bell_state - 0.5 * np.eye(4)
    with pytest.raises(MeasurementValidationError,
                       match="effect 0 is outside the dual cone") as exc:
        Dovm(m1=bad, m2=np.eye(4) - bad, dims=dims22)
    assert exc.value.index == 0 and exc.value.verdict.status == OUT
    # Given evidence with an Out is rejected the same way.
    ev = (MembershipVerdict(IN, tier="given"),
          MembershipVerdict(OUT, margin=-1.0, tier="given"))
    with pytest.raises(MeasurementValidationError) as exc:
        Dovm(m1=e_pair[0], m2=e_pair[1], dims=dims22, block_positivity_evidence=ev)
    assert exc.value.index == 1 and exc.value.verdict is ev[1]


@pytest.mark.parametrize("count", [0, 1, 3])
def test_dovm_needs_one_verdict_per_effect(dims22, bell_state, count):
    # Evidence of the wrong length would leave an effect unchecked: here
    # the first effect, Phi - I/2, is outside the dual cone.
    bad = bell_state - 0.5 * np.eye(4)
    assert membership(make_named_cone(SEP_DUAL, dims=dims22), bad).status == OUT
    ev = (MembershipVerdict(IN, tier="given"),) * count
    with pytest.raises(MeasurementValidationError,
                       match=f"{count} dual-cone verdicts for 2 effects"):
        Dovm(m1=bad, m2=np.eye(4) - bad, dims=dims22,
             block_positivity_evidence=ev)


def test_a_dovm_is_a_measurement_of_the_sep_model(e_dovm, e_pair, dims22):
    assert isinstance(e_dovm, Measurement)
    assert e_dovm.model.cone.oracle == SEP
    assert e_dovm.dims == e_dovm.model.cone.dims == dims22
    assert e_dovm.model is sep_model(dims22)
    assert e_dovm.m1 is e_dovm.effects[0] and e_dovm.m2 is e_dovm.effects[1]
    np.testing.assert_allclose(e_dovm.m1, e_pair[0], atol=0)
    assert [v.status for v in e_dovm.block_positivity_evidence] == [IN, IN]


@pytest.mark.parametrize("build", [
    lambda e1, e2: Dovm(e1, e2, BipartiteDims(2, 2)),
    lambda e1, e2: Measurement([e1, e2], sep_model(BipartiteDims(2, 2))),
    lambda e1, e2: Measurement([e1, e2]),
], ids=["dovm", "sep-measurement", "model-free"])
def test_dovm_functions_take_any_two_outcome_measurement(build, e_dovm, e_pair):
    meas = build(*e_pair)
    assert classify(meas) == classify(e_dovm)
    for witness in (bq_witness_states, aq_advantage_states):
        *states, value = witness(meas)
        *expected, expected_value = witness(e_dovm)
        np.testing.assert_allclose(states, expected, atol=1e-12)
        assert value == pytest.approx(expected_value, abs=1e-12)


def test_classify_needs_exactly_two_effects(e_pair):
    e1, e2 = e_pair
    three = Measurement([e1, e2 / 2, e2 / 2])
    for f in (classify, bq_witness_states, aq_advantage_states):
        with pytest.raises(ValidationError, match="two effects"):
            f(three)
    with pytest.raises(ValidationError, match="two effects"):
        classify(Measurement([np.eye(4)]))


def test_bq_witness_states_fixture(e_dovm, e_pair):
    rho1, rho2, overlap = bq_witness_states(e_dovm)
    assert overlap == pytest.approx(0.75, abs=1e-9)
    e1, e2 = e_pair
    gram = np.array([[trace_inner(rho1, e1), trace_inner(rho1, e2)],
                     [trace_inner(rho2, e1), trace_inner(rho2, e2)]])
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-9
    for rho in (rho1, rho2):
        vals = np.linalg.eigvalsh(rho)
        assert vals[0] >= -1e-10
        assert np.sum(vals > 1e-10) == 1


def test_bq_witness_boundary_spectrum():
    dovm = _commuting_dovm([1.0, -0.25, 0.5, 0.5])
    rho1, rho2, overlap = bq_witness_states(dovm)
    gram = np.array([[trace_inner(rho1, dovm.m1), trace_inner(rho1, dovm.m2)],
                     [trace_inner(rho2, dovm.m1), trace_inner(rho2, dovm.m2)]])
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-9
    assert overlap > 0


def test_bq_witness_states_when_the_second_effect_decides(dims22):
    bq = random_dovm(dims22, seed=7, target=BQ)
    dovm = Dovm(m1=bq.m2, m2=bq.m1, dims=dims22)
    assert classify(dovm).deciding_effect == 1
    rho1, rho2, overlap = bq_witness_states(dovm)
    gram = np.array([[trace_inner(r, m) for m in dovm.effects]
                     for r in (rho1, rho2)])
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-9
    assert overlap > 0


def test_classify_accepts_a_measurement(e_pair):
    assert classify(Measurement(list(e_pair))).tag == BQ
    p = np.diag([1.0, 1.0, 0.0, 0.0])
    assert classify(Measurement([p, np.eye(4) - p])).tag == POVM


def test_bq_witness_rejects_non_bq():
    dovm = _commuting_dovm([0.3, 0.7, 0.5, 0.2])
    with pytest.raises(ValidationError):
        bq_witness_states(dovm)


def test_aq_advantage_fixture(e_dovm):
    rho1, rho2, margin = aq_advantage_states(e_dovm)
    assert margin == pytest.approx(1.0 / (np.sqrt(2.0) * 4.0), abs=1e-6)
    assert gurvits_ball_contains(rho1)
    assert gurvits_ball_contains(rho2)


def test_aq_advantage_rejects_naq():
    dovm = _commuting_dovm([0.8, -0.1, 0.5, 0.4])
    with pytest.raises(ValidationError):
        aq_advantage_states(dovm)


def test_aq_from_subcone_witness(bell_state, dims22):
    T = partial_transpose(bell_state, dims22)
    dovm = aq_from_subcone_witness(T, dims22)
    cls = classify(dovm)
    assert cls.tag == BQ
    k = cls.deciding_effect
    assert np.linalg.eigvalsh(dovm.effects[k])[-1] == pytest.approx(1.0,
                                                                    abs=1e-9)
    with pytest.raises(ValidationError):
        aq_from_subcone_witness(np.eye(4), dims22)
    with pytest.raises(ValidationError):
        aq_from_subcone_witness(-np.eye(4), dims22)


def test_random_dovm_partition(dims22):
    tags = set()
    for s in range(80):
        d = random_dovm(dims22, seed=s)
        cls = classify(d)
        assert cls.tag in (BQ, AQ, NAQ, POVM)
        tags.add(cls.tag)
    assert tags == {BQ, AQ, NAQ, POVM}


def test_random_dovm_targets(dims22):
    for target in (BQ, AQ, NAQ, POVM):
        for s in range(5):
            d = random_dovm(dims22, seed=100 + s, target=target)
            assert classify(d).tag == target


@pytest.mark.parametrize("target", ["bq", "QUANTUM", ""])
def test_random_dovm_rejects_unknown_targets(dims22, target):
    # Unknown names once fell through to the NAQ branch.
    with pytest.raises(ValidationError):
        random_dovm(dims22, seed=1, target=target)


@given(st.integers(0, 10_000), st.sampled_from([None, BQ, AQ, NAQ, POVM]),
       st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4)]))
@settings(max_examples=40, deadline=None)
def test_random_dovm_certificates_reverify(seed, target, split):
    dims = BipartiteDims(*split)
    dovm = random_dovm(dims, seed=seed, target=target)
    for m, v in zip(dovm.effects, dovm.block_positivity_evidence):
        assert v.status == IN
        if v.tier == "psd":
            assert np.linalg.eigvalsh(m)[0] >= -1e-12
        else:
            assert v.tier == "partial-transpose"
            W = v.witness
            assert np.linalg.eigvalsh(W)[0] >= -1e-12
            assert np.linalg.norm(partial_transpose(W, dims) - m) <= 1e-12


def test_dovm_effects_must_match_the_dims():
    with pytest.raises(ValidationError):
        Dovm(m1=np.eye(4) / 2, m2=np.eye(4) / 2, dims=BipartiteDims(2, 3))

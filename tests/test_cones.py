import json
import sys
from dataclasses import FrozenInstanceError
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptcone import herm
from gptcone.cones import (
    CLASSICAL_ORTHANT,
    CS_NEG,
    PSD,
    SEP,
    SEP_DUAL,
    SHRUNK_BLOCH,
    ConeRep,
    GptModel,
    Measurement,
    MeasurementValidationError,
    capacity_demo,
    dual_cone_membership,
    gurvits_ball_contains,
    make_named_cone,
    membership,
    min_product_expectation,
    sep_model,
    ses_model,
)
from gptcone.dovm import Dovm
from gptcone.dual import conic_feasibility, identity
from gptcone.herm import BipartiteDims, ValidationError, partial_transpose, trace_inner
from gptcone.pses import (
    PsesParams,
    cr_membership,
    generalized_bell,
    npm_element,
    npm_endpoint_generators,
    swap_pair,
)
from gptcone.io import cone_from_json, cone_to_json
from gptcone.sampling import random_herm, random_separable_state, random_state
from gptcone.simulability import domain_contains
from gptcone.verdict import IN, OUT, UNKNOWN


@pytest.fixture(scope="module")
def sep22():
    return make_named_cone(SEP, dims=BipartiteDims(2, 2))


@pytest.fixture(scope="module")
def sepdual22():
    return make_named_cone(SEP_DUAL, dims=BipartiteDims(2, 2))


def test_psd_membership_in_out():
    cone = make_named_cone(PSD, dim=3)
    assert membership(cone, np.eye(3)).status == IN
    v = membership(cone, np.diag([1.0, -0.5, 2.0]))
    assert v.status == OUT
    # Witness is a dual element pairing negatively with the input.
    assert trace_inner(v.witness, np.diag([1.0, -0.5, 2.0])) < 0


def test_classical_orthant_membership():
    cone = make_named_cone(CLASSICAL_ORTHANT, dim=3)
    assert membership(cone, np.diag([0.3, 0.0, 1.0])).status == IN
    assert membership(cone, np.diag([0.3, -0.1, 1.0])).status == OUT
    off = np.zeros((3, 3))
    off[0, 1] = off[1, 0] = 0.5
    assert membership(cone, off + np.eye(3)).status == OUT


def test_sep_gurvits_tier(sep22):
    # Slightly depolarized identity is certified by the separability ball.
    x = np.eye(4) * 0.25 + 0.01 * np.diag([1.0, -1.0, 1.0, -1.0])
    v = membership(sep22, x)
    assert v.status == IN


def test_sep_ppt_out_with_witness(sep22, bell_state, dims22):
    v = membership(sep22, bell_state)
    assert v.status == OUT
    assert v.tier == "ppt"
    # The PPT witness is block-positive and pairs negatively with the input.
    assert trace_inner(v.witness, bell_state) < -1e-9
    val, _, _ = min_product_expectation(v.witness, dims22, restarts=16)
    assert val >= -1e-9


def test_sep_unknown_is_honest(sep22, dims22):
    # A separable state outside the ball with PPT passing: Unknown allowed,
    # never Out.
    rho = random_separable_state(dims22, seed=3)
    assert membership(sep22, rho).status in (IN, UNKNOWN)


def test_sep_dual_tiers(sepdual22, bell_state, dims22):
    assert membership(sepdual22, np.eye(4)).status == IN
    assert membership(sepdual22, -np.eye(4)).status == OUT
    # Entanglement witness: block-positive but not PSD, decomposable at 2x2.
    w = partial_transpose(bell_state, dims22)
    assert membership(sepdual22, w).status == IN
    # Bell projector minus too much identity is not block-positive.
    v = membership(sepdual22, bell_state - 0.3 * np.eye(4))
    assert v.status == OUT
    ab = v.witness
    assert trace_inner(ab, bell_state - 0.3 * np.eye(4)) < -1e-9


def test_shrunk_bloch_membership():
    cone = make_named_cone(SHRUNK_BLOCH, dim=2, params={"p": 0.5})
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert membership(cone, pure).status == OUT
    v = membership(cone, 0.5 * pure + 0.25 * np.eye(2))
    assert v.status == IN
    out = membership(cone, pure)
    assert trace_inner(out.witness, pure) < 0


def test_shrunk_bloch_qubit_only():
    with pytest.raises(ValidationError):
        make_named_cone(SHRUNK_BLOCH, dim=3, params={"p": 0.5})
    with pytest.raises(ValidationError):
        make_named_cone(SHRUNK_BLOCH, dim=2, params={"p": 1.5})


def test_cs_neg_membership(bell_state, dims22):
    cone = make_named_cone(CS_NEG, dim=4, params={"s": 0.1}, dims=dims22)
    assert membership(cone, np.eye(4)).status in (IN, UNKNOWN)
    w = partial_transpose(bell_state, dims22)  # nege = 1/2, trace 1
    assert membership(cone, w).status == OUT
    big = make_named_cone(CS_NEG, dim=4, params={"s": 0.6}, dims=dims22)
    assert membership(big, w).status in (IN, UNKNOWN)


def test_gurvits_ball_contains():
    assert gurvits_ball_contains(np.eye(4))
    assert not gurvits_ball_contains(np.diag([2.0, 0.0, 0.0, 2.0]))


def test_min_product_expectation_matches_eigmin_on_product_ops(dims22):
    X = np.kron(np.diag([1.0, -0.5]), np.diag([1.0, 0.25]))
    val, a, b = min_product_expectation(X, dims22, restarts=16)
    assert val == pytest.approx(-0.5, abs=1e-9)
    ab = np.kron(a, b)
    assert np.real(np.vdot(ab, X @ ab)) == pytest.approx(val, abs=1e-9)


def test_dual_cone_membership_psd_self_dual():
    cone = make_named_cone(PSD, dim=3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = random_state(3, rng)
        assert dual_cone_membership(cone, x).status == IN
    assert dual_cone_membership(cone, -np.eye(3)).status == OUT


def test_dual_cone_membership_sep_is_blockpos(sep22, bell_state, dims22):
    w = partial_transpose(bell_state, dims22)
    assert dual_cone_membership(sep22, w).status in (IN, UNKNOWN)
    assert dual_cone_membership(sep22, -np.eye(4)).status == OUT


@pytest.mark.parametrize("weight,status,pairing", [
    (0.8, IN, 0.02), (0.9, OUT, -0.04)])
def test_hull_dual_verdict_bound_by_a_pairing_names_its_tier(
        weight, status, pairing):
    # x = w E_0 + (1 - w) I/4 is positive definite, yet pairs
    # -0.1 w + (1 - w)/2 with the Bell family's r = 0.1 endpoint, below
    # x's least eigenvalue (1 - w)/4: the pairing decides the dual verdict.
    fam = generalized_bell(2)
    params = PsesParams(swap_pair(fam), 0.1, fam.dims)
    x = weight * fam.projectors[0] + (1.0 - weight) * np.eye(4) / 4.0
    assert np.linalg.eigvalsh(x)[0] > pairing
    v = dual_cone_membership(params.cone, x)
    assert (v.status, v.tier) == (status, "generator-pairing")
    assert v.margin == pytest.approx(pairing, abs=1e-12)


def test_validate_measurement_povm_on_ses(dims22):
    model = ses_model(dims22)
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    effects = [p, np.eye(4) - p]
    meas = Measurement(effects, model)
    assert len(meas) == 2


def test_validate_measurement_rejects_nonpositive(dims22, e_pair):
    model = ses_model(dims22)
    e1, e2 = e_pair
    with pytest.raises(MeasurementValidationError) as exc:
        Measurement([e1, e2], model)
    assert exc.value.index == 0


def test_appendix_measurement_valid_on_sep_model(dims22, e_pair):
    # The beyond-quantum pair is a measurement for the separable model,
    # whose effect cone is the block-positive dual.
    model = sep_model(dims22)
    meas = Measurement(list(e_pair), model)
    assert len(meas) == 2


def test_validate_measurement_sum_check(dims22):
    model = ses_model(dims22)
    with pytest.raises(ValidationError):
        Measurement([np.eye(4), 0.5 * np.eye(4)], model)


def test_measurement_with_a_model_checks_itself(dims22):
    model = ses_model(dims22)
    with pytest.raises(MeasurementValidationError, match="empty"):
        Measurement([], model)
    p = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(MeasurementValidationError) as exc:
        Measurement([np.eye(4) + p, -p], model)
    assert exc.value.index == 1 and exc.value.verdict.status == OUT
    # Without a model the effects are taken as given.
    assert len(Measurement([np.eye(4) + p, -p])) == 2


def test_gpt_model_rejects_a_unit_outside_the_dual_interior():
    with pytest.raises(ValidationError, match="positive definite"):
        GptModel(make_named_cone(PSD, dim=2), np.diag([1.0, -1.0]))
    with pytest.raises(ValidationError, match="interior"):
        GptModel(ConeRep(dim=2, generators=[-np.eye(2)]), np.eye(2))
    # Every other tag checks its unit against its dual cone.
    with pytest.raises(ValidationError, match="outside the dual cone"):
        GptModel(make_named_cone(SEP, dims=BipartiteDims(2, 2)),
                 np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(ValidationError, match="outside the dual cone"):
        GptModel(make_named_cone(CLASSICAL_ORTHANT, dim=2), np.diag([1.0, -1.0]))


def test_gpt_model_reads_one_spectrum_of_a_psd_unit(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda x: calls.append(x) or eigvalsh(x))
    GptModel(ConeRep(dim=2, generators=[np.eye(2)]), np.eye(2))
    assert len(calls) == 1


@pytest.mark.parametrize("build", [sep_model, ses_model])
def test_each_model_is_built_once_and_cannot_change(build):
    model = build(BipartiteDims(2, 3))
    assert build(BipartiteDims(2, 3)) is model
    with pytest.raises(FrozenInstanceError):
        model.unit = np.eye(6)
    with pytest.raises(ValueError, match="read-only"):
        model.unit[0, 0] = 2.0
    assert model.unit[0, 0] == 1.0


def test_gpt_model_keeps_its_own_unit():
    unit = np.eye(2, dtype=complex)
    model = GptModel(make_named_cone(PSD, dim=2), unit)
    unit[0, 0] = 2.0  # the caller's array stays writable
    assert model.unit[0, 0] == 1.0


def test_cone_rep_infers_its_dimension():
    assert ConeRep(dims=BipartiteDims(2, 3)).dim == 6
    assert ConeRep(generators=[np.eye(3)]).dim == 3
    assert make_named_cone(SEP, dims=BipartiteDims(2, 2)).dim == 4
    with pytest.raises(ValidationError, match="dimension required"):
        ConeRep()
    with pytest.raises(ValidationError, match="dimension required"):
        make_named_cone(PSD)
    with pytest.raises(ValidationError, match="size 4"):
        ConeRep(dims=BipartiteDims(2, 2), generators=[np.eye(3)])


def test_min_product_expectation_rejects_non_finite_matrices(dims22):
    with pytest.raises(ValidationError, match="non-finite"):
        min_product_expectation(np.full((4, 4), np.nan), dims22)


def test_capacity_demo_sizes():
    for dA, dB in ((2, 2), (2, 3)):
        states, meas = capacity_demo(ses_model(BipartiteDims(dA, dB)))
        assert len(states) == dA * dB
        assert len(meas) == dA * dB
        gram = np.array([[trace_inner(s, m) for m in meas.effects]
                         for s in states])
        assert np.max(np.abs(gram - np.eye(dA * dB))) <= 1e-12


def _table_inputs(dims, rng):
    d = dims.total
    for _ in range(4):
        yield random_state(d, rng)
        yield random_separable_state(dims, seed=rng)
        yield random_herm(d, rng) + 0.3 * np.eye(d)


@pytest.mark.parametrize("dA,dB", [(2, 2), (2, 3)])
@pytest.mark.parametrize("tag,dual_tag", [(PSD, PSD), (SEP, SEP_DUAL),
                                          (SEP_DUAL, SEP)])
def test_dual_cone_membership_is_membership_in_the_dual(tag, dual_tag, dA, dB):
    dims = BipartiteDims(dA, dB)
    cone = make_named_cone(tag, dim=dims.total, dims=dims)
    dual = make_named_cone(dual_tag, dim=dims.total, dims=dims)
    rng = np.random.default_rng(dA * dB)
    for x in _table_inputs(dims, rng):
        v, w = dual_cone_membership(cone, x), membership(dual, x)
        assert (v.status, v.tier) == (w.status, w.tier)


def test_dual_cone_membership_validates_like_membership():
    cone = make_named_cone(PSD, dim=3)
    for check in (membership, dual_cone_membership):
        with pytest.raises(ValidationError):
            check(cone, np.eye(2))


def _psd_membership(eps, dovm):
    return membership(make_named_cone(PSD, dim=2), np.diag([1.0, -eps])).status


def _domain(eps, dovm):
    # Least eigenvalue -eps; both effects of the appendix DOVM pair
    # nonnegatively with it.
    try:
        domain_contains(dovm, np.diag([0.5, 0.25, 0.25 + eps, -eps]))
    except ValidationError:
        return "raises"
    return "accepts"


def _conic(eps, dovm):
    g = np.array([[1.0, 0.5], [0.5, -0.2]])
    return conic_feasibility(g - eps * np.eye(2), [g]).status


@pytest.mark.parametrize("decide,eps,expected", [
    (_psd_membership, 5e-10, IN), (_psd_membership, 2e-9, OUT),
    (_domain, 5e-9, "accepts"), (_domain, 2e-8, "raises"),
    (_conic, 2e-9, IN), (_conic, 2e-8, OUT),
], ids=["membership-in", "membership-out", "domain-accepts", "domain-raises",
        "conic-in", "conic-out"])
def test_fixed_tolerances_at_their_boundary(decide, eps, expected, e_dovm):
    # membership decides to 1e-9, domain_contains to 1e-8 and
    # conic_feasibility to 1e-8 (its vertex tier: ||(-eps I)_-|| = eps√2).
    assert decide(eps, e_dovm) == expected


def _below_endpoint(fam, eps):
    return npm_element(0.1, fam) - eps * np.eye(4)


def _cut_identity(fam, delta):
    x = np.eye(4, dtype=complex)
    x[0, 0] -= 1.0 + delta
    return x


@pytest.mark.parametrize("build,eps,expected", [
    # x = N(0.1) - eps I: x less the endpoint N(0.1) misses PSD by 2 eps.
    *(pytest.param(_below_endpoint, eps, IN, id=str(eps))
      for eps in (1.5e-9, 2e-9, 3e-9)),
    # x = I - (1 + delta)|00><00| misses PSD by delta, so the PSD oracle
    # alone would answer Out at its 1e-9.
    *(pytest.param(_cut_identity, delta, expected, id=f"cut-{delta}")
      for delta, expected in ((2e-9, IN), (5e-9, IN), (9e-9, IN),
                              (2e-8, OUT))),
])
def test_one_conic_question_has_one_answer(build, eps, expected):
    # Each x pairs nonnegatively with every endpoint and misses the hull
    # PSD + cone(endpoints) by eps, 2 eps or delta: every spelling of x in
    # that hull answers at the one conic tolerance 1e-8.
    fam = generalized_bell(2)
    params = PsesParams(swap_pair(fam), 0.1, fam.dims)
    gens = npm_endpoint_generators(params)
    x = build(fam, eps)
    statuses = {cr_membership(x, params).status,
                conic_feasibility(x, gens, (identity,)).status,
                membership(ConeRep(dim=4, generators=gens), x).status}
    assert statuses == {expected}


def test_hull_contains_its_own_generators():
    # The orthant oracle rejects g, but the cone is orthant + cone(g).
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    cone = ConeRep(dim=2, generators=[g], oracle=CLASSICAL_ORTHANT)
    assert membership(cone, g).status == IN
    # In the hull, but neither in the orthant nor in cone(g): the conic
    # program over the orthant's units and g decides it.
    x = g + np.eye(2)
    v = membership(cone, x)
    assert v.status == IN
    units = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), g]
    assert np.all(v.witness.coefficients >= 0)
    assert np.allclose(sum(c * u for c, u in zip(v.witness.coefficients,
                                                    units)), x, atol=1e-8)
    # Off the hull: the oracle's witness clears g, so Out stands.
    x = np.array([[1.0, -0.5], [-0.5, 1.0]])
    v = membership(cone, x)
    assert v.status == OUT
    assert trace_inner(v.witness, x) < 0 <= trace_inner(v.witness, g)


@pytest.mark.parametrize("kwargs", [
    {"dim": 4, "oracle": "psd"},
    {"dim": 4, "oracle": SEP},
    {"dim": 4, "oracle": SEP_DUAL, "dims": BipartiteDims(2, 3)},
    {"dim": 2, "oracle": SHRUNK_BLOCH},
    {"dim": 4, "oracle": CS_NEG, "dims": BipartiteDims(2, 2)},
    {"dim": 4, "oracle": CS_NEG, "params": {"s": 0.1}},
    {"dim": 4, "oracle": "CR", "dims": BipartiteDims(2, 2)},
    {"dim": 2, "oracle": SHRUNK_BLOCH, "params": 1},
    {"dim": 2, "oracle": SHRUNK_BLOCH, "params": [1]},
])
def test_cone_rep_rejects_unknown_tags_and_missing_params(kwargs):
    with pytest.raises(ValidationError):
        ConeRep(**kwargs)


def test_hull_without_a_description_is_in_only_by_decomposition():
    # The shrunk Bloch cone has no conic description: x is In when it
    # decomposes over the generators, and Unknown otherwise.
    g = np.diag([1.0, 0.0])
    cone = ConeRep(dim=2, oracle=SHRUNK_BLOCH, params={"p": 0.5},
                   generators=[g])
    v = membership(cone, 3.0 * g)
    assert (v.status, v.tier) == (IN, "conic-feasibility")
    assert np.allclose(v.witness.coefficients, [3.0], atol=1e-8)
    v = membership(cone, np.array([[3.0, 0.1], [0.1, 0.0]]))
    assert (v.status, v.tier) == (UNKNOWN, "affine-psd")


def test_generator_cone_out_carries_the_separator():
    # cone(diagonal projectors) is the diagonal orthant: x is outside it.
    gens = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    x = np.array([[1.0, 1.0], [1.0, 1.0]])
    v = conic_feasibility(x, gens, ())
    assert v.status == OUT and v.tier == "conic-feasibility"
    assert trace_inner(v.witness, x) < 0
    assert all(trace_inner(v.witness, g) >= -1e-8 for g in gens)


def test_orthant_and_cs_neg_out_witnesses(bell_state, dims22):
    x = np.eye(3) + 0.5 * (np.eye(3, k=1) + np.eye(3, k=-1))
    v = membership(make_named_cone(CLASSICAL_ORTHANT, dim=3), x)
    assert v.status == OUT
    assert np.allclose(v.witness, -(x - np.diag(np.diag(x))))
    w = partial_transpose(bell_state, dims22)
    v = membership(make_named_cone(CS_NEG, dim=4, params={"s": 0.1},
                                   dims=dims22), w)
    assert v.status == OUT and v.tier == "nege"
    # W = vv* + s I with v the bottom eigenvector: <W, w> = -1/2 + 0.1.
    assert trace_inner(v.witness, w) == pytest.approx(-0.4, abs=1e-12)
    assert np.linalg.eigvalsh(v.witness)[0] == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("dA,dB", [(2, 2), (2, 3)])
def test_sep_is_exact_by_ppt_in_small_dims(dA, dB):
    dims = BipartiteDims(dA, dB)
    sep = make_named_cone(SEP, dims=dims)
    sep_dual = make_named_cone(SEP_DUAL, dims=dims)
    product = np.zeros((dims.total, dims.total))
    product[0, 0] = 1.0  # |00><00|
    rng = np.random.default_rng(7)
    for x in [product] + [random_separable_state(dims, seed=rng)
                          for _ in range(20)]:
        assert membership(sep, x).status == IN
        assert dual_cone_membership(sep_dual, x).status == IN


def test_sep_stays_unknown_beyond_ppt_exactness():
    dims = BipartiteDims(3, 3)
    x = np.zeros((9, 9))
    x[0, 0] = 1.0  # |00><00|, outside the separability ball
    v = membership(make_named_cone(SEP, dims=dims), x)
    assert (v.status, v.tier) == (UNKNOWN, "ppt")


_SCALED_CONES = [
    pytest.param(tag, dims, params, id=f"{tag}-{dims.dA}x{dims.dB}")
    for tag, params in ((PSD, {}), (SEP, {}), (SEP_DUAL, {}),
                        (CLASSICAL_ORTHANT, {}), (CS_NEG, {"s": 0.1}))
    for dims in (BipartiteDims(2, 2), BipartiteDims(2, 3))
] + [pytest.param(SHRUNK_BLOCH, BipartiteDims(1, 2), {"p": 0.5},
                  id="SHRUNK_BLOCH")]


@pytest.mark.parametrize("tag,dims,params", _SCALED_CONES)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-0.5, 1.5),
       kind=st.sampled_from(["shifted", "diagonal", "transposed"]))
@settings(max_examples=20, deadline=None)
def test_named_oracle_verdicts_are_scale_invariant(tag, dims, params, seed,
                                                   shift, kind):
    # Only verdicts decided at least 1e-3 from the boundary: x - 1e-3 I is
    # still In, or x + 1e-3 I still Out (I is interior to every cone here).
    # For the eigenvalue tiers that is |margin| >= 1e-3; it also covers the
    # conic tiers, whose In margin is a residual.  Shifted partial
    # transposes of states reach the partial-transpose and decomposition
    # tiers of SEP_DUAL and CS_NEG.
    cone = make_named_cone(tag, params=params, dims=dims, dim=dims.total)
    d = dims.total
    if kind == "transposed":
        x = partial_transpose(random_state(d, seed, rank=2), dims) \
            + 0.1 * (shift - 0.5) * np.eye(d)
    else:
        x = random_herm(d, seed) + shift * np.eye(d)
        if kind == "diagonal":
            x = np.diag(np.diag(x))
    for check in (membership, dual_cone_membership):
        v = check(cone, x)
        if v.status not in (IN, OUT):
            continue
        step = 1e-3 * np.eye(d) * (-1 if v.status == IN else 1)
        if check(cone, x + step).status != v.status:
            continue
        for scale in (1e-2, 1e2):
            w = check(cone, scale * x)
            assert (w.status, w.tier) == (v.status, v.tier), (check, scale)


@pytest.mark.parametrize("x,dims", [
    (np.eye(4) + 5.0 * np.eye(4, k=3), BipartiteDims(2, 2)),  # not Hermitian
    (np.eye(6), BipartiteDims(2, 2)),  # 6x6 against 2x2
    (np.diag([np.nan, 1.0, 1.0, 1.0]), BipartiteDims(2, 2)),
], ids=["non-hermitian", "wrong-size", "nan"])
def test_block_positivity_rejects_invalid_input(x, dims):
    with pytest.raises(ValidationError):
        membership(make_named_cone(SEP_DUAL, dims=dims), x)


@pytest.fixture
def ensure_herm_calls(monkeypatch):
    """Counts ``ensure_herm`` calls, patched in every gptcone module that
    binds it."""
    calls = []
    original = herm.ensure_herm

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "gptcone" or name.startswith("gptcone."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _named_cone(tag, m):
    if tag == SHRUNK_BLOCH:
        return make_named_cone(tag, params={"p": 0.5}, dim=2)
    dims = BipartiteDims(m, m)
    params = {"s": 0.1} if tag == CS_NEG else {}
    return make_named_cone(tag, params=params, dims=dims, dim=dims.total)


@pytest.mark.parametrize("tag,m", [
    pytest.param(tag, m, id=f"{tag}-{m}x{m}")
    for tag in (PSD, SEP, SEP_DUAL, CLASSICAL_ORTHANT, CS_NEG)
    for m in (2, 3)] + [pytest.param(SHRUNK_BLOCH, 1, id=SHRUNK_BLOCH)])
def test_each_query_validates_its_input_once(tag, m, ensure_herm_calls):
    cone = _named_cone(tag, m)
    d = cone.dim
    inputs = [random_state(d, 1), random_herm(d, 2) + 0.5 * np.eye(d)]
    if cone.dims is not None:
        inputs.append(random_separable_state(cone.dims, seed=3))
        inputs.append(partial_transpose(random_state(d, 4, rank=2), cone.dims))
    for x in inputs:
        for check in (membership, dual_cone_membership):
            ensure_herm_calls.clear()
            check(cone, x)
            assert len(ensure_herm_calls) == 1, (check.__name__, x)


@pytest.mark.parametrize("m", [pytest.param(m, id=f"{m}x{m}") for m in (2, 3)])
def test_cr_membership_validates_its_input_once(m, ensure_herm_calls):
    fam = generalized_bell(m)
    params = PsesParams(swap_pair(fam), 0.1, fam.dims)
    d = fam.dims.total
    for x in (random_state(d, 1), random_herm(d, 2) + 0.5 * np.eye(d),
              random_separable_state(fam.dims, seed=3),
              partial_transpose(random_state(d, 4, rank=2), fam.dims),
              npm_element(0.1, fam)):
        ensure_herm_calls.clear()
        cr_membership(x, params)
        assert len(ensure_herm_calls) == 1, x


def _reference_psd(x, tol, tier="eigenvalue"):
    vals, vecs = np.linalg.eigh(x)
    v = vecs[:, 0]
    return (IN if vals[0] >= -tol else OUT), tier, vals[0], np.outer(v, v.conj())


def _reference_block_positive(x, dims, tol):
    # The eigenvalue and partial-transpose tiers by eigh; past them, the
    # product search and the decomposition solve through their public
    # entry points.
    status, _, lam, _ = _reference_psd(x, tol)
    if status == IN:
        return IN, "psd", lam, None
    xg = partial_transpose(x, dims)
    status, _, lam, _ = _reference_psd(xg, tol)
    if status == IN:
        return IN, "partial-transpose", lam, xg
    exact = dims.total <= 6
    val, a, b = min_product_expectation(x, dims, restarts=1 if exact else 64)
    if val < -tol:
        ab = np.kron(a, b)
        return OUT, "product-search", val, np.outer(ab, ab.conj())
    if not exact:
        return UNKNOWN, "product-search", val, None
    w = conic_feasibility(x, [], (identity, partial(partial_transpose,
                                                    dims=dims)))
    return w.status, w.tier, w.margin, w.witness


def _reference(tag, dual, x, dims, tol):
    """(status, tier, margin, witness) of a named oracle from eigh."""
    if tag == PSD:
        return _reference_psd(x, tol)
    if tag == CLASSICAL_ORTHANT:
        off = x - np.diag(np.diag(x))
        if not dual and np.abs(off).max() > tol:
            return OUT, "diagonal", -np.abs(off).max(), -off
        k = int(np.argmin(np.diag(x).real))
        w = np.zeros_like(x)
        w[k, k] = 1.0
        return (IN if x[k, k].real >= -tol else OUT), "diagonal", \
            x[k, k].real, w
    if tag == CS_NEG:
        if dual:
            return UNKNOWN, "no-description", 0.0, None
        _, _, lam, proj = _reference_psd(x, tol)
        excess = max(-lam, 0.0) - 0.1 * np.trace(x).real
        if excess > tol:
            return OUT, "nege", -excess, proj + 0.1 * np.eye(len(x))
        status, tier, margin, w = _reference_block_positive(x, dims, tol)
        if status == OUT:
            return status, tier, margin, w
        return status, "nege+" + tier if status == IN else "nege", margin, w
    if (tag == SEP_DUAL) != dual:
        return _reference_block_positive(x, dims, tol)
    d, t = len(x), np.trace(x).real
    if t > tol and np.sqrt(np.sum(np.linalg.eigvalsh(
            np.eye(d) - x * (d / t)) ** 2)) <= 1.0 + tol:
        return IN, "gurvits", 0.0, None
    status, _, pt_lam, proj = _reference_psd(partial_transpose(x, dims), tol)
    if status == OUT:
        return OUT, "ppt", pt_lam, partial_transpose(proj, dims)
    status, tier, lam, proj = _reference_psd(x, tol)
    if status == OUT:
        return status, tier, lam, proj
    return IN, "ppt-exact", min(lam, pt_lam), None


@pytest.mark.parametrize("tag,dims", [
    pytest.param(tag, dims, id=f"{tag}-{dims.dA}x{dims.dB}")
    for tag in (PSD, SEP, SEP_DUAL, CS_NEG, CLASSICAL_ORTHANT)
    for dims in (BipartiteDims(2, 2), BipartiteDims(2, 3))])
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-0.5, 1.5),
       kind=st.sampled_from(["shifted", "state", "separable", "transposed"]))
@settings(max_examples=25, deadline=None)
def test_named_oracles_match_an_eigh_reference(tag, dims, seed, shift, kind):
    params = {"s": 0.1} if tag == CS_NEG else {}
    cone = make_named_cone(tag, params=params, dims=dims, dim=dims.total)
    d = dims.total
    x = {"shifted": lambda: random_herm(d, seed) + shift * np.eye(d),
         "state": lambda: random_state(d, seed),
         "separable": lambda: random_separable_state(dims, seed=seed),
         "transposed": lambda: partial_transpose(random_state(d, seed, rank=2),
                                                 dims)}[kind]()
    for dual, check in ((False, membership), (True, dual_cone_membership)):
        v = check(cone, x)
        status, tier, margin, witness = _reference(tag, dual, x, dims, 1e-9)
        assert (v.status, v.tier) == (status, tier), check.__name__
        if v.status == IN:
            assert abs(v.margin - margin) <= 1e-12
        if v.status == OUT:
            assert np.real(np.vdot(v.witness, x)) < 0
            assert np.real(np.vdot(witness, x)) < 0


def test_a_cone_holds_read_only_copies_of_its_values(dims22):
    g = np.diag([1.0, -0.5, 0.25, 0.25]).astype(complex)
    params = {"s": 0.25}
    cone = make_named_cone(CS_NEG, params=params, dims=dims22, generators=[g])
    for shared in (cone, sep_model(dims22).cone):
        with pytest.raises(AttributeError):
            shared.generators.append(-np.eye(4))
    with pytest.raises(ValueError, match="read-only"):
        cone.generators[0][0, 0] = 5.0
    with pytest.raises(TypeError):
        cone.params["s"] = 1
    g[0, 0], params["s"] = 2.0, 1.0  # the caller's values stay writable
    assert cone.generators[0][0, 0] == 1.0 and cone.params["s"] == 0.25
    back = cone_from_json(json.loads(json.dumps(cone_to_json(cone))))
    assert back.oracle == CS_NEG and back.params == {"s": 0.25}
    assert np.array_equal(back.generators[0], cone.generators[0])
    # The cached SEP model's cone is unchanged, so a DOVM still builds.
    assert len(Dovm(m1=np.eye(4) / 2, m2=np.eye(4) / 2, dims=dims22)) == 2

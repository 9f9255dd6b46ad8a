"""Every certificate the conic solver hands out re-verifies on its own.

The checks here use only eigenvalues and inner products, never the
solver's internal state.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gptcone import dual
from gptcone.cones import (
    CLASSICAL_ORTHANT,
    CS_NEG,
    PSD,
    SEP,
    SEP_DUAL,
    SHRUNK_BLOCH,
    ConeRep,
    conic_program,
    dual_cone_membership,
    make_named_cone,
    membership,
)
from gptcone.discrimination import helstrom, min_error_over_cone
from gptcone.dual import (
    ConicCertificate,
    _w_form,
    conic_feasibility,
    identity,
    min_over_spectrahedron,
)
from gptcone.herm import (
    BipartiteDims,
    ensure_herm,
    partial_transpose,
    trace_inner,
)
from gptcone.pses import (
    PsesParams,
    cr_membership,
    generalized_bell,
    npm_endpoint_generators,
    r0,
    swap_pair,
)
from gptcone.sampling import (
    random_herm,
    random_psd,
    random_separable_state,
    random_state,
)
from gptcone.verdict import IN, OUT, UNKNOWN

TOL = 1e-8
seeds = st.integers(min_value=0, max_value=10_000)


def _generators(d, m, rng):
    """Indefinite generators with trace 1/2, so that the identity pairs
    strictly positively with each of them."""
    gens = []
    for _ in range(m):
        g = random_herm(d, rng)
        gens.append(g + (0.5 - np.trace(g).real) / d * np.eye(d))
    return gens


def _check_certificate(res, x, gens, maps):
    """x - sum_k c_k g_k - sum_L L(part_L), each part PSD, is within the
    residual of PSD (of zero without maps)."""
    assert np.all(res.coefficients >= 0)
    assert len(res.mapped_parts) == max(len(maps) - 1, 0)
    rest = x - sum((c * g for c, g in zip(res.coefficients, gens)),
                   np.zeros_like(x))
    for L, part in zip(maps[1:], res.mapped_parts):
        assert np.linalg.eigvalsh(part)[0] >= -1e-12
        rest = rest - L(part)
    miss = np.linalg.norm(np.minimum(np.linalg.eigvalsh(rest), 0.0)) \
        if maps else np.linalg.norm(rest)
    assert miss <= TOL
    assert res.residual == pytest.approx(miss, abs=1e-12)


def _check_separator(W, x, gens, maps, tol=TOL):
    # The maps are self-adjoint, so W is in the dual when every L(W) is PSD.
    assert all(np.linalg.eigvalsh(L(W))[0] >= -tol for L in maps)
    assert all(trace_inner(W, g) >= -tol for g in gens)
    assert trace_inner(W, x) < 0


@given(seeds, st.integers(2, 4), st.integers(0, 5),
       st.sampled_from([(), (identity,)]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_conic_feasibility_certificates(seed, d, m, maps, inside):
    rng = np.random.default_rng(seed)
    gens = _generators(d, m, rng)
    if inside and m:
        x = sum(w * g for w, g in zip(rng.uniform(0, 1, m), gens))
        if maps:
            x = x + random_psd(d, rng)
    else:
        x = random_herm(d, rng)
    res = conic_feasibility(x, gens, maps)
    assert res.converged is True
    if res.status == IN:
        _check_certificate(res.witness, x, gens, maps)
        return
    assert res.status == OUT and res.witness is not None
    assert not (inside and m)
    W = res.witness
    _check_separator(W, x, gens, maps)
    bound = -res.margin / np.linalg.norm(W)
    assert bound == pytest.approx(-trace_inner(W, x) / np.linalg.norm(W))
    # The bound is a lower bound on the distance to any cone point: 0, and
    # with PSD in the cone also the PSD part of x.
    vals = np.linalg.eigvalsh(x)
    assert bound <= np.linalg.norm(vals) + 1e-9
    if maps:
        assert bound <= np.linalg.norm(np.minimum(vals, 0.0)) + 1e-9


def test_conic_solves_report_their_diagnostics():
    # -I is Out by the eigen-shift tier, without a solve.  The sum of the
    # generators less 1e-2 I is Out too, but no shift of its bottom
    # eigenprojector separates it, so a solve answers.
    rng = np.random.default_rng(3)
    gens = _generators(3, 2, rng)
    for maps in ((), (identity,)):
        res = conic_feasibility(-np.eye(3), gens, maps)
        assert res.status == OUT
        assert (res.gap, res.iterations, res.converged) == (0.0, 0, True)
        inside = sum(gens) + (random_psd(3, rng) if maps else 0.0)
        for x, status in ((inside, IN), (sum(gens) - 1e-2 * np.eye(3), OUT)):
            res = conic_feasibility(x, gens, maps)
            assert res.status == status
            assert res.iterations > 0 and res.converged is True


@given(seeds, st.integers(0, 2), st.floats(-0.5, 1.0))
@settings(max_examples=30, deadline=None)
def test_conic_membership_verdicts_are_scale_invariant(seed, n_maps, shift):
    # Only inputs at least 1e-3 from the boundary, so that the absolute
    # tolerance cannot flip a verdict: x - 1e-3 I still decomposes, or a
    # separator bounds the distance to the cone by 1e-3.  The descriptions
    # are cone(G), PSD + cone(G) and PSD + PSD^Gamma + cone(G).
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(2, 2)
    gens = _generators(4, 2, rng)
    maps = (identity, lambda X: partial_transpose(X, dims))[:n_maps]
    x = random_herm(4, rng) + shift * np.eye(4)
    v = conic_feasibility(x, gens, maps)
    if v.status == IN:
        assume(conic_feasibility(x - 1e-3 * np.eye(4), gens,
                                 maps).status == IN)
    else:
        assume(v.status == OUT
               and -v.margin / np.linalg.norm(v.witness) >= 1e-3)
    assert v.status in (IN, OUT)
    for scale in (1e-2, 1e2):
        w = conic_feasibility(scale * x, gens, maps)
        assert (w.status, w.tier) == (v.status, v.tier)


def _maps_22(n_maps):
    """cone(G), PSD + cone(G) and PSD + PSD^Gamma + cone(G) at 2x2."""
    dims = BipartiteDims(2, 2)
    return (identity, lambda X: partial_transpose(X, dims))[:n_maps]


@given(seeds, st.integers(0, 2), st.floats(-0.5, 1.0), st.booleans())
@settings(max_examples=40, deadline=None)
def test_early_verdicts_agree_with_the_optimum(seed, n_maps, shift, inside):
    # A membership solve stops at the first iterate whose certificate
    # re-verifies.  Away from the boundary its verdict is the sign of the
    # W-form optimum t solved to its gap target: with maps x - t I is in
    # the cone, without maps t is minus the operator-norm distance to it.
    rng = np.random.default_rng(seed)
    # <sigma, g_k> = 1/2 for a random state sigma rather than for I, so
    # that the solver's first iterates, near I, need not clear G.
    sigma = random_state(4, rng)
    gens = [g + (0.5 - trace_inner(sigma, g)) / trace_inner(sigma, sigma)
            * sigma for g in (random_herm(4, rng) for _ in range(3))]
    maps = _maps_22(n_maps)
    if inside:  # weights >= 1e-3 keep x off the boundary of cone(G)
        x = sum(w * g for w, g in zip(rng.uniform(1e-3, 1, 3), gens))
        if maps:
            x = x + random_psd(4, rng)
    else:
        x = random_herm(4, rng) + shift * np.eye(4)
    S = ensure_herm([x, *gens])
    opt = _w_form(S[0], S[1:], maps)
    assert opt.converged
    t = opt.y[0]
    assume(abs(t) >= 1e-3 or (inside and not maps))
    v = conic_feasibility(x, gens, maps)
    assert v.status == (IN if t > 0 or inside and not maps else OUT)
    assert v.converged is True and v.iterations <= opt.iterations
    if v.status == IN:
        _check_certificate(v.witness, x, gens, maps)
    else:
        _check_separator(v.witness, x, gens, maps)
        # Not the optimal bound, but at most the distance to a cone point
        # within -t of x in operator norm (x - t I with maps).
        assert -v.margin / np.linalg.norm(v.witness) \
            <= -t * np.linalg.norm(np.eye(4)) + 1e-9


@pytest.mark.parametrize("n_maps", [0, 1, 2])
def test_vertex_tier_decides_generators_without_a_solve(n_maps):
    rng = np.random.default_rng(5)
    gens = _generators(4, 3, rng)
    maps = _maps_22(n_maps)
    for k, g in enumerate(gens):
        # x = g_k + P with P PSD is in the hull only with maps.
        xs = [g, g + 0.1 * random_psd(4, rng)] if maps else [g]
        for x in xs:
            res = conic_feasibility(x, gens, maps)
            assert res.status == IN
            assert isinstance(res.witness, ConicCertificate)
            assert res.iterations == 0 and res.converged is True
            assert np.array_equal(res.witness.coefficients, np.eye(3)[k])
            _check_certificate(res.witness, x, gens, maps)
        # g - 1e-3 I is no vertex: a later tier decides it.
        assert dual._vertex(g - 1e-3 * np.eye(4), dual._stack(gens, 4),
                            maps) is None


@given(seeds, st.sampled_from([2, 4, 6]), st.integers(0, 3),
       st.integers(0, 2), st.booleans(), st.floats(-0.5, 1.0))
@settings(max_examples=300, deadline=None)
def test_eigen_shift_tier_puts_no_point_of_the_hull_out(seed, d, m, n_maps,
                                                        inside, shift):
    # The tier answers Out or nothing.  A point of the hull (a nonnegative
    # mix of the generators plus one PSD part per map) is never Out, and
    # every Out re-verifies as a separator of a solve would.  Gamma is the
    # partial transpose of a (d/2) x 2 system.
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(d // 2, 2)
    maps = (identity, lambda X: partial_transpose(X, dims))[:n_maps]
    gens = _generators(d, m, rng)
    if inside:
        x = sum((w * g for w, g in zip(rng.uniform(0, 1, m), gens)),
                np.zeros((d, d), dtype=complex))
        for L in maps:
            x = x + L(random_psd(d, rng))
    else:
        x = random_herm(d, rng) + shift * np.eye(d)
    x = ensure_herm(x)
    v = dual._eigen_shift(x, dual._stack(gens, d), maps)
    if v is None:
        return
    assert not inside
    assert v.status == OUT
    assert (v.gap, v.iterations, v.converged) == (0.0, 0, True)
    _check_separator(v.witness, x, gens, maps)
    assert v.margin == pytest.approx(trace_inner(v.witness, x), abs=1e-12)
    assert v.margin <= -TOL


@pytest.mark.parametrize("m", [2, 3])
def test_cr_membership_decides_endpoints_without_a_solve(m, monkeypatch):
    # The PSD tier decides the lambda = 0 endpoints, the vertex tier the
    # lambda = r ones.
    fam = generalized_bell(m)
    params = PsesParams(family_set=swap_pair(fam), r=0.5 * r0(fam.dims),
                        dims=fam.dims)
    gens = npm_endpoint_generators(params)

    def no_solve(*args, **kwargs):
        raise AssertionError("an endpoint needed a conic solve")

    monkeypatch.setattr(dual, "_solve", no_solve)
    for N in gens:
        v = cr_membership(N, params)
        assert v.status == IN
        _check_certificate(v.witness, N, gens, (identity,))


@given(seeds, st.integers(2, 4), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_min_over_spectrahedron_argmin_is_feasible(seed, d, m):
    rng = np.random.default_rng(seed)
    x = random_herm(d, rng)
    hs = _generators(d, m, rng)
    val, y = min_over_spectrahedron(x, hs)
    assert np.trace(y).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(y)[0] >= -1e-12
    assert all(trace_inner(y, h) >= -1e-9 for h in hs)
    assert val == pytest.approx(trace_inner(x, y), abs=1e-12)
    assert val >= np.linalg.eigvalsh(x)[0] - 1e-9
    if not m:
        assert val == pytest.approx(np.linalg.eigvalsh(x)[0], abs=1e-8)


def _cr_case(seed, m, r_frac, shift):
    """The m x m Bell swap pair at r = r_frac r0, its endpoints, and x, a
    random nonnegative mix of them, shifted by ``shift`` I, plus noise."""
    rng = np.random.default_rng(seed)
    fam = generalized_bell(m)
    params = PsesParams(family_set=swap_pair(fam), r=r_frac * r0(fam.dims),
                        dims=fam.dims)
    gens = npm_endpoint_generators(params)
    D = fam.dims.total
    x = sum(w * g for w, g in zip(rng.uniform(0, 1, len(gens)), gens)) \
        + shift * np.eye(D) + 0.05 * random_herm(D, rng)
    return params, gens, x


@given(seeds, st.sampled_from([2, 3]), st.floats(0.02, 1.0),
       st.floats(-0.3, 0.3))
@settings(max_examples=30, deadline=None)
def test_cr_membership_witnesses(seed, m, r_frac, shift):
    params, gens, x = _cr_case(seed, m, r_frac, shift)
    v = cr_membership(x, params)
    assert v.status in (IN, OUT)
    if v.status == IN:
        assert v.converged is True
        _check_certificate(v.witness, x, gens, (identity,))
    else:
        _check_separator(v.witness, x, gens, (identity,))


@given(seeds, st.sampled_from([2, 3]), st.floats(0.02, 1.0),
       st.floats(-0.3, 0.3))
@settings(max_examples=30, deadline=None)
def test_cr_membership_is_membership_in_params_cone(seed, m, r_frac, shift):
    # C_r is the hull PSD + cone(N_k), also for an x that pairs negatively
    # with an endpoint, such as P, the bottom eigenprojector of N(r): P is
    # PSD, so it is In, although <P, N(r)> = -r.
    params, gens, x = _cr_case(seed, m, r_frac, shift)
    _, vecs = np.linalg.eigh(gens[1])
    P = np.outer(vecs[:, 0], vecs[:, 0].conj())
    assert trace_inner(P, gens[1]) == pytest.approx(-params.r, abs=1e-12)
    hull = ConeRep(dim=params.dims.total, generators=gens, oracle=PSD)
    for y in (x, P):
        v = cr_membership(y, params)
        for ref in (membership(params.cone, y), membership(hull, y)):
            assert (v.status, v.tier, v.margin) == \
                (ref.status, ref.tier, ref.margin)
        if v.status == OUT:
            _check_separator(v.witness, y, gens, (identity,))
        else:  # also a PSD y is In by a certificate over the description
            _check_certificate(v.witness, y, gens, (identity,))
    assert cr_membership(P, params).status == IN


@given(seeds, st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_psd_effect_cone_error_equals_helstrom(seed, d):
    rng = np.random.default_rng(seed)
    rho1, rho2 = random_state(d, rng), random_state(d, rng)
    cval, meas = min_error_over_cone(rho1, rho2, make_named_cone(PSD, dim=d))
    assert cval == pytest.approx(helstrom(rho1, rho2)[0], abs=1e-8)
    m1, m2 = meas.effects
    assert np.linalg.eigvalsh(m1)[0] >= -1e-8
    assert np.linalg.eigvalsh(m2)[0] >= -1e-8


@given(seeds, st.sampled_from([(2, 2), (2, 3)]), st.integers(0, 2),
       st.floats(-0.5, 1.0))
@settings(max_examples=30, deadline=None)
def test_decomposable_description_certificates(seed, dA_dB, m, shift):
    # cone(G) + PSD + PSD^Gamma: the In certificate and the Out separator
    # of a description with a second map re-verify by eigenvalues.
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(*dA_dB)
    d = dims.total
    gens = _generators(d, m, rng)
    x = random_herm(d, rng) + shift * np.eye(d)
    maps = (identity, lambda X: partial_transpose(X, dims))
    res = conic_feasibility(x, gens, maps)
    if res.status == IN:
        _check_certificate(res.witness, x, gens, maps)
    else:
        _check_separator(res.witness, x, gens, maps)


@pytest.mark.parametrize("dA,dB", [(2, 2), (2, 3)])
def test_block_positivity_certifies_decomposable_inputs(dA, dB):
    # P + Q^Gamma with P and Q low-rank PSD is block-positive; these draws
    # have neither x nor x^Gamma PSD, so neither eigenvalue tier decides
    # them and only the decomposition x = P' + Q'^Gamma can certify them.
    dims = BipartiteDims(dA, dB)
    d = dims.total
    rng = np.random.default_rng(11)
    xs = [random_state(d, rng, rank=1)
          + partial_transpose(random_state(d, rng, rank=1), dims)
          for _ in range(12)]
    xs = [x for x in xs if np.linalg.eigvalsh(x)[0] < -1e-6
          and np.linalg.eigvalsh(partial_transpose(x, dims))[0] < -1e-6]
    assert len(xs) >= 5
    decomposable = (identity, lambda X: partial_transpose(X, dims))
    for x in xs:
        v = membership(make_named_cone(SEP_DUAL, dims=dims), x)
        assert v.status == IN and v.tier == "decomposition"
        _check_certificate(v.witness, x, [], decomposable)


@given(seeds, st.sampled_from([PSD, CLASSICAL_ORTHANT, SEP_DUAL]),
       st.integers(1, 4), st.booleans(), st.floats(-0.5, 2.0))
@settings(max_examples=40, deadline=None)
def test_every_described_hull_in_carries_a_certificate(seed, tag, m, inside,
                                                       shift):
    # A hull K + cone(G) whose K has a conic description is decided by that
    # description alone, so even an x in K is In by a certificate over it.
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(2, 2)
    gens = _generators(4, m, rng)
    cone = make_named_cone(tag, dims=dims, generators=gens)
    if inside:  # a point of cone(G) plus a point of K
        x = sum(w * g for w, g in zip(rng.uniform(1e-3, 1, m), gens))
        if tag == CLASSICAL_ORTHANT:
            x = x + np.diag(rng.uniform(0, 1, 4))
        else:
            x = x + random_psd(4, rng)
        if tag == SEP_DUAL:
            x = x + partial_transpose(random_psd(4, rng), dims)
    else:
        x = random_herm(4, rng) + shift * np.eye(4)
    v = membership(cone, x)
    assert v.status == IN or not inside
    if v.status == IN:
        assert isinstance(v.witness, ConicCertificate)
        _check_certificate(v.witness, x, *conic_program(cone))


def _psd(W):
    return np.linalg.eigvalsh(W)[0] >= -TOL


def _clears(gens):
    return lambda W: all(trace_inner(W, g) >= -TOL for g in gens)


def _one_of(gens):
    return lambda W: any(np.allclose(W, g) for g in gens)


def _orthant(W):
    return np.allclose(W, np.diag(np.diag(W))) and _diagonal(W)


def _diagonal(W):
    return np.real(np.diag(W)).min() >= -TOL


def _witness_cases(dims, rng):
    """``name -> (cone, W in cone*, W in cone)`` for the Out witnesses of
    membership and of dual-cone membership, each checked without the
    oracle: by eigenvalues, by the diagonal, or by inner products."""
    d = dims.total
    gens = _generators(d, 3, rng)

    def ppt(W):  # in SEP, since PPT is separability at 2x2 and 2x3
        return _psd(W) and _psd(partial_transpose(W, dims))

    return {
        "psd": (make_named_cone(PSD, dim=d), _psd, _psd),
        "orthant": (make_named_cone(CLASSICAL_ORTHANT, dim=d), _diagonal,
                    _orthant),
        "psd+generators": (ConeRep(dim=d, generators=gens),
                           lambda W: _psd(W) and _clears(gens)(W),
                           lambda W: _psd(W) or _one_of(gens)(W)),
        "orthant+generators": (
            ConeRep(dim=d, generators=gens, oracle=CLASSICAL_ORTHANT),
            lambda W: _diagonal(W) and _clears(gens)(W),
            lambda W: _orthant(W) or _one_of(gens)(W)),
        "sep": (make_named_cone(SEP, dims=dims),
                lambda W: _psd(W) or _psd(partial_transpose(W, dims)),
                ppt),
        "sep_dual": (make_named_cone(SEP_DUAL, dims=dims), ppt,
                     lambda W: _psd(W) or _psd(partial_transpose(W, dims))),
        "cs_neg": (make_named_cone(CS_NEG, dim=d, params={"s": 0.1},
                                   dims=dims), None, None),
    }


@given(seeds, st.sampled_from([(2, 2), (2, 3)]), st.floats(-0.5, 4.0))
@settings(max_examples=30, deadline=None)
def test_every_out_carries_a_checkable_witness(seed, dA_dB, shift):
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(*dA_dB)
    x = random_herm(dims.total, rng) + shift * np.eye(dims.total)
    for name, (cone, in_dual, in_cone) in _witness_cases(dims, rng).items():
        for check, member in ((membership, in_dual),
                              (dual_cone_membership, in_cone)):
            v = check(cone, x)
            assert v.status in (IN, OUT, UNKNOWN)
            if v.status != OUT:
                continue
            assert trace_inner(v.witness, x) < 0, (name, check.__name__)
            if member is not None:
                assert member(v.witness), (name, check.__name__, v.tier)


_IN_WITNESS_CONES = [
    pytest.param(tag, dims, params, id=f"{tag}-{dims.dA}x{dims.dB}")
    for tag, params in ((PSD, {}), (SEP, {}), (SEP_DUAL, {}),
                        (CLASSICAL_ORTHANT, {}), (CS_NEG, {"s": 0.1}))
    for dims in (BipartiteDims(2, 2), BipartiteDims(2, 3),
                 BipartiteDims(3, 3))
] + [pytest.param(SHRUNK_BLOCH, BipartiteDims(1, 2), {"p": 0.5},
                  id="SHRUNK_BLOCH")]


@pytest.mark.parametrize("tag,dims,params", _IN_WITNESS_CONES)
def test_every_in_witness_reverifies(tag, dims, params):
    # A partial-transpose witness is PSD and maps to x under Gamma.  A
    # ConicCertificate is checked against the description that decided x:
    # the hull's own, or SEP_DUAL's for a named block-positivity query.
    # The inputs are the suite's kinds, P + Q^Gamma for pure P and Q, and
    # with a generator g also 2 g, which lies in every hull.
    rng = np.random.default_rng(7)
    d = dims.total
    inputs = {"shifted": lambda: random_herm(d, rng)
              + rng.uniform(-0.5, 1.5) * np.eye(d),
              "state": lambda: random_state(d, rng),
              "separable": lambda: random_separable_state(dims, seed=rng),
              "transposed": lambda: partial_transpose(
                  random_state(d, rng, rank=2), dims),
              "decomposable": lambda: random_state(d, rng, rank=1)
              + partial_transpose(random_state(d, rng, rank=1), dims)}
    for hull in (False, True):
        gens = _generators(d, 1, rng) if hull else []
        cone = make_named_cone(tag, params=params, dims=dims, dim=d,
                               generators=gens)
        xs = [make() for make in inputs.values() for _ in range(2)]
        for x in xs + [2.0 * g for g in gens]:
            for dual, check in ((False, membership),
                                (True, dual_cone_membership)):
                v = check(cone, x)
                if v.status != IN or v.witness is None:
                    continue
                if isinstance(v.witness, ConicCertificate):
                    if not dual and gens:  # K's description, else cone(G)
                        program = conic_program(cone) or (gens, ())
                    else:  # block positivity decided by decomposition
                        program = conic_program(
                            make_named_cone(SEP_DUAL, dims=dims))
                    _check_certificate(v.witness, x, *program)
                else:
                    assert v.tier == "partial-transpose", (dual, v.tier)
                    assert np.linalg.eigvalsh(v.witness)[0] >= -1e-9
                    assert np.array_equal(partial_transpose(v.witness, dims),
                                          x)


@pytest.mark.parametrize("dA,dB", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4)])
def test_partial_transposes_of_states_are_block_positive(dA, dB):
    # rho^Gamma lies in Gamma(PSD), inside SEP*, at every size; above
    # dA dB = 6 the product search alone could only answer Unknown.
    dims = BipartiteDims(dA, dB)
    rng = np.random.default_rng(5)
    xs = [partial_transpose(random_state(dims.total, rng), dims)
          for _ in range(6)]
    xs = [x for x in xs if np.linalg.eigvalsh(x)[0] < -1e-6]
    assert len(xs) >= 3
    for x in xs:
        for check, tag in ((membership, SEP_DUAL),
                           (dual_cone_membership, SEP)):
            v = check(make_named_cone(tag, dims=dims), x)
            assert (v.status, v.tier) == (IN, "partial-transpose")
            assert np.linalg.eigvalsh(v.witness)[0] >= -1e-12
            assert np.array_equal(partial_transpose(v.witness, dims), x)


@given(seeds, st.floats(0.05, 0.95), st.floats(-0.5, 1.0))
@settings(max_examples=30, deadline=None)
def test_shrunk_bloch_out_witnesses(seed, p, shift):
    rng = np.random.default_rng(seed)
    x = random_herm(2, rng) + shift * np.eye(2)
    cone = make_named_cone(SHRUNK_BLOCH, dim=2, params={"p": p})

    def shrink(y, inverse):  # the cone is shrink(PSD, inverse=False)
        t = (1 - p) / 2.0 * np.trace(y).real * np.eye(2)
        return (y - t) / p if inverse else p * y + t

    # W in the cone's dual pairs nonnegatively with shrink(PSD), i.e.
    # shrink(W) is PSD; W in the cone has a PSD preimage.
    for check, inverse in ((membership, False), (dual_cone_membership, True)):
        v = check(cone, x)
        if v.status == OUT:
            assert trace_inner(v.witness, x) < 0
            assert _psd(shrink(v.witness, inverse))

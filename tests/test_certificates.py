"""Every certificate the conic solver hands out re-verifies on its own.

The checks here use only eigenvalues and inner products, never the
solver's internal state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptcone.cones import PSD, make_named_cone
from gptcone.discrimination import helstrom, min_error_over_cone
from gptcone.dual import (
    ConicCertificate,
    Infeasible,
    conic_feasibility,
    min_over_spectrahedron,
)
from gptcone.herm import trace_inner
from gptcone.pses import (
    PsesParams,
    cr_membership,
    generalized_bell,
    npm_endpoint_generators,
    r0,
    swap_pair,
)
from gptcone.sampling import random_herm, random_psd, random_state
from gptcone.verdict import IN, OUT

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


def _check_certificate(res, x, gens, include_psd):
    assert np.all(res.coefficients >= 0)
    rest = x - sum((c * g for c, g in zip(res.coefficients, gens)),
                   np.zeros_like(x))
    if include_psd:
        assert np.linalg.eigvalsh(res.psd_part)[0] >= -1e-12
        rest = rest - res.psd_part
    assert np.linalg.norm(rest) <= TOL
    assert res.residual == pytest.approx(np.linalg.norm(rest), abs=1e-12)


def _check_separator(W, x, gens, include_psd, tol=TOL):
    if include_psd:
        assert np.linalg.eigvalsh(W)[0] >= -tol
    assert all(trace_inner(W, g) >= -tol for g in gens)
    assert trace_inner(W, x) < 0


@given(seeds, st.integers(2, 4), st.integers(0, 5), st.booleans(),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_conic_feasibility_certificates(seed, d, m, include_psd, inside):
    rng = np.random.default_rng(seed)
    gens = _generators(d, m, rng)
    if inside and m:
        x = sum(w * g for w, g in zip(rng.uniform(0, 1, m), gens))
        if include_psd:
            x = x + random_psd(d, rng)
    else:
        x = random_herm(d, rng)
    res = conic_feasibility(x, gens, include_psd=include_psd, tol=TOL)
    assert abs(res.gap) <= TOL
    if isinstance(res, ConicCertificate):
        _check_certificate(res, x, gens, include_psd)
        return
    assert isinstance(res, Infeasible) and res.witness is not None
    assert not (inside and m)
    W = res.witness
    _check_separator(W, x, gens, include_psd)
    assert res.bound == pytest.approx(-trace_inner(W, x) / np.linalg.norm(W))
    # The bound is a lower bound on the distance to any cone point: 0, and
    # with PSD in the cone also the PSD part of x.
    vals = np.linalg.eigvalsh(x)
    assert res.bound <= np.linalg.norm(vals) + 1e-9
    if include_psd:
        assert res.bound <= np.linalg.norm(np.minimum(vals, 0.0)) + 1e-9


@given(seeds, st.integers(2, 4), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_min_over_spectrahedron_argmin_is_feasible(seed, d, m):
    rng = np.random.default_rng(seed)
    x = random_herm(d, rng)
    hs = _generators(d, m, rng)
    val, y = min_over_spectrahedron(x, hs, tol=TOL)
    assert np.trace(y).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(y)[0] >= -1e-12
    assert all(trace_inner(y, h) >= -1e-9 for h in hs)
    assert val == pytest.approx(trace_inner(x, y), abs=1e-12)
    assert val >= np.linalg.eigvalsh(x)[0] - 1e-9
    if not m:
        assert val == pytest.approx(np.linalg.eigvalsh(x)[0], abs=1e-8)


@given(seeds, st.sampled_from([2, 3]), st.floats(0.02, 1.0),
       st.floats(-0.3, 0.3))
@settings(max_examples=30, deadline=None)
def test_cr_membership_witnesses(seed, m, r_frac, shift):
    rng = np.random.default_rng(seed)
    fam = generalized_bell(m)
    params = PsesParams(family_set=swap_pair(fam), r=r_frac * r0(fam.dims),
                        dims=fam.dims)
    gens = npm_endpoint_generators(params)
    D = fam.dims.total
    x = sum(w * g for w, g in zip(rng.uniform(0, 1, len(gens)), gens)) \
        + shift * np.eye(D) + 0.05 * random_herm(D, rng)
    v = cr_membership(x, params)
    assert v.status in (IN, OUT)
    if v.status == IN:
        assert min(trace_inner(x, g) for g in gens) >= -1e-9
        assert abs(v.witness.gap) <= TOL
        _check_certificate(v.witness, x, gens, include_psd=True)
    elif v.tier == "npm-endpoint":
        assert trace_inner(v.witness, x) < 0
    else:
        _check_separator(v.witness, x, gens, include_psd=True)


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

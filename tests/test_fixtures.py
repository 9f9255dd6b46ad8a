import numpy as np

from gptcone.fixtures import appendix_measurement, appendix_states, build_fixtures
from gptcone.herm import ensure_herm


def test_appendix_fixtures_are_the_closed_forms():
    built = build_fixtures()
    got = dict(zip(("rho1", "rho2", "sigma1", "sigma2"), appendix_states()))
    got.update(zip(("e1", "e2"), appendix_measurement()))
    assert got.keys() == built.keys()
    for name, ref in built.items():
        assert np.array_equal(ensure_herm(got[name]), ref), name
    for name in ("rho1", "rho2", "sigma1", "sigma2"):
        assert abs(np.trace(built[name]) - 1.0) < 1e-15, name


def test_appendix_fixtures_are_fresh_on_every_call():
    e1, _ = appendix_measurement()
    rho1 = appendix_states()[0]
    e1[0, 0] = 99.0
    rho1[:] = 0.0
    assert appendix_measurement()[0][0, 0] == 1.0
    assert np.trace(appendix_states()[0]) == 1.0
    assert build_fixtures()["e1"][0, 0] == 1.0

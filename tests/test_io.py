import json

import numpy as np
import pytest

from gptcone.cones import SEP, ConeRep
from gptcone.herm import BipartiteDims, ValidationError
from gptcone.io import (
    cone_from_json,
    cone_to_json,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    measurement_from_json,
    measurement_to_json,
    save_matrix,
)
from gptcone.sampling import random_state


def test_matrix_roundtrip_exact():
    for seed in range(5):
        A = random_state(4, np.random.default_rng(seed))
        B = matrix_from_json(matrix_to_json(A))
        assert np.array_equal(A, B) or np.max(np.abs(A - B)) < 1e-16


def test_matrix_file_roundtrip(tmp_path):
    A = random_state(6, np.random.default_rng(7))
    path = tmp_path / "state.json"
    save_matrix(path, A)
    assert np.max(np.abs(load_matrix(path) - A)) < 1e-16


def test_matrix_json_is_plain(tmp_path):
    A = np.diag([0.5, 0.5]).astype(complex)
    path = tmp_path / "m.json"
    save_matrix(path, A)
    obj = json.loads(path.read_text())
    assert obj["dim"] == 2
    assert obj["re"][0][0] == 0.5


def test_matrix_from_json_validation():
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 3, "re": [[1, 0], [0, 1]],
                          "im": [[0, 0], [0, 0]]})


def test_cone_roundtrip():
    gens = [np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)]
    cone = ConeRep(dim=4, generators=gens, oracle=SEP,
                   params={"note": "axes"}, dims=BipartiteDims(2, 2))
    back = cone_from_json(cone_to_json(cone))
    assert back.oracle == SEP
    assert back.dim == 4
    assert back.dims == cone.dims
    assert back.params == {"note": "axes"}
    assert all(np.max(np.abs(a - b)) < 1e-16
               for a, b in zip(back.generators, gens))


def test_cone_from_json_needs_dimension():
    with pytest.raises(ValidationError):
        cone_from_json({"tag": None, "generators": []})


def test_measurement_roundtrip():
    effects = [np.diag([1.0, 0.0]).astype(complex),
               np.diag([0.0, 1.0]).astype(complex)]
    back = measurement_from_json(measurement_to_json(effects))
    assert len(back) == 2
    assert all(np.max(np.abs(a - b)) < 1e-16 for a, b in zip(back, effects))
    with pytest.raises(ValidationError):
        measurement_from_json({"operators": []})


def test_cone_from_json_rejects_unknown_tags_and_missing_params():
    with pytest.raises(ValidationError, match="unknown cone tag"):
        cone_from_json({"tag": "SEPARABLE", "dim": 4})
    with pytest.raises(ValidationError):
        cone_from_json({"tag": SEP, "dim": 4})
    with pytest.raises(ValidationError):
        cone_from_json({"tag": "SHRUNK_BLOCH", "dim": 2, "params": {}})
    with pytest.raises(ValidationError):
        cone_from_json({"tag": "SHRUNK_BLOCH", "dim": 2,
                        "params": {"p": "0.5"}})

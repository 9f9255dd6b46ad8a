"""Canonical 2 x 2 (x) 2 x 2 fixtures used by the worked examples.

The matrices ship as JSON data files with SHA-256 checksums; loading
verifies the checksum so a silently edited fixture fails loudly.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

import numpy as np

from .herm import BipartiteDims, ValidationError, tensor
from .io import matrix_from_json

DIMS_22 = BipartiteDims(2, 2)

_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def build_fixtures() -> dict:
    """Construct every fixture matrix from scratch."""
    s3 = np.sqrt(3.0)
    sigma1 = np.array([
        [3, s3, s3, s3],
        [s3, 1, 1, 1],
        [s3, 1, 1, 1],
        [s3, 1, 1, 1],
    ], dtype=complex) / 6.0
    sigma2 = np.array([
        [3, -s3, -s3, -s3],
        [-s3, 1, 1, 1],
        [-s3, 1, 1, 1],
        [-s3, 1, 1, 1],
    ], dtype=complex) / 6.0
    e1 = np.array([
        [2, 0, 0, -1],
        [0, 0, -1, 0],
        [0, -1, 0, 0],
        [-1, 0, 0, 2],
    ], dtype=complex) / 2.0
    e2 = np.array([
        [0, 0, 0, 1],
        [0, 2, 1, 0],
        [0, 1, 2, 0],
        [1, 0, 0, 0],
    ], dtype=complex) / 2.0
    return {
        "rho1": tensor(_P0, _P0),
        "rho2": tensor(_PLUS, _PLUS),
        "sigma1": sigma1,
        "sigma2": sigma2,
        "e1": e1,
        "e2": e2,
    }


def _data_text(name: str) -> str:
    return resources.files("gptcone.data").joinpath(name).read_text()


def load_fixture(name: str) -> np.ndarray:
    """Load a fixture matrix from the package data, verifying its checksum."""
    text = _data_text(f"{name}.json")
    manifest = json.loads(_data_text("checksums.json"))
    if name not in manifest:
        raise ValidationError(f"no checksum recorded for fixture {name!r}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != manifest[name]:
        raise ValidationError(f"fixture {name!r} failed its checksum")
    return matrix_from_json(json.loads(text))


def appendix_states():
    """(rho1, rho2, sigma1, sigma2): the entropy-example quartet."""
    return tuple(load_fixture(n) for n in ("rho1", "rho2", "sigma1", "sigma2"))


def appendix_measurement():
    """(e1, e2): the beyond-quantum two-outcome fixture."""
    return load_fixture("e1"), load_fixture("e2")

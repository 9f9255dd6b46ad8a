"""Canonical 2 x 2 (x) 2 x 2 fixtures used by the worked examples,
built from their closed forms on every call."""

from __future__ import annotations

import numpy as np

from .herm import BipartiteDims, tensor

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


def appendix_states():
    """(rho1, rho2, sigma1, sigma2): the entropy-example quartet."""
    f = build_fixtures()
    return f["rho1"], f["rho2"], f["sigma1"], f["sigma2"]


def appendix_measurement():
    """(e1, e2): the beyond-quantum two-outcome fixture."""
    f = build_fixtures()
    return f["e1"], f["e2"]

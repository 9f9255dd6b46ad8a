"""JSON serialization for matrices, cones, and report payloads.

Matrix files: ``{"dim": d, "re": d x d array, "im": d x d array}``.
Cone files: ``{"tag":..., "params":..., "generators": [matrix...],
"dual_generators": [matrix...]}``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .herm import BipartiteDims, ValidationError, ensure_herm


def matrix_to_json(A) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    return {
        "dim": A.shape[0],
        "re": A.real.tolist(),
        "im": A.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValidationError(f"matrix object missing field {key!r}")
    d = obj["dim"]
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValidationError(
            f"matrix fields 're'/'im' must be {d}x{d} arrays")
    return ensure_herm(re + 1j * im)


def save_matrix(path, A):
    Path(path).write_text(json.dumps(matrix_to_json(A), indent=1))


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(json.loads(Path(path).read_text()))


def cone_to_json(cone) -> dict:
    return {
        "tag": cone.oracle,
        "params": cone.params,
        "dim": cone.dim,
        "dims": [cone.dims.dA, cone.dims.dB] if cone.dims else None,
        "generators": [matrix_to_json(g) for g in cone.generators],
        "dual_generators": [matrix_to_json(h) for h in cone.dual_generators],
    }


def cone_from_json(obj: dict):
    from .cones import ConeRep

    dims = None
    if obj.get("dims"):
        dims = BipartiteDims(*obj["dims"])
    gens = [matrix_from_json(g) for g in obj.get("generators", [])]
    duals = [matrix_from_json(h) for h in obj.get("dual_generators", [])]
    dim = obj.get("dim")
    if dim is None:
        if gens:
            dim = gens[0].shape[0]
        elif duals:
            dim = duals[0].shape[0]
        elif dims:
            dim = dims.total
        else:
            raise ValidationError("cone object has no dimension information")
    return ConeRep(dim=dim, generators=gens, dual_generators=duals,
                   oracle=obj.get("tag"), params=obj.get("params") or {},
                   dims=dims)


def load_cone(path):
    return cone_from_json(json.loads(Path(path).read_text()))


def measurement_to_json(effects) -> dict:
    return {"effects": [matrix_to_json(e) for e in effects]}


def measurement_from_json(obj: dict) -> list:
    if "effects" not in obj:
        raise ValidationError("measurement object missing field 'effects'")
    return [matrix_from_json(e) for e in obj["effects"]]


def load_measurement(path) -> list:
    return measurement_from_json(json.loads(Path(path).read_text()))

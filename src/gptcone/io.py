"""JSON serialization for matrices, cones, and report payloads.

Matrix files: ``{"dim": d, "re": d x d array, "im": d x d array}``.
Cone files: ``{"tag":..., "params":..., "dim": d, "dims": [dA, dB],
"generators": [matrix...]}``; the tag defaults to ``PSD`` and a missing
``dim`` is inferred by :class:`~gptcone.cones.ConeRep`; a field of the
wrong JSON type is rejected with :class:`ValidationError`.  A cone cut
out by halfspaces has no cone file, so a non-empty ``dual_generators``
field is rejected.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cones import ConeRep
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
    if not isinstance(obj, dict):
        raise ValidationError("a matrix is one JSON object")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValidationError(f"matrix object missing field {key!r}")
    d = obj["dim"]
    if type(d) is not int or d < 1:
        raise ValidationError("matrix field 'dim' must be a positive integer")
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
        "params": dict(cone.params),
        "dim": cone.dim,
        "dims": [cone.dims.dA, cone.dims.dB] if cone.dims else None,
        "generators": [matrix_to_json(g) for g in cone.generators],
    }


def cone_from_json(obj: dict):
    if not isinstance(obj, dict):
        raise ValidationError("a cone file holds one JSON object")
    if obj.get("dual_generators"):
        raise ValidationError("halfspace-only cones are not supported: "
                              "'dual_generators' must be empty")
    tag, params = obj.get("tag"), obj.get("params")
    if tag is not None and not isinstance(tag, str):
        raise ValidationError("cone field 'tag' must be a string")
    if params is not None and not isinstance(params, dict):
        raise ValidationError("cone field 'params' must be an object")
    dims = obj.get("dims")
    if dims is not None:
        if not isinstance(dims, list) or len(dims) != 2:
            raise ValidationError("cone field 'dims' must be two integers")
        dims = BipartiteDims(*dims)
    gens = obj.get("generators", [])
    if not isinstance(gens, list):
        raise ValidationError("cone field 'generators' must be a list")
    gens = [matrix_from_json(g) for g in gens]
    dim = obj.get("dim")
    if dim is not None and (type(dim) is not int or dim < 1):
        raise ValidationError("cone field 'dim' must be a positive integer")
    return ConeRep(dim=dim, generators=gens, oracle=tag, params=params or {},
                   dims=dims)


def load_cone(path):
    return cone_from_json(json.loads(Path(path).read_text()))


def measurement_to_json(measurement) -> dict:
    effects = getattr(measurement, "effects", measurement)
    return {"effects": [matrix_to_json(e) for e in effects]}


def measurement_from_json(obj: dict) -> list:
    if not isinstance(obj, dict):
        raise ValidationError("a measurement is one JSON object")
    if not isinstance(obj.get("effects"), list):
        raise ValidationError("measurement field 'effects' must be a list")
    return [matrix_from_json(e) for e in obj["effects"]]


def load_measurement(path) -> list:
    return measurement_from_json(json.loads(Path(path).read_text()))

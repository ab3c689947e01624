"""Layered-stack geometry and its JSON document format.

A stack occupies ``[z_min, z_min + total thickness]`` along the normal axis,
as a finite list of homogeneous layers. The JSON schema is::

    {"c": <number>, "z_min": <number>,
     "layers": [{"thickness": <number>,
                 "material": {"label": <str>, "eps": <model>, "mu": <model>}}]}

where ``<model>`` is one of::

    {"kind": "constant", "value": <cmat3>}
    {"kind": "drude", "plasma_freq": <number>, "collision_rate": <number>}
    {"kind": "herglotz_discrete", "alpha": <cmat3>, "beta": <cmat3>,
     "poles": [<number>...], "weights": [<cmat3>...]}

and ``<cmat3>`` is a 3×3 complex matrix written as nested ``[re, im]`` pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GeometryError, ParameterError, StackParseError, ToolkitError
from .herglotz import (
    ConstantModel,
    DrudeModel,
    HerglotzModel,
    MaterialSpec,
    ResponseModel,
)
from .report import to_jsonable

__all__ = [
    "Layer",
    "StackSpec",
    "make_sandwich",
    "locate",
    "parse_stack",
    "stack_to_json",
    "material_to_json",
    "material_from_json",
    "model_to_json",
    "model_from_json",
]


@dataclass(frozen=True)
class Layer:
    """One homogeneous slab: positive thickness plus its material."""

    thickness: float
    material: MaterialSpec

    def __post_init__(self):
        t = float(self.thickness)
        if not (np.isfinite(t) and t > 0.0):
            raise ParameterError(f"layer thickness must be > 0, got {self.thickness}")
        object.__setattr__(self, "thickness", t)


@dataclass(frozen=True)
class StackSpec:
    """A finite layered medium starting at ``z_min``."""

    z_min: float
    layers: tuple[Layer, ...]
    c: float = 1.0

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ParameterError("a stack needs at least one layer")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "z_min", float(self.z_min))
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ParameterError(f"c must be > 0, got {self.c}")
        object.__setattr__(self, "c", float(self.c))

    @property
    def boundaries(self) -> np.ndarray:
        """Interface coordinates, ``z_min`` through ``z_max`` inclusive."""
        t = np.array([ly.thickness for ly in self.layers])
        return self.z_min + np.concatenate(([0.0], np.cumsum(t)))

    @property
    def z_max(self) -> float:
        return float(self.boundaries[-1])


def make_sandwich(d: float, d2: float, outer: MaterialSpec, core: MaterialSpec,
                  c: float = 1.0) -> StackSpec:
    """Symmetric three-layer stack on ``[-d, d]`` with a core of half-width d2.

    Layer thicknesses are ``(d - d2, 2*d2, d - d2)``; the outer material fills
    the two flanking slabs.
    """
    if not (0.0 < d2 < d):
        raise ParameterError(f"need 0 < d2 < d, got d={d}, d2={d2}")
    return StackSpec(z_min=-float(d), c=c, layers=(
        Layer(d - d2, outer), Layer(2.0 * d2, core), Layer(d - d2, outer)))


def locate(stack: StackSpec, z):
    """Find the layer containing ``z`` and the offset from its left face.

    Interface points belong to the layer on their left, except ``z_min``
    which belongs to layer 0. An array of coordinates gives arrays of
    layer indices and offsets.

    Raises
    ------
    GeometryError
        If ``z`` lies outside ``[z_min, z_max]``.
    """
    b = stack.boundaries
    zs = np.asarray(z, dtype=float)
    if not np.all((zs >= b[0]) & (zs <= b[-1])):
        raise GeometryError(f"z={z} outside the stack [{b[0]}, {b[-1]}]")
    idx = np.clip(np.searchsorted(b, zs, side="left") - 1, 0, len(stack.layers) - 1)
    return (int(idx), float(zs - b[idx])) if zs.ndim == 0 else (idx, zs - b[idx])


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------

def _fail(key: str, msg: str):
    raise StackParseError(f"{key}: {msg}", key=key)


def _get(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    if key not in doc:
        _fail(f"{path}.{key}" if path else key, "missing required key")
    return doc[key]


def _number(x, key: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(key, f"expected a number, got {type(x).__name__}")
    if not np.isfinite(x):
        _fail(key, "must be finite")
    return float(x)


def _cmat_from_json(obj, key: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        _fail(key, "expected nested [re, im] pairs")
    if arr.shape != (3, 3, 2):
        _fail(key, f"expected a 3x3 complex matrix as [re, im] pairs, "
                   f"got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def model_from_json(obj: dict, key: str) -> ResponseModel:
    """Decode one response model document (see module docstring for kinds)."""
    kind = _get(obj, "kind", key)
    try:
        if kind == "constant":
            return ConstantModel(_cmat_from_json(_get(obj, "value", key),
                                                 f"{key}.value"))
        if kind == "drude":
            return DrudeModel(_number(_get(obj, "plasma_freq", key), f"{key}.plasma_freq"),
                              _number(_get(obj, "collision_rate", key),
                                      f"{key}.collision_rate"),
                              dim=3)
        if kind == "herglotz_discrete":
            poles_doc = _get(obj, "poles", key)
            weights_doc = _get(obj, "weights", key)
            if not isinstance(poles_doc, list) or not isinstance(weights_doc, list):
                _fail(f"{key}.poles", "poles and weights must be lists")
            if len(poles_doc) != len(weights_doc):
                _fail(f"{key}.weights", "weights must match poles in length")
            poles = [_number(p, f"{key}.poles[{i}]") for i, p in enumerate(poles_doc)]
            weights = [_cmat_from_json(w, f"{key}.weights[{i}]")
                       for i, w in enumerate(weights_doc)]
            return HerglotzModel(
                dim=3,
                alpha=_cmat_from_json(_get(obj, "alpha", key), f"{key}.alpha"),
                beta=_cmat_from_json(_get(obj, "beta", key), f"{key}.beta"),
                poles=np.array(poles),
                weights=np.array(weights).reshape(len(poles), 3, 3),
            )
    except StackParseError:
        raise
    except ToolkitError as exc:
        _fail(key, str(exc))
    _fail(f"{key}.kind", f"unknown model kind {kind!r}")


def model_to_json(model: ResponseModel) -> dict:
    """Encode a response model back to its JSON document."""
    if isinstance(model, ConstantModel):
        return {"kind": "constant", "value": to_jsonable(model.value)}
    if isinstance(model, DrudeModel):
        return {"kind": "drude", "plasma_freq": model.plasma_freq,
                "collision_rate": model.collision_rate}
    if isinstance(model, HerglotzModel):
        return {"kind": "herglotz_discrete",
                "alpha": to_jsonable(model.alpha),
                "beta": to_jsonable(model.beta),
                "poles": [float(p) for p in model.poles],
                "weights": to_jsonable(model.weights)}
    raise ParameterError(f"cannot serialize model of type {type(model).__name__}")


def material_from_json(obj: dict, key: str = "material") -> MaterialSpec:
    label = _get(obj, "label", key)
    if not isinstance(label, str):
        _fail(f"{key}.label", "must be a string")
    eps = model_from_json(_get(obj, "eps", key), f"{key}.eps")
    mu = model_from_json(_get(obj, "mu", key), f"{key}.mu")
    return MaterialSpec(label, eps, mu)


def material_to_json(mat: MaterialSpec) -> dict:
    return {"label": mat.label, "eps": model_to_json(mat.eps_model),
            "mu": model_to_json(mat.mu_model)}


def parse_stack(doc: dict) -> StackSpec:
    """Validate and decode the stack object found at ``doc["stack"]``.

    ``c`` may be omitted and defaults to 1. Raises
    :class:`~dtnstack.exceptions.StackParseError` naming the offending key
    (dotted path) on any schema violation.
    """
    if not isinstance(doc, dict):
        _fail("stack", "enclosing document must be a JSON object")
    obj = _get(doc, "stack", "")
    if not isinstance(obj, dict):
        _fail("stack", "must be a JSON object")
    c = _number(obj.get("c", 1.0), "stack.c")
    z_min = _number(_get(obj, "z_min", "stack"), "stack.z_min")
    layers_doc = _get(obj, "layers", "stack")
    if not isinstance(layers_doc, list) or not layers_doc:
        _fail("stack.layers", "must be a non-empty list")
    layers = []
    for i, ld in enumerate(layers_doc):
        lkey = f"stack.layers[{i}]"
        t = _number(_get(ld, "thickness", lkey), f"{lkey}.thickness")
        if t <= 0:
            _fail(f"{lkey}.thickness", f"must be > 0, got {t}")
        layers.append(Layer(t, material_from_json(_get(ld, "material", lkey),
                                                  f"{lkey}.material")))
    try:
        return StackSpec(z_min=z_min, layers=tuple(layers), c=c)
    except ToolkitError as exc:
        _fail("stack", str(exc))


def stack_to_json(stack: StackSpec) -> dict:
    return {"c": stack.c, "z_min": stack.z_min,
            "layers": [{"thickness": ly.thickness,
                        "material": material_to_json(ly.material)}
                       for ly in stack.layers]}

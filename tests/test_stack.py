import json

import numpy as np
import pytest

from dtnstack import (
    GeometryError,
    Layer,
    ParameterError,
    StackParseError,
    StackSpec,
    locate,
    make_sandwich,
    parse_stack,
    vacuum_material,
)


def test_sandwich_geometry():
    outer = vacuum_material()
    core = vacuum_material()
    s = make_sandwich(d=1.0, d2=0.25, outer=outer, core=core)
    assert s.z_min == pytest.approx(-1.0)
    assert s.z_max == pytest.approx(1.0)
    assert np.allclose(s.boundaries, [-1.0, -0.25, 0.25, 1.0])
    assert [l.thickness for l in s.layers] == pytest.approx([0.75, 0.5, 0.75])


def test_sandwich_rejects_inverted_widths():
    with pytest.raises(ParameterError):
        make_sandwich(d=0.2, d2=0.5, outer=vacuum_material(),
                      core=vacuum_material())


def _three_layer():
    m = vacuum_material()
    return StackSpec(z_min=-2.0, layers=(
        Layer(1.0, m), Layer(2.0, m), Layer(1.0, m)))


def test_locate_cases():
    s = _three_layer()  # boundaries -2, -1, 1, 2
    assert locate(s, -2.0) == (0, 0.0)
    assert locate(s, -1.5) == (0, 0.5)
    # Interior boundaries belong to the layer below them.
    assert locate(s, -1.0) == (0, 1.0)
    idx, off = locate(s, 0.0)
    assert idx == 1 and off == pytest.approx(1.0)
    assert locate(s, 2.0) == (2, 1.0)
    with pytest.raises(GeometryError):
        locate(s, 2.0000001)
    with pytest.raises(GeometryError):
        locate(s, -2.1)


def test_layer_requires_positive_thickness():
    with pytest.raises(ParameterError):
        Layer(thickness=0.0, material=vacuum_material())
    with pytest.raises(ParameterError):
        Layer(thickness=-1.0, material=vacuum_material())


def test_stack_requires_layers():
    with pytest.raises(ParameterError):
        StackSpec(z_min=0.0, layers=())


ID3 = [[[1, 0], [0, 0], [0, 0]],
       [[0, 0], [1, 0], [0, 0]],
       [[0, 0], [0, 0], [1, 0]]]


def _layer(thickness, eps, mu=None):
    mu = mu or {"kind": "constant", "value": ID3}
    return {"thickness": thickness,
            "material": {"label": "m", "eps": eps, "mu": mu}}


def test_parse_constant_document():
    value = [[[2, 0.5], [0, -1], [0, 0]],
             [[0, 1], [3, 0], [0, 0]],
             [[0, 0], [0, 0], [1.5, 0.25]]]
    doc = json.loads(json.dumps({"stack": {"z_min": -2.0, "layers": [
        _layer(0.5, {"kind": "constant", "value": value}),
        _layer(1.5, {"kind": "constant", "value": ID3})]}}))
    s = parse_stack(doc)
    assert s.z_min == -2.0 and s.c == 1.0
    assert [ly.thickness for ly in s.layers] == [0.5, 1.5]
    expected = np.array([[2 + 0.5j, -1j, 0], [1j, 3, 0], [0, 0, 1.5 + 0.25j]])
    assert np.array_equal(s.layers[0].material.eps_model.value, expected)
    assert np.array_equal(s.layers[1].material.eps_model.value, np.eye(3))


def test_parse_dispersive_document():
    weight = [[[1, 0], [0, 0.5], [0, 0]],
              [[0, -0.5], [1, 0], [0, 0]],
              [[0, 0], [0, 0], [2, 0]]]
    herglotz = {"kind": "herglotz_discrete",
                "alpha": ID3,
                "beta": [[[0.5, 0], [0, 0], [0, 0]],
                         [[0, 0], [-0.25, 0], [0, 0]],
                         [[0, 0], [0, 0], [0, 0]]],
                "poles": [-1.0, 2.5],
                "weights": [weight, ID3]}
    drude = {"kind": "drude", "plasma_freq": 1.25, "collision_rate": 0.125}
    doc = json.loads(json.dumps({"stack": {"z_min": 0.0, "c": 2.0, "layers": [
        _layer(0.5, herglotz), _layer(0.5, drude)]}}))
    s = parse_stack(doc)
    assert s.c == 2.0
    b = s.layers[0].material.eps_model
    assert b.kind == "herglotz_discrete"
    assert np.array_equal(b.alpha, np.eye(3))
    assert np.array_equal(b.beta, np.diag([0.5, -0.25, 0]))
    w0 = np.array([[1, 0.5j, 0], [-0.5j, 1, 0], [0, 0, 2]])
    assert np.array_equal(b.weights, np.stack([w0, np.eye(3)]))
    assert b.poles.tolist() == [-1.0, 2.5]
    d = s.layers[1].material.eps_model
    assert d.kind == "drude"
    assert (d.plasma_freq, d.collision_rate, d.dim) == (1.25, 0.125, 3)


def test_parse_errors_name_the_offending_key():
    with pytest.raises(StackParseError) as exc:
        parse_stack({})
    assert "stack" in str(exc.value)

    doc = {"stack": {"z_min": 0.0, "layers": [
        {"thickness": 1.0, "material": {
            "label": "x",
            "eps": {"kind": "nonsense"},
            "mu": {"kind": "constant",
                   "value": [[[1, 0], [0, 0], [0, 0]],
                             [[0, 0], [1, 0], [0, 0]],
                             [[0, 0], [0, 0], [1, 0]]]},
        }}]}}
    with pytest.raises(StackParseError) as exc:
        parse_stack(doc)
    assert "stack.layers[0].material.eps.kind" in str(exc.value)

    doc2 = {"stack": {"z_min": 0.0, "layers": [
        {"thickness": "wide", "material": None}]}}
    with pytest.raises(StackParseError) as exc:
        parse_stack(doc2)
    assert "stack.layers[0].thickness" in str(exc.value)


def test_parse_rejects_nonpositive_thickness():
    doc = {"stack": {"z_min": 0.0, "layers": [
        {"thickness": -2.0, "material": {
            "label": "v",
            "eps": {"kind": "constant",
                    "value": [[[1, 0], [0, 0], [0, 0]],
                              [[0, 0], [1, 0], [0, 0]],
                              [[0, 0], [0, 0], [1, 0]]]},
            "mu": {"kind": "constant",
                   "value": [[[1, 0], [0, 0], [0, 0]],
                             [[0, 0], [1, 0], [0, 0]],
                             [[0, 0], [0, 0], [1, 0]]]},
        }}]}}
    with pytest.raises(StackParseError) as exc:
        parse_stack(doc)
    assert "thickness" in str(exc.value)

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dtnstack import report
from dtnstack.analyticity import PointRecord
from dtnstack.exceptions import ParameterError
from dtnstack.report import (
    SWEEP_COLUMNS,
    _fmt_float,
    dumps_deterministic,
    emit_report,
    make_report_body,
    versions,
    write_sweep_csv,
)


def test_dumps_complex_numpy_tuples_and_paths():
    loads = lambda obj: json.loads(dumps_deterministic(obj))
    assert loads(1 + 2j) == [1.0, 2.0]
    assert loads(np.complex128(-0.5 + 3j)) == [-0.5, 3.0]
    assert loads(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert loads(np.array([[1j], [2]])) == [[[0.0, 1.0]], [[2.0, 0.0]]]
    assert loads(np.float64(0.5)) == 0.5
    assert loads(np.float32(0.5)) == 0.5
    assert loads(np.bool_(True)) is True
    assert loads({"b": 1, "a": np.int64(2)}) == {"b": 1, "a": 2}
    assert loads((True, False)) == [True, False]
    assert loads({"p": Path("sub") / "x.csv"}) == {"p": str(Path("sub") / "x.csv")}
    # a complex value is written as the two-element list it stands for
    assert dumps_deterministic({"w": 1 + 2j}) == dumps_deterministic({"w": [1.0, 2.0]})
    with pytest.raises(ParameterError):
        dumps_deterministic({"x": object()})


def _boxed(obj):
    """``obj`` with every Python float an ``np.float64`` and every complex
    value its ``[re, im]`` pair of them: no list of it is a list of Python
    floats only, so every value is written element by element."""
    if type(obj) is float:
        return np.float64(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [np.float64(obj.real), np.float64(obj.imag)]
    if isinstance(obj, dict):
        return {k: _boxed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_boxed(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return _boxed(obj.tolist())
    return obj


def test_float_list_template_matches_per_element_text():
    # lists of finite Python floats take one cached %.17g template; the text
    # is byte for byte what each element written on its own gives
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(float)
    finite = bits[np.isfinite(bits)].tolist()
    obj = {
        "random": finite,
        "edges": [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                  1e16, 123456789012345678.0, 0.1, 1.0 / 3.0],
        "overflowing sum": [1e308, 1e308],
        "nan": [1.0, math.nan], "inf": [math.inf, 2.0], "-inf": [-math.inf],
        "numpy floats": [np.float64(0.5), 0.25], "numpy bools": [np.bool_(True), 0.5],
        "bools": [True, 1.5], "ints": [3, 0.5], "empty": [], "nested": [[], [[]], [1.5, 2.5]],
        "tuple": (0.1, 0.2), "tuples": ((1.0, 2.0), (3.5,)),
        "complex": [1 + 2j, np.complex128(-0.5j)], "complex array": np.array([1j, 2.0]),
        "array": np.linspace(-1.0, 1.0, 7),
        "matrix": np.arange(6.0).reshape(2, 3), "path": Path("sub") / "x.csv",
        3: [4.0], True: {"deep": [[0.5, -0.5], [0.25]]},
    }
    report._float_list_template.cache_clear()
    text = dumps_deterministic(obj)
    assert report._float_list_template.cache_info().currsize > 0
    report._float_list_template.cache_clear()
    assert text == dumps_deterministic(_boxed(obj))
    assert report._float_list_template.cache_info().currsize == 0
    for x in finite[:500]:
        assert "%.17g" % x == _fmt_float(x)


def test_dumps_deterministic_sorted_and_17_digits():
    s = dumps_deterministic({"b": 2.0, "a": 1.0 / 3.0})
    assert s.index('"a"') < s.index('"b"')
    assert "0.33333333333333331" in s
    # output is strict JSON
    assert json.loads(s) == {"a": 1.0 / 3.0, "b": 2.0}


def test_dumps_handles_nonfinite():
    s = dumps_deterministic({"x": math.inf, "y": math.nan, "z": -math.inf})
    d = json.loads(s)
    assert d["x"] == "inf" and d["z"] == "-inf" and d["y"] == "nan"


def test_fmt_float_frozen():
    assert _fmt_float(math.nan) == '"nan"'
    assert _fmt_float(math.inf) == '"inf"'
    assert _fmt_float(-math.inf) == '"-inf"'
    assert _fmt_float(-0.0) == "-0"
    assert _fmt_float(np.float64(0.1)) == "0.10000000000000001"
    assert _fmt_float(1e-300) == "1e-300"


def test_dumps_is_reproducible():
    body = {"m": [1 + 1j, 2 - 3j], "k": {"nested": np.arange(3)}}
    assert dumps_deterministic(body) == dumps_deterministic(body)


def test_versions_fields():
    v = versions()
    assert set(v) == {"artifact", "numpy"}


def test_make_report_body_fixed_fields():
    body = make_report_body("dtn", {"x": 1}, {"y": 2.0}, ["note"])
    assert list(sorted(body)) == ["anomalies", "command", "config_echo",
                                  "results", "versions"]
    assert body["command"] == "dtn"
    assert body["anomalies"] == ["note"]


def test_emit_report_writes_body_and_sidecar(tmp_path):
    body = make_report_body("transfer", {}, {"value": 1.5}, [])
    p = emit_report(tmp_path / "sub", body)
    assert p == tmp_path / "sub" / "report.json"
    d = json.loads(p.read_text())
    assert d["results"]["value"] == 1.5
    meta = json.loads((tmp_path / "sub" / "run_meta.json").read_text())
    assert "timestamp" in meta
    # the timestamp never leaks into the body
    assert "timestamp" not in p.read_text()


def _record(w, seed):
    rng = np.random.default_rng(seed)
    comp = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return PointRecord(w, 0.5, 1e-9, 3.0, comp)


def test_write_sweep_csv_layout(tmp_path):
    recs = [_record(1 + 1j, 1), _record(-1 + 0.5j, 2), _record(-1 + 2j, 3)]
    p = write_sweep_csv(tmp_path / "sweep.csv", recs)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "# " + ",".join(SWEEP_COLUMNS)
    assert len(SWEEP_COLUMNS) == 5 + 32
    # sorted by (re, im): the -1+0.5j row comes first
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == 0.5
    assert [float(r.split(",")[1]) for r in lines[1:]] == [0.5, 2.0, 1.0]
    # every row carries all columns
    assert all(len(r.split(",")) == len(SWEEP_COLUMNS) for r in lines[1:])


def test_write_sweep_csv_deterministic(tmp_path):
    recs = [_record(0.5j, 4), _record(1j, 5)]
    p1 = write_sweep_csv(tmp_path / "a.csv", recs)
    p2 = write_sweep_csv(tmp_path / "b.csv", list(reversed(recs)))
    assert p1.read_bytes() == p2.read_bytes()

"""Deterministic report emission (JSON bodies and sweep CSV).

Identical inputs must produce byte-identical report bodies, so the JSON
writer here is deliberately boring: keys sorted, floats printed with 17
significant digits (full double round-trip fidelity), complex values as
``[re, im]`` pairs, no timestamps. The wall-clock timestamp goes into a
sidecar file next to the report, excluded from any byte comparison.
"""
from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from .exceptions import ParameterError

__all__ = [
    "dumps_deterministic",
    "make_report_body",
    "emit_report",
    "write_sweep_csv",
    "versions",
]

PACKAGE_VERSION = "0.1.0"

_SEQUENCES = (list, tuple)
_FLOAT_ONLY = {float}


def _fmt_float(x: float) -> str:
    x = float(x)
    if math.isfinite(x):
        return format(x, ".17g")
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


@lru_cache(maxsize=256)
def _float_list_template(length: int, level: int) -> str:
    """``%``-template of a list of ``length`` finite floats at ``level``: the
    text :func:`_write` gives it element by element (``%.17g`` is
    ``format(x, ".17g")``)."""
    return ("[\n" + ",\n".join(["  " * (level + 1) + "%.17g"] * length)
            + "\n" + "  " * level + "]")


@lru_cache(maxsize=1024)
def _key_text(key: str, level: int) -> str:
    """Indented text of a dict key at ``level``."""
    return f"{'  ' * level}{json.dumps(key)}: "


def _write(obj, level: int, out: list):
    """Append the JSON text of ``obj`` to ``out``: numpy arrays as nested
    lists, tuples as lists, complex values as ``[re, im]`` and paths as
    strings. A list of finite Python floats only (all of a numpy float
    array's rows) takes one cached template."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if (type(obj) in _SEQUENCES and obj and type(obj[0]) is float
            and set(map(type, obj)) == _FLOAT_ONLY
            and math.isfinite(sum(obj))):  # a nan or an inf makes the sum non-finite
        out.append(_float_list_template(len(obj), level) % tuple(obj))
        return
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj, key=str)
        for i, k in enumerate(keys):
            out.append(_key_text(str(k), level + 1))
            _write(obj[k], level + 1, out)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        pad_in = pad + "  "
        for i, v in enumerate(obj):
            out.append(pad_in)
            _write(v, level + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _write([float(obj.real), float(obj.imag)], level, out)
    elif isinstance(obj, (str, Path)):
        out.append(json.dumps(str(obj)))
    elif obj is None:
        out.append("null")
    else:
        raise ParameterError(f"cannot serialize value of type {type(obj).__name__}")


def dumps_deterministic(obj) -> str:
    """Serialize to JSON text with sorted keys, %.17g floats and a two-space
    indent."""
    out: list = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


def versions() -> dict:
    return {"artifact": PACKAGE_VERSION, "numpy": np.__version__}


def make_report_body(command: str, config_echo, results, anomalies) -> dict:
    """The five fixed top-level report fields."""
    return {
        "config_echo": config_echo,
        "command": command,
        "results": results,
        "anomalies": [str(a) for a in anomalies],
        "versions": versions(),
    }


def emit_report(out_dir, body: dict) -> Path:
    """Write the deterministic ``report.json`` plus a timestamp sidecar.

    Returns the path of the report file. The sidecar (``run_meta.json``)
    carries the only nondeterministic field and is excluded from byte
    comparisons by construction.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(dumps_deterministic(body), encoding="utf-8")
    meta = {"timestamp": datetime.now(timezone.utc).isoformat()}
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                       encoding="utf-8")
    return path


#: 4×4 tangential-compression entry order used in sweep CSV columns
_COMP_COLUMNS = [f"lam_{i}{j}_{part}" for i in range(4) for j in range(4)
                 for part in ("re", "im")]

SWEEP_COLUMNS = ["omega_re", "omega_im", "min_im_eig", "worst_cr",
                 "condition_T12"] + _COMP_COLUMNS


def write_sweep_csv(path, records) -> Path:
    """Write sweep records (see ``PointRecord``) as a deterministic CSV.

    The first line is a ``#`` comment naming all columns; rows are sorted by
    ``(omega_re, omega_im)``; every number uses 17 significant digits.
    """
    path = Path(path)
    rows = sorted(records, key=lambda r: (r.omega.real, r.omega.imag))
    lines = ["# " + ",".join(SWEEP_COLUMNS)]
    for r in rows:
        vals = [r.omega.real, r.omega.imag, r.min_im_eig, r.worst_cr,
                r.condition_T12]
        comp = np.asarray(r.compression, dtype=complex)
        for i in range(4):
            for j in range(4):
                vals.extend([comp[i, j].real, comp[i, j].imag])
        lines.append(",".join(_fmt_float(v).strip('"') for v in vals))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path

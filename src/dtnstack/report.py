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
from pathlib import Path

import numpy as np

from .exceptions import ParameterError

__all__ = [
    "to_jsonable",
    "dumps_deterministic",
    "make_report_body",
    "emit_report",
    "write_sweep_csv",
    "versions",
]

PACKAGE_VERSION = "0.1.0"


def _fmt_float(x: float) -> str:
    x = float(x)
    if math.isfinite(x):
        return format(x, ".17g")
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def to_jsonable(obj):
    """Normalize numpy/complex/path values into plain JSON-ready data."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, Path):
        return str(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise ParameterError(f"cannot serialize value of type {type(obj).__name__}")


def _write(obj, level: int, out: list):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            out.append(f"{pad_in}{json.dumps(k)}: ")
            _write(obj[k], level + 1, out)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad_in)
            _write(v, level + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:  # pragma: no cover - to_jsonable normalizes first
        raise ParameterError(f"cannot serialize value of type {type(obj).__name__}")


def dumps_deterministic(obj) -> str:
    """Serialize to JSON text with sorted keys, %.17g floats and a two-space
    indent."""
    out: list = []
    _write(to_jsonable(obj), 0, out)
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

"""Compare the command-line outputs of this checkout with another checkout's.

Run from anywhere::

    python3 scripts/compare_outputs.py OTHER_ROOT

Both checkouts run, with warnings as errors, the six commands on every
bundled config of this checkout and every op of the benchmark workloads at
the snapshot seed (``bench_snapshot.SEED``) with that op's flags; the
workload configs come from ``perfbench/workloads.generate`` of this
checkout, so both sides read the same inputs. Each run whose
``report.json``, ``sweep.csv``, exit code, stdout or stderr differs is
printed, with the largest relative change of every numeric field that
moved. A run of this checkout that exits 2 while its report lists no
anomaly (a silent FAIL) is printed and counted as a difference too. Exits 1
if any run differs, 0 otherwise.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE / "scripts"), str(HERE / "perfbench")]
from bench_snapshot import SEED  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

COMMANDS = ("transfer", "dtn", "certify", "energy", "sweep", "trajectory")
OUTPUTS = ("report.json", "sweep.csv")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def runs(config_dir: Path):
    """``(name, command and flags, config path)`` of every run."""
    for cfg in sorted((HERE / "configs").glob("*.json")):
        for command in COMMANDS:
            yield f"{command} {cfg.name}", [command], cfg
    for workload in WORKLOADS:
        for op in generate(workload, SEED, config_dir / workload):
            yield (f"{workload} {op.name}", [op.command, *op.extra],
                   config_dir / workload / f"{op.config}.json")


def run(root: Path, argv: list, config: Path, work: Path) -> dict:
    """Exit code, stdout, stderr and output files of one CLI run in ``root``.

    The config is copied into a fresh working directory and every path is
    relative to it, so the printed paths match across checkouts."""
    work.mkdir(parents=True)
    shutil.copy(config, work / "config.json")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dtnstack.cli", *argv,
         "--config", "config.json", "--out", "out"],
        cwd=work, env=env, capture_output=True, text=True)
    result = {"exit code": f"{proc.returncode}\n", "stdout": proc.stdout,
              "stderr": proc.stderr}
    for name in OUTPUTS:
        path = work / "out" / name
        result[name] = path.read_text(encoding="utf-8") if path.exists() else None
    return result


def silent_fail(result: dict) -> bool:
    """Whether a run exits 2 with a report whose ``anomalies`` is empty."""
    report = result["report.json"]
    return (result["exit code"] == "2\n" and report is not None
            and not json.loads(report)["anomalies"])


def _compare(x, y, path: str, worst: dict, other: dict):
    """Record how JSON value ``y`` (other checkout) became ``x`` (this one):
    the largest relative change of each numeric field in ``worst``, every
    other change in ``other``. List entries share one field, ``path[]``."""
    if isinstance(x, dict) and isinstance(y, dict):
        for k in sorted(x.keys() | y.keys()):
            p = f"{path}.{k}" if path else k
            if k in x and k in y:
                _compare(x[k], y[k], p, worst, other)
            else:
                other.setdefault(p, f"{p}: only in {'this' if k in x else 'other'} checkout")
    elif isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            other.setdefault(f"{path}[]", f"{path}: {len(y)} -> {len(x)} entries")
        for a, b in zip(x, y):
            _compare(a, b, f"{path}[]", worst, other)
    elif x != y:
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            worst[path] = max(worst.get(path, 0.0), abs(x - y) / max(abs(x), abs(y)))
        else:
            other.setdefault(path, f"{path}: {json.dumps(y)} -> {json.dumps(x)}")


def _parse(text: str, name: str):
    """A report as JSON; a sweep CSV as ``{column: [values]}``."""
    if name.endswith(".json"):
        return json.loads(text)
    header, *rows = text.splitlines()
    columns = header.lstrip("# ").split(",")
    return {c: [float(r.split(",")[k]) for r in rows] for k, c in enumerate(columns)}


def field_changes(a: str, b: str, name: str) -> list[str]:
    """Largest relative change of each numeric field, and each other change,
    from text ``b`` (other checkout) to text ``a`` (this one) of output
    ``name``."""
    worst: dict[str, float] = {}
    other: dict[str, str] = {}
    _compare(_parse(a, name), _parse(b, name), "", worst, other)
    return ([f"{p}: largest relative change {r:.3e}" for p, r in worst.items()]
            + list(other.values()))


def describe(key: str, a, b) -> list[str]:
    """What differs in one output of one run, as printable lines."""
    if a is None or b is None:
        return [f"written on one side only ({'this' if b is None else 'other'} checkout)"]
    if key in OUTPUTS:
        try:
            return field_changes(a, b, key)
        except (ValueError, IndexError):
            pass
    return [line.rstrip("\n") for line in
            difflib.unified_diff(b.splitlines(True), a.splitlines(True),
                                 "other", "this", n=0)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other_root", metavar="OTHER_ROOT", type=Path,
                   help="root of the checkout to compare against")
    other = p.parse_args(argv).other_root.resolve()
    if not (other / "src" / "dtnstack" / "cli.py").is_file():
        print(f"compare_outputs: no package sources under {other}", file=sys.stderr)
        return 2
    differing = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, (name, argv_, config) in enumerate(list(runs(tmp / "configs"))):
            this = run(HERE, argv_, config, tmp / "this" / str(i))
            that = run(other, argv_, config, tmp / "other" / str(i))
            total += 1
            diffs = {k: describe(k, this[k], that[k]) for k in this if this[k] != that[k]}
            if silent_fail(this):
                diffs["verdict"] = ["exit 2 with no anomaly in report.json (this checkout)"]
            if diffs:
                differing += 1
                print(f"DIFF {name} ({' '.join(argv_)})")
                for key, lines in diffs.items():
                    print(f"  {key}:")
                    for line in lines:
                        print(f"    {line}")
    print(f"{differing} of {total} runs differ (this: {HERE}, other: {other})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

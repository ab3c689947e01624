"""Record one point of the performance history as ``BENCH_<label>.json``.

Run from the root of a checkout::

    python3 scripts/bench_snapshot.py --label mylabel
    python3 scripts/bench_snapshot.py --label base --root ../other-checkout

For every workload of ``BENCHMARK.json`` it runs ``perfbench/run.py`` once
with ``--trace 0`` (end-to-end metrics) and once with ``--trace 1``
(per-layer metrics), at seed ``SEED`` and the ``run_seconds`` of
``BENCHMARK.json`` so that every entry of the history is comparable, then
times the tier-1 test suite. ``--root`` picks the checkout to measure
(default: the one holding this script); the snapshot is written at the root
of the checkout holding this script, so the history of another commit can be
recorded here. The file holds the last JSON line of
each run, the seed, ``run_seconds``, ``perfbench/machine.json`` and the
tier-1 wall time of the measured checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
#: every snapshot runs at this seed, so entries of the history compare
SEED = 5
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def last_json_line(root: Path, workload: str, seconds: float, trace: int) -> dict:
    """Run one benchmark pass set and return its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(root: Path) -> dict:
    """Wall time and summary line of the tier-1 suite in ``root``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    p.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    args = p.parse_args(argv)
    root = args.root.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True).stdout.strip()

    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        workloads[name] = {f"trace{t}": last_json_line(root, name, seconds, t)
                           for t in (0, 1)}
        print(f"{name}: points_per_s = "
              f"{workloads[name]['trace0']['metrics']['points_per_s']['value']:.4g}")
    snapshot = {
        "label": args.label,
        "commit": commit,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": SEED,
        "run_seconds": seconds,
        "machine": json.loads((root / "perfbench" / "machine.json").read_text(encoding="utf-8")),
        "tier1": tier1(root),
        "workloads": workloads,
    }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record one paired point of the performance history as ``BENCH_<label>.json``.

Run from the root of a checkout::

    python3 scripts/bench_snapshot.py --label mylabel --base ../parent-checkout
    python3 scripts/bench_snapshot.py --label base --base ../a --root ../b

The snapshot is a paired measurement of the ``--base`` checkout against
``--root`` (default: the checkout holding this script): per workload of
``BENCHMARK.json``, ``PAIRS`` pairs of ``perfbench/run.py --trace 0`` runs,
base and head alternately (the side that runs first alternates too, so drift
on a shared host falls on both), at seed ``--seed`` (default ``SEED``) and
the ``run_seconds`` of ``BENCHMARK.json``. The file holds each pair's six
end-to-end metrics and, per metric, each side's median and quartiles, the
median of the per-pair head/base ratios, the head's wins (ties count for
neither) and whether the gain rule holds: wins in at least nine tenths of
the pairs and a median difference beyond the base's interquartile range.
One ``--trace 1`` run per side (per-layer metrics), the tier-1 time of the
head and ``perfbench/machine.json`` are host-dependent absolutes, kept for
their counts. A fixed numpy kernel (``calibration_s``) is timed at the start
and at the end of the snapshot, and their ratio ``drift`` (end / start) shows
how the host drifted during it. Each side's ``code`` names what it ran: its
commit, a ``dirty`` flag for a tree that differs from it, and the sha256 of
its ``git diff HEAD``. The file is written at the root of the checkout
holding this script.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
#: every snapshot runs at this seed, so entries of the history compare
SEED = 5
#: alternating base/head pairs per workload of a paired snapshot
PAIRS = 10
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def last_json_line(root: Path, workload: str, seconds: float, trace: int,
                   seed: int) -> dict:
    """Run one benchmark pass set and return its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
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


def calibration_s() -> float:
    """Median seconds, over 5 timings, of 1,000 ``np.linalg.solve`` calls on
    one seeded (64, 4, 4) complex batch: the package's kind of arithmetic,
    without the package."""
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((2, 64, 4, 4)) + 1j * rng.standard_normal((2, 64, 4, 4))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(1000):
            np.linalg.solve(A, B)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def pair_summary(pairs: list, better: dict) -> dict:
    """Per end-to-end metric: both sides' quartiles, the median head/base
    ratio, the head's wins and whether the gain rule holds."""
    out = {}
    for name, direction in better.items():
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        qb, qh = _quartiles(base), _quartiles(head)
        out[name] = {
            "base": qb, "head": qh,
            "median_ratio": statistics.median(h / b if b else float("nan")
                                              for b, h in zip(base, head)),
            "wins": wins, "pairs": len(pairs),
            "gain_holds": (wins >= 0.9 * len(pairs)
                           and sign * (qh["median"] - qb["median"]) > qb["q3"] - qb["q1"]),
        }
    return out


def paired(base: Path, head: Path, bench: dict, seed: int) -> dict:
    """Alternating ``--trace 0`` pairs per workload, plus one traced run per side."""
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = {}
    for w in bench["workloads"]:
        name, pairs = w["name"], []
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            runs = {side: last_json_line(base if side == "base" else head, name,
                                         seconds, 0, seed)["metrics"]
                    for side in order}
            pairs.append({"first": order[0],
                          **{side: {m: runs[side][m]["value"] for m in better}
                             for side in ("base", "head")}})
        summary = pair_summary(pairs, better)
        workloads[name] = {
            "pairs": pairs, "summary": summary,
            "trace1": {side: last_json_line(root, name, seconds, 1, seed)
                       for side, root in (("base", base), ("head", head))},
        }
        s = summary["points_per_s"]
        print(f"{name}: points_per_s median ratio {s['median_ratio']:.3f}, "
              f"wins {s['wins']}/{s['pairs']}")
    return workloads


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, capture_output=True).stdout


def provenance(root: Path) -> dict:
    """The code a side ran: its commit, whether its tree differs from that
    commit (``git status --porcelain`` lists anything, untracked files too)
    and the sha256 of ``git diff HEAD``, which names the tracked changes."""
    return {"commit": _git(root, "rev-parse", "HEAD").decode().strip(),
            "dirty": bool(_git(root, "status", "--porcelain").strip()),
            "diff_sha256": hashlib.sha256(_git(root, "diff", "HEAD")).hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    p.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    p.add_argument("--base", type=Path, required=True, help="checkout to pair against")
    p.add_argument("--seed", type=int, default=SEED,
                   help=f"workload seed (default {SEED}, the history's)")
    args = p.parse_args(argv)
    root, base = args.root.resolve(), args.base.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    calibration_start = calibration_s()
    head_code, base_code = provenance(root), provenance(base)
    snapshot = {
        "label": args.label,
        "commit": head_code["commit"],
        "base_commit": base_code["commit"],
        "code": {"head": head_code, "base": base_code},
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "run_seconds": bench["run_seconds"],
        "machine": json.loads((root / "perfbench" / "machine.json").read_text(encoding="utf-8")),
        "workloads": paired(base, root, bench, args.seed),
    }
    calibration_end = calibration_s()
    snapshot["calibration_s"] = {"start": calibration_start, "end": calibration_end,
                                 "drift": calibration_end / calibration_start}
    snapshot["tier1"] = tier1(root)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

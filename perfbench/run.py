"""Benchmark of the ``dtnstack`` command line on seeded layered stacks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify-deep --seed 1 --seconds 20 --trace 0

Each workload (see ``workloads.py`` and ``BENCHMARK.json``) is one pass of
ops, each op one in-process ``dtnstack.cli.main(argv)`` call on a config the
seed generates, on the default serial path with stdout captured. The
benchmark repeats passes for ``--seconds``, checks every op's output and
reports medians over passes. Load is one closed-loop client: the next op
starts when the previous one returns. The package is imported before timing
starts; a CLI user pays that import on every run, and ``setup_s`` measures
it in fresh interpreters.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
passes without tracing, then one more pass with wrappers on every layer
(``tracing.py``) and prints the per-layer metrics derived from its spans,
which it also writes to ``.perfbench_work/<workload>/spans.tsv``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when the run completed, even
if outputs were wrong (``correct`` says so), and 2 when it could not run.
"""
import os

# Hold BLAS to one thread: default OpenBLAS threading doubles the CPU time of
# this 4×4 work on two cores. Must be set before numpy is loaded.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_output, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Cold imports are a few tenths of a second each and spread widely, so the
# median of several fresh interpreters is reported. One more run goes first
# so that bytecode compilation is not counted.
SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dtnstack.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s", "run_s.p50": "s",
                    "cpu_ms_per_point": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class Run:
    """Runs ops of one workload, checks them and keeps their timings."""

    def __init__(self, cli, ops, work: Path):
        self.cli = cli
        self.ops = ops
        self.config_dir = work / "configs"
        self.out_dir = work / "out"
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, op):
        """Run one op; return ``(wall_s, cpu_s)`` and record any failure."""
        out = self.out_dir / op.name
        argv = [op.command, "--config", str(self.config_dir / f"{op.config}.json"),
                "--out", str(out), *op.extra]
        sink = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # a traceback breaks the exit-code contract
            code = f"uncaught {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.attempted += 1
        reason = check_output(op, code, out) if isinstance(code, int) else code
        if reason is None:
            body = (out / "report.json").read_bytes()
            if body != self.reference.setdefault(op.name, body):
                reason = "report.json bytes differ from the first pass"
        if reason is not None:
            self.failures.append(f"{op.name}: {reason} | {sink.getvalue().strip()[-300:]}")
        return wall, cpu

    def one_pass(self):
        """Run every op once; return the list of ``(wall_s, cpu_s)``."""
        return [self.op(op) for op in self.ops]

    def timed_passes(self, seconds: float):
        """Repeat passes until ``seconds`` of wall time have been spent."""
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(self.one_pass())
        return passes


def measure_setup(repeats: int) -> list[float]:
    """Seconds to import ``dtnstack.cli`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples[1:]


def machine_info() -> dict:
    import numpy
    import scipy

    def blas(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "openblas configuration", "unknown")

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy), "threads": THREAD_ENV,
            "load": "one process, one closed-loop client, no extra threads"}


def end_to_end(run: Run, passes, setup) -> dict:
    points = sum(op.points for op in run.ops)
    walls = [w for p in passes for w, _ in p]
    for i, p in enumerate(passes):
        print(f"# pass {i}: wall {sum(w for w, _ in p):.4f} s, cpu {sum(c for _, c in p):.4f} s")
    print(f"# {len(passes)} timed passes, {len(walls)} timed ops, "
          f"{points} points per pass, {len(setup)} cold imports")
    return {
        "setup_s": statistics.median(setup),
        "points_per_s": statistics.median(points / sum(w for w, _ in p) for p in passes),
        # median over the ops of a pass of each op's median over passes: a
        # pooled median of ops of different sizes sits on the edge of a size
        # cluster, where single noisy samples move it most
        "run_s.p50": statistics.median(
            statistics.median(p[i][0] for p in passes) for i in range(len(run.ops))),
        "cpu_ms_per_point": statistics.median(
            1000.0 * sum(c for _, c in p) / points for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - len(run.failures) / run.attempted,
    }


def per_layer(run: Run, tracer, traced_wall: float, untraced_wall: float) -> dict:
    from tracing import LAYERS

    points = sum(op.points for op in run.ops)
    counts, self_s = tracer.counts, tracer.self_times()
    m: dict = {}
    for layer in LAYERS:
        prefix = f"{layer}."
        m[f"{layer}.calls"] = (sum(v for k, v in counts.items() if k.startswith(prefix)), "count")
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items() if k.startswith(prefix)), "s")
        m[f"{layer}.errors"] = (tracer.errors[layer], "count")
    for name in ("linalg.mat_exp", "linalg.as_cmatrix", "linalg.solve",
                 "linalg.condition_1norm", "herglotz.material_response",
                 "herglotz.passivity_check", "transfer.build_A",
                 "transfer.layer_propagator", "transfer.transfer", "dtn.gamma",
                 "analyticity.certify_point", "tubular.trajectory_point",
                 "stack.locate"):
        m[f"{name}.calls"] = (counts[name], "count")
    m["linalg.mat_exp.matrices"] = (tracer.matrices, "count")
    m["report.bytes_written"] = (tracer.bytes_written, "bytes")
    for name in ("transfer.field_profile", "dtn.check_well_defined", "dtn.energy_balance"):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    exp_calls = counts["linalg.mat_exp"]
    m["linalg.exp_per_point"] = (tracer.matrices / points, "1/point")
    m["linalg.as_cmatrix_per_point"] = (counts["linalg.as_cmatrix"] / points, "1/point")
    m["linalg.batch_size"] = (tracer.matrices / exp_calls if exp_calls else 0.0, "ratio")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")
    m["fail_ratio"] = (len(run.failures) / run.attempted, "ratio")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink grids and repeats (harness smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dtnstack" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'dtnstack'}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from dtnstack import cli

    print("# machine " + json.dumps(machine_info()))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    ops = generate(args.workload, args.seed, work / "configs", tiny=args.tiny)
    run = Run(cli, ops, work)
    passes = run.timed_passes(args.seconds)

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced_wall = 0.0
        with tracer.attached():
            for op_id, op in enumerate(ops):
                tracer.op_id = op_id
                traced_wall += run.op(op)[0]
        tracer.write_spans(work / "spans.tsv")
        untraced_wall = statistics.median(sum(w for w, _ in p) for p in passes)
        metrics = per_layer(run, tracer, traced_wall, untraced_wall)
    else:
        setup = measure_setup(1 if args.tiny else SETUP_REPEATS)
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(run, passes, setup).items()}

    for reason in run.failures:
        print(f"# FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands::

    dtnstack transfer   --config cfg.json [--out DIR]
    dtnstack dtn        --config cfg.json [--out DIR]
    dtnstack certify    --config cfg.json [--out DIR] [--tol T] [--cr-step H]
    dtnstack energy     --config cfg.json [--out DIR] [--tol T] [--quad-points N]
    dtnstack sweep      --config cfg.json [--out DIR] [--tol T] [--cr-step H]
    dtnstack trajectory --config cfg.json [--out DIR] [--tol T] [--cr-step H]

Exit codes: 0 success, 1 usage or input error (including a flag the command
does not read), 2 certification failure or numerical anomaly: exit 2 always
names at least one anomaly, in the report and on stdout (or on stderr if
the run stopped). Every successful run writes a deterministic
``report.json`` (plus a ``run_meta.json`` timestamp sidecar, and
``sweep.csv`` for sweeps) into the output directory.

Config document::

    {"stack": <stack doc>, "kappa": [k1, k2],
     "omega_grid": {"re_min": .., "re_max": .., "re_steps": ..,
                    "im_min": .., "im_max": .., "im_steps": ..},
     "z0": <num, optional>, "z1": <num, optional>,
     "psi0": <4 [re,im] pairs, optional, energy only>,
     "trajectory": {"L0": <3×3 real>, "omega": [re, im],
                    "f": <6 [re,im] pairs>}  (optional, trajectory only)}

Single-point commands (transfer, dtn, energy) evaluate at the first grid
point ``(re_min, im_min)``; certify/sweep/trajectory iterate the full grid.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analyticity import (
    CR_TOL,
    herglotz_certify,
    omega_grid_points,
    phase_dtn,
    phase_tensors,
    scalar_sample,
)
from .dtn import dtn, energy_balance, flux_form
from .exceptions import (
    ContractError,
    NumericRangeError,
    SingularMatrixError,
    ToolkitError,
)
from .herglotz import _require_hermitian, passivity_anomalies, passivity_check
from .report import emit_report, make_report_body, write_sweep_csv
from .stack import (
    StackSpec,
    _complex_array,
    _fail,
    _get,
    _integer,
    _number,
    _real_array,
    parse_stack,
)
from .transfer import transfer
from .tubular import (
    _roundtrip_deviation,
    herglotz_along_trajectory,
    trajectory_coeffs,
    trajectory_point,
)

__all__ = ["main", "RunConfig"]

#: most ``--quad-points`` accepted: ``energy`` costs its anchors, not its
#: points, and peaks at about 33 MB resident at 2,000 and at 1e6 points alike
#: (``getrusage`` of one process on ``configs/vacuum_certify.json``), and
#: ``tests/test_dtn.py`` pins the midpoint rule's second order up to the cap
MAX_QUAD_POINTS = 1_000_000

#: most frequency-grid points accepted (``re_steps × im_steps``)
MAX_GRID_POINTS = 100_000

#: default relative energy gap of the ``energy`` verdict
ENERGY_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """Validated run inputs shared by all commands."""

    stack: StackSpec
    kappa: tuple[float, float]
    grid: tuple[complex, ...]
    z0: float
    z1: float
    psi0: np.ndarray
    f: np.ndarray
    traj_L0: np.ndarray
    traj_omega: complex


def parse_run_config(doc: dict, command: str) -> RunConfig:
    """Validate the config document for one command.

    Raises :class:`StackParseError` naming the offending key on any schema
    violation, including a real-frequency grid for certification commands.
    """
    if not isinstance(doc, dict):
        _fail("config", "top level must be an object")
    stack = parse_stack(doc)

    kappa = _real_array(doc.get("kappa", [0.0, 0.0]), "kappa", (2,))

    g = _get(doc, "omega_grid", "")
    re_min, re_max, im_min, im_max = (
        _number(_get(g, k, "omega_grid"), f"omega_grid.{k}")
        for k in ("re_min", "re_max", "im_min", "im_max"))
    re_steps, im_steps = (_integer(_get(g, k, "omega_grid"), f"omega_grid.{k}")
                          for k in ("re_steps", "im_steps"))
    if re_steps < 1:
        _fail("omega_grid.re_steps", "must be >= 1")
    if im_steps < 1:
        _fail("omega_grid.im_steps", "must be >= 1")
    if re_steps * im_steps > MAX_GRID_POINTS:
        _fail("omega_grid", f"re_steps × im_steps must be at most {MAX_GRID_POINTS}, "
                            f"got {re_steps * im_steps}")
    if re_max < re_min:
        _fail("omega_grid.re_max", "must be >= re_min")
    if im_max < im_min:
        _fail("omega_grid.im_max", "must be >= im_min")
    if _COMMANDS[command].upper_half_plane and im_min <= 0.0:
        _fail("omega_grid.im_min", "must be > 0")
    grid = tuple(omega_grid_points(re_min, re_max, re_steps,
                                   im_min, im_max, im_steps))

    z0 = _number(doc["z0"], "z0") if "z0" in doc else stack.z_min
    z1 = _number(doc["z1"], "z1") if "z1" in doc else stack.z_max
    if not (stack.z_min <= z0 <= stack.z_max):
        _fail("z0", f"must lie inside the stack [{stack.z_min}, {stack.z_max}]")
    if not (stack.z_min <= z1 <= stack.z_max):
        _fail("z1", f"must lie inside the stack [{stack.z_min}, {stack.z_max}]")
    if _COMMANDS[command].upper_half_plane and not z0 < z1:
        _fail("z1", "must be > z0")

    psi0 = (_complex_array(doc["psi0"], "psi0", (4,)) if "psi0" in doc
            else np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))

    traj = doc.get("trajectory", {})
    if not isinstance(traj, dict):
        _fail("trajectory", "expected an object")
    f = (_complex_array(traj["f"], "trajectory.f", (6,)) if "f" in traj
         else np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=complex))
    if "L0" in traj:
        L0 = _real_array(traj["L0"], "trajectory.L0", (3, 3))
        try:
            _require_hermitian(L0, "L0")
        except ContractError:
            _fail("trajectory.L0", "must be symmetric")
    else:
        L0 = np.zeros((3, 3))
    if "omega" in traj:
        traj_omega = complex(_complex_array(traj["omega"], "trajectory.omega", ()))
        if traj_omega.imag <= 0.0:
            _fail("trajectory.omega", "must have positive imaginary part")
    else:
        traj_omega = grid[0]

    return RunConfig(stack, (float(kappa[0]), float(kappa[1])),
                     grid, z0, z1, psi0, f, L0, traj_omega)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _point(cfg: RunConfig) -> dict:
    """Where the single-point commands evaluate: the first grid frequency."""
    return {"omega": cfg.grid[0], "kappa": list(cfg.kappa), "z0": cfg.z0, "z1": cfg.z1}


def _grid(cfg: RunConfig, args) -> tuple:
    """The Herglotz certificate of the frequency grid and the result keys that
    ``certify`` and ``sweep`` share."""
    hc = herglotz_certify(cfg.stack, cfg.kappa, cfg.grid, cfg.z0, cfg.z1,
                          cr_tol=args.tol, step=args.cr_step)
    return hc, {"min_im_eig": hc.min_im_eig, "worst_cr": hc.worst_cr,
                "cr_tol": args.tol, "cr_step": args.cr_step}


def _cmd_transfer(cfg: RunConfig, args) -> tuple[dict, list]:
    T = transfer(cfg.stack, cfg.kappa, cfg.grid[0], cfg.z0, cfg.z1)
    return {**_point(cfg), "transfer_matrix": T.matrix,
            "flux_min_eig": flux_form(T).min_eig}, []


def _cmd_dtn(cfg: RunConfig, args) -> tuple[dict, list]:
    L, cert = dtn(cfg.stack, cfg.kappa, cfg.grid[0], cfg.z0, cfg.z1)
    results = {
        **_point(cfg),
        "lambda": L.matrix,
        "tangential_compression": L.tangential_compression,
        "certificate": {**cert.well_defined._asdict(), "passive": cert.passive,
                        "layer_passivity": [p._asdict() for p in cert.layer_passivity],
                        "im_min_eig": cert.im_min_eig},
    }
    return results, list(cert.anomalies)


def _cmd_certify(cfg: RunConfig, args) -> tuple[dict, list]:
    hc, shared = _grid(cfg, args)
    results = {
        **shared,
        "grid": [complex(w) for w in hc.grid],
        "passed": hc.passed,
        "points": [{k: v for k, v in p._asdict().items() if k != "compression"}
                   for p in hc.points],
    }
    return results, list(hc.anomalies)


def _cmd_energy(cfg: RunConfig, args) -> tuple[dict, list]:
    rep = energy_balance(cfg.stack, cfg.psi0, cfg.kappa, cfg.grid[0],
                         cfg.z0, cfg.z1, n_points=args.quad_points)
    anomalies = passivity_anomalies(
        rep.passivity, [f"layer {j}" for j in range(len(cfg.stack.layers))])
    if not anomalies and not (rep.boundary_flux >= 0.0 and rep.absorption_integral >= 0.0):
        anomalies.append(
            f"energy sides must be nonnegative for passive input "
            f"(boundary {rep.boundary_flux:.3e}, absorbed "
            f"{rep.absorption_integral:.3e})")
    if not rep.relative_gap <= args.tol:
        anomalies.append(f"relative energy gap {rep.relative_gap:.3e} above the "
                         f"tolerance {args.tol:.3e}")
    results = {
        **_point(cfg),
        "boundary_flux": rep.boundary_flux,
        "absorption_integral": rep.absorption_integral,
        "relative_gap": rep.relative_gap,
        "n_points": rep.n_points,
        "tolerance": args.tol,
        "passed": not anomalies,
    }
    return results, anomalies


def _cmd_sweep(cfg: RunConfig, args) -> tuple[dict, list]:
    hc, shared = _grid(cfg, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = write_sweep_csv(out / "sweep.csv", hc.points)
    return {**shared, "n_points": len(hc.points), "csv": csv_path.name}, list(hc.anomalies)


def _cmd_trajectory(cfg: RunConfig, args) -> tuple[dict, list]:
    labels, phase_of_layer, Z = phase_tensors(cfg.stack, cfg.traj_omega)
    shared = {"phases": labels, "omega": cfg.traj_omega, "cr_tol": args.tol,
              "cr_step": args.cr_step}
    # trajectory_coeffs needs every phase passive: fail as the other commands do
    gain = passivity_anomalies(passivity_check(Z[:len(labels)], Z[len(labels):]),
                               [f"phase {j} ({label!r})" for j, label in enumerate(labels)])
    if gain:
        return {**shared, "passed": False}, gain
    builder = partial(phase_dtn, cfg.stack, cfg.kappa, phase_of_layer)
    spec = trajectory_coeffs(cfg.traj_L0, Z)
    back = trajectory_point(spec, 1j)
    roundtrip = _roundtrip_deviation(Z, back)
    cert = herglotz_along_trajectory(builder, spec, cfg.f, cfg.grid, cr_tol=args.tol,
                                     step=args.cr_step, layers=len(cfg.stack.layers))
    sample_orig = scalar_sample(builder(Z), cfg.f)
    sample_back = scalar_sample(builder(back), cfg.f)
    sample_dev = abs(sample_back - sample_orig) / max(abs(sample_orig), 1.0)
    anomalies = list(cert.anomalies)
    if not roundtrip <= 1e-12:
        anomalies.append(f"trajectory round trip deviates by {roundtrip:.3e} "
                         f"from the phase tensors (tolerance 1.000e-12)")
    results = {
        **shared,
        "roundtrip_deviation": roundtrip,
        "sample_roundtrip_deviation": sample_dev,
        "s_grid": [complex(s) for s in cert.grid],
        "h_values": [complex(v) for v in cert.values],
        "min_im_h": cert.min_im,
        "worst_cr": cert.worst_cr,
        "passed": not anomalies,
    }
    return results, anomalies


class _Command(NamedTuple):
    """One row of the command table."""

    run: Callable[[RunConfig, argparse.Namespace], tuple[dict, list]]
    reads: tuple[str, ...]  # flags besides --config and --out
    tol: float | None  # default --tol
    upper_half_plane: bool  # every frequency must satisfy Im ω > 0
    help: str


_COMMANDS = {
    "transfer": _Command(_cmd_transfer, (), None, False,
                         "compute a transfer matrix at one frequency"),
    "dtn": _Command(_cmd_dtn, (), None, True,
                    "compute and certify the boundary operator at one frequency"),
    "certify": _Command(_cmd_certify, ("--tol", "--cr-step"), CR_TOL, True,
                        "sweep a frequency grid and certify positivity/analyticity"),
    "energy": _Command(_cmd_energy, ("--tol", "--quad-points"), ENERGY_TOL, True,
                       "check the energy-conservation identity for one solution"),
    "sweep": _Command(_cmd_sweep, ("--tol", "--cr-step"), CR_TOL, True,
                      "sweep a frequency grid and write per-point data as CSV"),
    "trajectory": _Command(_cmd_trajectory, ("--tol", "--cr-step"), CR_TOL, True,
                           "certify scalar samples along a material trajectory"),
}


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="dtnstack",
                     description="Transfer matrices, boundary operators, and "
                                 "passivity certification for layered media.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    flags = {
        "--tol": dict(type=float,
                      help="certification tolerance (CR residual or energy gap)"),
        "--quad-points": dict(type=int, dest="quad_points",
                              help="quadrature point count for energy checks"),
        "--cr-step": dict(type=float, dest="cr_step",
                          help="CR stencil width (default: 1e-4 scaled by |omega|)"),
    }
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        for flag in command.reads:
            p.add_argument(flag, **flags[flag])
        # a flag the command does not read keeps its default for main's checks
        p.set_defaults(tol=command.tol, quad_points=2000, cr_step=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            print(f"dtnstack: cannot read config: {exc}", file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"dtnstack: config is not valid JSON: {exc}", file=sys.stderr)
            return 1
        cfg = parse_run_config(doc, args.command)
        if not 1 <= args.quad_points <= MAX_QUAD_POINTS:
            print(f"dtnstack: --quad-points must be between 1 and "
                  f"{MAX_QUAD_POINTS}, got {args.quad_points}", file=sys.stderr)
            return 1
        if args.cr_step is not None and not (np.isfinite(args.cr_step) and args.cr_step > 0):
            print(f"dtnstack: --cr-step must be finite and > 0, got {args.cr_step}",
                  file=sys.stderr)
            return 1
        if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0):
            print(f"dtnstack: --tol must be finite and > 0, got {args.tol}",
                  file=sys.stderr)
            return 1
        results, anomalies = _COMMANDS[args.command].run(cfg, args)
    except (SingularMatrixError, NumericRangeError) as exc:
        print(f"dtnstack: numerical anomaly: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"dtnstack: {exc}", file=sys.stderr)
        return 1
    body = make_report_body(args.command, doc, results, anomalies)
    try:
        path = emit_report(args.out, body)
    except OSError as exc:
        print(f"dtnstack: cannot write report: {exc}", file=sys.stderr)
        return 1
    print(f"[{args.command}] {'FAIL' if anomalies else 'PASS'} report={path}")
    for a in anomalies:
        print(f"[{args.command}] anomaly: {a}")
    return 2 if anomalies else 0


if __name__ == "__main__":
    sys.exit(main())

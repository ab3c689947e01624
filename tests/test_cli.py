import importlib
import json
import math
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dtnstack
from dtnstack.cli import main, parse_run_config
from dtnstack.exceptions import StackParseError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

VACUUM = CONFIGS / "vacuum_certify.json"
BAD_GRID = CONFIGS / "bad_grid.json"
GAIN = CONFIGS / "gain_certify.json"


def run_cli(args):
    return main([str(a) for a in args])


# ----------------------------------------------------------- exit-code contract

def test_bundled_vacuum_config_passes(tmp_path, capsys):
    code = run_cli(["certify", "--config", VACUUM, "--out", tmp_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "[certify] PASS" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "certify"
    assert report["results"]["passed"] is True
    assert report["results"]["min_im_eig"] > 0
    assert report["anomalies"] == []


def test_bundled_bad_grid_config_is_usage_error(tmp_path, capsys):
    code = run_cli(["certify", "--config", BAD_GRID, "--out", tmp_path])
    assert code == 1
    err = capsys.readouterr().err
    assert "omega_grid.im_min" in err
    assert not (tmp_path / "report.json").exists()


def test_bundled_gain_config_fails_certification(tmp_path, capsys):
    code = run_cli(["certify", "--config", GAIN, "--out", tmp_path])
    assert code == 2
    assert "[certify] FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["passed"] is False
    assert report["results"]["min_im_eig"] < 0


COMMANDS = ("transfer", "dtn", "certify", "energy", "sweep", "trajectory")


def _lossy_layer(tmp_path, thickness=20.0, re_max=1.0, im_max=0.3):
    # eps = diag(2+0.5i, 3+0.3i, 2.5+0.4i), mu = I, d = 20 at omega = 1+0.3i:
    # the energy quadrature's gap (7.5e-6) exceeds the default tolerance.
    # With re_max or im_max the grid has 3 x 2 points up to them.
    doc = json.loads(VACUUM.read_text())
    layer = doc["stack"]["layers"][0]
    layer["thickness"] = thickness
    for i, v in enumerate([[2, 0.5], [3, 0.3], [2.5, 0.4]]):
        layer["material"]["eps"]["value"][i][i] = v
    steps = (1, 1) if (re_max, im_max) == (1.0, 0.3) else (3, 2)
    doc.update(kappa=[0.8, 0.0], omega_grid=dict(re_min=1.0, re_max=re_max, re_steps=steps[0],
                                                 im_min=0.3, im_max=im_max, im_steps=steps[1]))
    p = tmp_path / "lossy.json"
    p.write_text(json.dumps(doc))
    return p


#: (argv, exit code): the six commands on every bundled config, then the
#: failures that used to exit 2 with no anomaly
VERDICT_CASES = {
    **{f"{c}-{cfg.stem}": ([c, "--config", cfg], code)
       for cfg, codes in ((VACUUM, (0,) * 6), (GAIN, (0,) + (2,) * 5),
                          (BAD_GRID, (0,) + (1,) * 5))
       for c, code in zip(COMMANDS, codes)},
    **{f"{c}-tiny-tol": ([c, "--config", VACUUM, "--tol", "1e-30"], 2)
       for c in ("certify", "sweep", "trajectory")},
    "energy-lossy-d20": (["energy", "--config", _lossy_layer], 2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, expected", VERDICT_CASES.values(), ids=VERDICT_CASES)
def test_exit_2_exactly_when_the_report_names_an_anomaly(tmp_path, capsys, argv, expected):
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    code = run_cli([*argv, "--out", tmp_path / "out"])
    assert code == expected
    out = capsys.readouterr().out
    report = tmp_path / "out" / "report.json"
    if code == 1:  # input error: no report
        assert not report.exists() and "anomaly:" not in out
        return
    anomalies = json.loads(report.read_text())["anomalies"]
    assert (code == 2) == bool(anomalies), anomalies
    assert [line for line in out.splitlines() if " anomaly: " in line] == \
        [f"[{argv[0]}] anomaly: {a}" for a in anomalies]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, thickness, reason, point", [
    ("trajectory", 52.0, "T12 is singular to working precision (cond_1 ~ ", "s = 1.2+0.3i"),
    ("certify", 600.0, "flux form overflowed (max |T_ij| = ", "omega = 1+0.3i"),
    ("sweep", 600.0, "flux form overflowed (max |T_ij| = ", "omega = 1+0.3i"),
])
def test_stencil_pass_error_names_its_matrix_and_point(tmp_path, capsys, command,
                                                       thickness, reason, point):
    # the lossy layer on the grid 1.0-1.2 + i 0.3-0.4: the first failing
    # point's error names the singular block or the overflow, and the point
    cfg = _lossy_layer(tmp_path, thickness, re_max=1.2, im_max=0.4)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"dtnstack: numerical anomaly: {reason}")
    assert line.endswith(f") in the CR stencil of {point}")
    assert not (tmp_path / "out" / "report.json").exists()


def test_missing_config_file(tmp_path, capsys):
    assert run_cli(["dtn", "--config", tmp_path / "nope.json"]) == 1


def test_invalid_json_config(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run_cli(["dtn", "--config", p]) == 1


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 1


def test_missing_required_key_names_it(tmp_path, capsys):
    doc = json.loads(VACUUM.read_text())
    del doc["omega_grid"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert run_cli(["certify", "--config", p, "--out", tmp_path]) == 1
    assert "omega_grid" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["transfer", "dtn", "certify", "energy",
                                     "sweep", "trajectory"])
def test_overflowing_model_response_is_input_error(tmp_path, capsys, command):
    # plasma_freq**2 overflows: a named input error, never a traceback or a
    # RuntimeWarning
    doc = json.loads(VACUUM.read_text())
    doc["stack"]["layers"][0]["material"]["eps"] = {
        "kind": "drude", "plasma_freq": 1e200, "collision_rate": 1.0}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 1
    assert "model response is not finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


FLAG_VALUES = {"--tol": "1e-3", "--cr-step": "1e-4", "--quad-points": "2000"}
FLAGS_READ = {"transfer": (), "dtn": (), "certify": ("--tol", "--cr-step"),
              "energy": ("--tol", "--quad-points"), "sweep": ("--tol", "--cr-step"),
              "trajectory": ("--tol", "--cr-step")}


@pytest.mark.parametrize("command, flag", [(c, f) for c, reads in FLAGS_READ.items()
                                           for f in FLAG_VALUES if f not in reads])
def test_flag_a_command_does_not_read_is_usage_error(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", VACUUM, "--out", tmp_path, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_bad_flag_values(tmp_path):
    assert run_cli(["energy", "--config", VACUUM, "--out", tmp_path,
                    "--quad-points", "0"]) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["certify", "sweep"])
@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_bad_cr_step_is_named_usage_error(tmp_path, capsys, command, step):
    # a zero step used to divide by zero in the CR stencil, a negative one
    # pushed the stencil out of the upper half-plane
    assert run_cli([command, "--config", VACUUM, "--out", tmp_path,
                    "--cr-step", step]) == 1
    assert "--cr-step must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["certify", "sweep", "energy", "trajectory"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bad_tol_is_named_usage_error(tmp_path, capsys, command, tol):
    # nan and negative tolerances used to fail every check with no anomaly,
    # inf passed every check vacuously
    assert run_cli([command, "--config", VACUUM, "--out", tmp_path,
                    "--tol", tol]) == 1
    assert "--tol must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_quad_points_upper_bound(tmp_path, capsys, monkeypatch):
    # rejected before the quadrature allocates anything
    def refuse(*args, **kwargs):
        raise AssertionError("energy_balance must not run")

    monkeypatch.setattr("dtnstack.cli.energy_balance", refuse)
    assert run_cli(["energy", "--config", VACUUM, "--out", tmp_path,
                    "--quad-points", "1000001"]) == 1
    assert "--quad-points must be between 1 and 1000000" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_grid_size_upper_bound(tmp_path, capsys, monkeypatch):
    # the product is checked before any grid point is built
    def refuse(*args, **kwargs):
        raise AssertionError("omega_grid_points must not run")

    monkeypatch.setattr("dtnstack.cli.omega_grid_points", refuse)
    doc = json.loads(VACUUM.read_text())
    doc["omega_grid"].update(re_steps=1_000_000_000, im_steps=1)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert run_cli(["certify", "--config", p, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert "omega_grid: re_steps × im_steps must be at most 100000" in err
    assert not (tmp_path / "report.json").exists()
    doc["omega_grid"].update(re_steps=1001, im_steps=100)
    with pytest.raises(StackParseError, match="at most 100000"):
        parse_run_config(doc, "transfer")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["transfer", "certify", "energy", "trajectory"])
@pytest.mark.parametrize("k1, reason", [(1e200, "system matrix overflowed"),
                                        (1e154, "numerical anomaly")])
def test_overflowing_system_matrix_is_named_anomaly(tmp_path, capsys, command,
                                                    k1, reason):
    # kappa**2 overflows in build_A (1e200) or in the layer exponent (1e154):
    # exit 2 with a named reason, never a RuntimeWarning
    doc = json.loads(VACUUM.read_text())
    doc["kappa"] = [k1, 0.0]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["transfer", "dtn", "certify", "sweep"])
def test_overflowing_flux_form_is_named_anomaly(tmp_path, capsys, command):
    # kappa = 200 over thickness 2: the transfer matrix (|T| ~ 1e175) is
    # finite but J - T*JT overflows; exit 2, not a RuntimeWarning or an
    # OverflowError from the flux resolution floor
    doc = json.loads(VACUUM.read_text())
    doc["kappa"] = [200.0, 0.0]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 2
    assert "numerical anomaly: flux form overflowed" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["transfer", "energy", "certify"])
@pytest.mark.parametrize("scale, reason", [
    (1e-12, "mat_exp overflowed"),
    (1e-17, "normal response block is singular"),
    (1e-30, "normal response block is singular"),
    (1e-200, "normal response block is singular"),
])
def test_tiny_normal_block_is_named_singular(tmp_path, capsys, command, scale, reason):
    # omega*eps_33 at or below eps times the tensor's largest entry is
    # singular; above it the huge exponent overflows as before
    doc = json.loads(VACUUM.read_text())
    doc["kappa"] = [0.5, 0.0]
    doc["stack"]["layers"][0]["material"]["eps"]["value"][2][2] = [scale, scale]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 2
    assert f"numerical anomaly: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _set_psi0(doc, v):
    doc["psi0"] = [[1, 0], [0, v], [0, 0], [0, 0]]


def _set_traj_f(doc, v):
    doc["trajectory"] = {"f": [[1, 0], [0, 0], [0, 0], [v, 0], [0, 0], [0, 0]]}


def _set_traj_omega(doc, v):
    doc["trajectory"] = {"omega": [0.2, v]}


def _set_eps_value(doc, v):
    doc["stack"]["layers"][0]["material"]["eps"]["value"][1][1][1] = v


def _set_grid_bound(doc, v):
    doc["omega_grid"]["re_max"] = v


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["transfer", "dtn", "certify", "energy", "sweep",
                                     "trajectory"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-beyond-double"])
@pytest.mark.parametrize("key, put", [
    ("psi0", _set_psi0),
    ("trajectory.f", _set_traj_f),
    ("trajectory.omega", _set_traj_omega),
    ("stack.layers[0].material.eps.value", _set_eps_value),
    ("omega_grid.re_max", _set_grid_bound),
])
def test_nonfinite_config_entry_is_named_input_error(tmp_path, capsys, command,
                                                     value, key, put):
    # a non-finite [re, im] entry used to escape as a RuntimeWarning or end
    # in a FAIL verdict (exit 2), and json reads 10**400 as an int that
    # float() cannot convert; every command reads the whole config
    doc = json.loads(VACUUM.read_text())
    put(doc, value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 1
    assert f"{key}: " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _set_kappa(doc, v):
    doc["kappa"] = [v, 0.0]


def _set_traj_L0(doc, v):
    doc["trajectory"] = {"L0": [[v, 0, 0], [0, 0, 0], [0, 0, 0]]}


@pytest.mark.parametrize("command", ["transfer", "dtn", "certify", "energy", "sweep",
                                     "trajectory"])
@pytest.mark.parametrize("value", ["0.5", True, None], ids=["str", "bool", "null"])
@pytest.mark.parametrize("key, put", [
    ("kappa", _set_kappa),
    ("psi0", _set_psi0),
    ("trajectory.f", _set_traj_f),
    ("trajectory.L0", _set_traj_L0),
    ("stack.layers[0].material.eps.value", _set_eps_value),
])
def test_non_number_config_entry_is_named_input_error(tmp_path, capsys, command,
                                                      value, key, put):
    # array entries are read as _number reads a scalar: a numeric string or a
    # bool used to be converted ("kappa": ["0.5", 0] ran transfer to exit 0)
    doc = json.loads(VACUUM.read_text())
    put(doc, value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 1
    assert f"{key}: expected a number, got {type(value).__name__}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["trajectory", "dtn"])
@pytest.mark.parametrize("asymmetry", [1e-7, 1e-3])
def test_asymmetric_L0_is_named_input_error(tmp_path, capsys, command, asymmetry):
    # the parser applies the library's rule (1e-12 relative): an asymmetry of
    # 1e-7 used to pass it, so trajectory stopped with an unnamed "L0 must be
    # Hermitian" and dtn exited 0
    L0 = [[0.5, 0.2, 0.0], [0.2, -0.3, 0.1], [0.0, 0.1, 0.4]]
    L0[0][1] += asymmetry
    doc = json.loads(VACUUM.read_text())
    doc["trajectory"] = {"L0": L0}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 1
    assert "trajectory.L0: must be symmetric" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_large_L0_symmetric_to_working_precision_is_accepted():
    # the rule is relative: an asymmetry of 2e-9 on a zero entry is rounding
    # at entries near 1e6 (an absolute 1e-12 used to reject it)
    doc = json.loads(VACUUM.read_text())
    doc["trajectory"] = {"L0": [[1e6, 2e-9, 0], [0, 1e6, 0], [0, 0, 1e6]]}
    assert parse_run_config(doc, "trajectory").traj_L0[0, 1] == 2e-9


# ------------------------------------------------------------- determinism

def test_report_bodies_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["certify", "--config", VACUUM, "--out", a]) == 0
    assert run_cli(["certify", "--config", VACUUM, "--out", b]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


@pytest.mark.parametrize("config, extra", [(GAIN, []), (VACUUM, ["--tol", "1e-30"])],
                         ids=["gain", "tol"])
def test_sweep_fails_as_certify_does(tmp_path, capsys, config, extra):
    # sweep gives the verdict certify gives, whichever check fails
    assert run_cli(["sweep", "--config", config, "--out", tmp_path, *extra]) == 2
    assert "[sweep] FAIL" in capsys.readouterr().out
    res = json.loads((tmp_path / "report.json").read_text())["results"]
    assert res["min_im_eig"] <= 0 or res["worst_cr"] >= res["cr_tol"]
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_csv_written(tmp_path):
    assert run_cli(["sweep", "--config", VACUUM, "--out", tmp_path]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# omega_re,omega_im,")
    assert len(lines) == 1 + 6  # 3 x 2 grid


# ---------------------------------------------------------- other commands

def test_transfer_command(tmp_path):
    assert run_cli(["transfer", "--config", VACUUM, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["results"]["flux_min_eig"] > 0
    T = rep["results"]["transfer_matrix"]
    assert len(T) == 4 and len(T[0]) == 4 and len(T[0][0]) == 2


def test_dtn_command(tmp_path):
    assert run_cli(["dtn", "--config", VACUUM, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    cert = rep["results"]["certificate"]
    assert cert["passive"] is True
    assert cert["flux_positive"] is True
    assert cert["im_min_eig"] > 0


def test_dtn_command_gain_exits_two(tmp_path):
    assert run_cli(["dtn", "--config", GAIN, "--out", tmp_path]) == 2
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["results"]["certificate"]["passive"] is False


def test_energy_command(tmp_path):
    assert run_cli(["energy", "--config", VACUUM, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    res = rep["results"]
    assert res["passed"] is True
    assert res["relative_gap"] <= 1e-6
    assert res["boundary_flux"] > 0


@pytest.mark.parametrize("config, code", [(VACUUM, 0), (GAIN, 2)], ids=["vacuum", "gain"])
def test_energy_verdict_requires_passive_layers(tmp_path, capsys, config, code):
    # both energy sides stay positive on the gain config, whose gain sits in
    # a direction the default psi0 does not excite; passivity decides
    assert run_cli(["energy", "--config", config, "--out", tmp_path]) == code
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["results"]["passed"] is (code == 0)
    assert rep["results"]["boundary_flux"] > 0
    if code:
        assert rep["anomalies"] == ["layer 0 is not passive (min eig Im(omega*eps) "
                                    "-4.000e-01, Im(omega*mu) 4.000e-01)"]
        assert "[energy] FAIL" in capsys.readouterr().out
    else:
        assert rep["anomalies"] == []


def test_trajectory_verdict_requires_passive_phases(tmp_path, capsys):
    # trajectory_coeffs needs Im of every phase tensor positive definite; a
    # gain phase is a certification failure with a report, as on energy
    assert run_cli(["trajectory", "--config", GAIN, "--out", tmp_path]) == 2
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["results"]["passed"] is False
    assert rep["results"]["phases"] == ["gain"]
    assert rep["anomalies"] == ["phase 0 ('gain') is not passive (min eig "
                                "Im(omega*eps) -4.000e-01, Im(omega*mu) 4.000e-01)"]
    assert "[trajectory] FAIL" in capsys.readouterr().out


def test_trajectory_rejects_shared_label_with_other_material(tmp_path, capsys):
    doc = json.loads(VACUUM.read_text())
    layer = doc["stack"]["layers"][0]
    layer["thickness"] = 1.0
    other = json.loads(json.dumps(layer))
    other["material"]["eps"]["value"][0][0] = [2, 0]
    doc["stack"]["layers"].append(other)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["trajectory", "--config", cfg, "--out", tmp_path / "out"]) == 1
    assert "layers 0 and 1 share the label 'vacuum'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_trajectory_command(tmp_path):
    assert run_cli(["trajectory", "--config", VACUUM, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    res = rep["results"]
    assert res["passed"] is True
    assert res["roundtrip_deviation"] <= 1e-12
    assert res["min_im_h"] > 0
    assert res["phases"] == ["vacuum"]
    assert res["cr_step"] is None


def test_trajectory_mat_exp_calls_stay_within_the_matrix_budget(tmp_path, monkeypatch):
    # 64 layers of two alternating phases on a 10-point s-grid: a chunk of
    # k s-points hands mat_exp k * len(CR_OFFSETS) * 64 layer matrices, at
    # most MAT_EXP_BATCH (4 s-points, 1,024 matrices); a fixed 8 s-points per
    # chunk would hand it 2,048
    import dtnstack.transfer as T
    from dtnstack.analyticity import CR_OFFSETS
    from dtnstack.linalg import MAT_EXP_BATCH

    doc = json.loads(VACUUM.read_text())
    vacuum = doc["stack"]["layers"][0]["material"]
    dense = json.loads(json.dumps(vacuum))
    dense["label"] = "dense"
    dense["eps"]["value"][0][0] = [2, 0]
    doc["stack"]["layers"] = [{"thickness": 2.0 / 64, "material": (vacuum, dense)[j % 2]}
                              for j in range(64)]
    doc["omega_grid"].update(re_steps=5, im_steps=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    mat_exp, sizes = T.mat_exp, []

    def counting(*args):
        P = mat_exp(*args)
        sizes.append(math.prod(P.shape[:-2]))
        return P

    monkeypatch.setattr(T, "mat_exp", counting)
    assert run_cli(["trajectory", "--config", cfg, "--out", tmp_path / "out"]) == 0
    res = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    assert res["phases"] == ["vacuum", "dense"]
    # the certificate's chunks, then the samples at Z and at the s = i roundtrip
    *chunks, at_z, at_back = sizes
    per_point = len(CR_OFFSETS) * 64
    assert (at_z, at_back) == (64, 64)
    assert sum(chunks) == len(res["h_values"]) * per_point
    assert max(chunks) <= MAT_EXP_BATCH
    # every chunk but the last is full: one more s-point would not fit
    assert all(n + per_point > MAT_EXP_BATCH for n in chunks[:-1])
    assert len(chunks) > 1


def test_certify_sends_four_stencil_points_per_grid_point_and_layer(tmp_path, monkeypatch):
    # the stencil's centre is the grid point itself, so each grid point
    # propagates its layers at four frequencies, not five
    import dtnstack.transfer as T

    doc = json.loads(VACUUM.read_text())
    vacuum = doc["stack"]["layers"][0]["material"]
    doc["stack"]["layers"] = [{"thickness": 0.5, "material": vacuum} for _ in range(3)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    mat_exp, sizes = T.mat_exp, []

    def counting(*args):
        P = mat_exp(*args)
        sizes.append(math.prod(P.shape[:-2]))
        return P

    monkeypatch.setattr(T, "mat_exp", counting)
    assert run_cli(["certify", "--config", cfg, "--out", tmp_path / "out"]) == 0
    points = len(json.loads((tmp_path / "out" / "report.json").read_text())["results"]["grid"])
    assert points == 6
    assert sum(sizes) == 4 * points * 3


@pytest.mark.parametrize("im", [1e-10, 1e-12, 1e-14])
def test_certify_passes_the_vacuum_slab_near_the_real_axis(tmp_path, capsys, im):
    # no stencil point lies below omega, so the step keeps its default width
    # however close omega comes to the real axis, and the rounding floor of
    # the residual stays far below the tolerance
    doc = json.loads(VACUUM.read_text())
    doc["omega_grid"] = dict(re_min=1.0, re_max=1.0, re_steps=1,
                             im_min=im, im_max=im, im_steps=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["certify", "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert "[certify] PASS" in capsys.readouterr().out
    res = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    assert res["worst_cr"] < 1e-6


def test_trajectory_honours_cr_step(tmp_path):
    # a wide stencil's truncation error fails the 1e-5 CR tolerance
    runs = {}
    for name, extra, code in (("default", [], 0), ("wide", ["--cr-step", "0.3"], 2)):
        assert run_cli(["trajectory", "--config", VACUUM, "--out", tmp_path / name,
                        *extra]) == code
        runs[name] = json.loads((tmp_path / name / "report.json").read_text())["results"]
    assert runs["wide"]["cr_step"] == 0.3
    assert runs["wide"]["worst_cr"] > 1e-5 > runs["default"]["worst_cr"]
    assert runs["wide"]["h_values"] == runs["default"]["h_values"]


def test_console_script_installed(tmp_path):
    exe = shutil.which("dtnstack")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "certify", "--config", str(VACUUM), "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[certify] PASS" in proc.stdout


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(dtnstack.__path__)])
def test_every_export_resolves(module):
    mod = importlib.import_module(f"dtnstack.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


# -------------------------------------------------------------- config parsing

def test_parse_run_config_defaults():
    doc = json.loads(VACUUM.read_text())
    cfg = parse_run_config(doc, "certify")
    assert cfg.kappa == (0.0, 0.0)
    assert len(cfg.grid) == 6
    assert cfg.z0 == -1.0 and cfg.z1 == 1.0
    assert cfg.psi0.tolist() == [1, 0, 0, 0]


def test_parse_run_config_rejects_outside_z():
    doc = json.loads(VACUUM.read_text())
    doc["z0"] = -5.0
    with pytest.raises(StackParseError) as exc:
        parse_run_config(doc, "certify")
    assert "z0" in str(exc.value)


def test_parse_run_config_real_grid_ok_for_transfer():
    # transfer is not a certification command; a real-axis grid is legal
    doc = json.loads(BAD_GRID.read_text())
    cfg = parse_run_config(doc, "transfer")
    assert cfg.grid[0] == complex(-0.5, 0.0)


def test_parse_run_config_trajectory_block():
    doc = json.loads(VACUUM.read_text())
    doc["trajectory"] = {
        "L0": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        "omega": [0.2, 0.8],
        "f": [[1, 0], [0, 0], [0, 0], [0, 1], [0, 0], [0, 0]],
    }
    cfg = parse_run_config(doc, "trajectory")
    assert cfg.traj_omega == 0.2 + 0.8j
    assert cfg.f[3] == 1j
    doc["trajectory"]["omega"] = [0.2, -0.8]
    with pytest.raises(StackParseError):
        parse_run_config(doc, "trajectory")

"""The output gate's check for a run that fails without naming why."""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from compare_outputs import run, silent_fail  # noqa: E402


def _result(code, anomalies):
    report = None if anomalies is None else json.dumps({"anomalies": anomalies})
    return {"exit code": f"{code}\n", "report.json": report}


def test_silent_fail_is_exit_2_with_a_report_naming_no_anomaly():
    assert silent_fail(_result(2, []))
    assert not silent_fail(_result(2, ["layer 0 is not passive"]))
    assert not silent_fail(_result(2, None))  # stopped run: named on stderr
    assert not silent_fail(_result(0, []))
    assert not silent_fail(_result(1, None))


def test_gain_config_run_is_not_a_silent_fail(tmp_path):
    result = run(ROOT, ["certify"], ROOT / "configs" / "gain_certify.json", tmp_path / "w")
    assert result["exit code"] == "2\n"
    assert not silent_fail(result)

"""The output gate's check for a run that fails without naming why."""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from compare_outputs import describe, run, silent_fail  # noqa: E402


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


def test_describe_prints_bytes_that_differ_in_no_field_value():
    # json reads -0 as the integer 0 and the CSV reader finds -0.0 == 0.0, so
    # no field changes; the output is described by its unified diff instead
    assert describe("report.json", '{"x": -0}\n', '{"x": 0}\n') == [
        "--- other", "+++ this", "@@ -1 +1 @@", '-{"x": 0}', '+{"x": -0}']
    csv_this, csv_other = "# a,b\n1.0,-0.0\n", "# a,b\n1.0,0.0\n"
    assert describe("sweep.csv", csv_this, csv_other)[-2:] == ["-1.0,0.0", "+1.0,-0.0"]
    assert describe("report.json", '{"x": 2}\n', '{"x": 1}\n') == [
        "x: largest relative change 5.000e-01"]

import json
from pathlib import Path

import pytest

from run import tally, tail_percentile
from workload import gate_margins, run_pass


class FlakyError(RuntimeError):
    pass


def stub_cli_main(argv):
    """Stands in for wcl.cli.cli_main: behaviour picked by the driver name."""
    driver = argv[0]
    out = Path(argv[argv.index("--out") + 1])
    if driver == "raises":
        raise FlakyError("ill-conditioned")
    if driver == "silent":
        return 0
    out.mkdir(parents=True, exist_ok=True)
    passed = driver != "fails"
    rows = [{"name": "r", "estimate": 1.0, "std_error": 0.1, "oracle": 1.1,
             "tolerance": 0.0, "passed": passed}]
    (out / "report.json").write_text(json.dumps({"rows": rows, "seed": argv[-1]}))
    return 0 if passed else 1


OPS = (("raises",), ("fails",), ("ok",), ("silent",))


def test_raising_driver_is_recorded_not_propagated(tmp_path):
    records = run_pass(stub_cli_main, OPS, 3, tmp_path)
    assert [r["exception"] for r in records] == ["FlakyError", None, None, None]
    assert [r["exit_code"] for r in records] == [None, 1, 0, 0]
    assert [r["failed_rows"] for r in records] == [0, 1, 0, 0]
    assert records[2]["digest"] is not None and records[3]["digest"] is None
    assert records[2]["margin"] == pytest.approx((0.3 - 0.1) / 0.3)


def test_tally_counts_each_kind_of_failure(tmp_path):
    first = run_pass(stub_cli_main, OPS, 3, tmp_path / "a")
    second = run_pass(stub_cli_main, OPS, 3, tmp_path / "b")
    second[2] = dict(second[2], digest="differs")
    attempted, failed, reasons = tally([first, second, None], len(OPS))
    assert attempted == 12
    # every op but "ok" fails in both passes, "ok" fails once (digest),
    # and the dead pass fails all four
    assert failed == 3 + 4 + 4
    assert reasons == {"exception.FlakyError": 2, "exit_code": 2, "failed_rows": 2,
                       "missing_report": 2, "digest_mismatch": 1, "crashed_pass": 1}


def test_clean_passes_have_no_failures(tmp_path):
    ok = (("ok",),)
    passes = [run_pass(stub_cli_main, ok, 1, tmp_path / str(k)) for k in range(3)]
    assert tally(passes, 1) == (3, 0, {})


def test_gate_margin_uses_the_report_pass_rule():
    rows = [
        {"estimate": 1.0, "std_error": 0.1, "oracle": 1.2, "tolerance": 0.0},
        {"estimate": 1.0, "std_error": 0.0, "oracle": 1.0, "tolerance": 0.5},
        {"estimate": 1.0, "std_error": None, "oracle": None, "tolerance": None},
        {"estimate": 1.0, "std_error": 0.0, "oracle": 1.0, "tolerance": 0.0},
    ]
    margins = gate_margins({"rows": rows})
    assert margins[0] == pytest.approx((0.3 - 0.2) / 0.3)
    assert margins[1] == 1.0
    assert len(margins) == 2


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(20))) is None
    assert tail_percentile(list(range(40))) == (75.0, 29)


def test_fac_g_stages_reproduce_the_fac_drivers_g_rows(tmp_path):
    from wcl.cli import cli_main
    from workload import fac_g_stages

    args = ["--steps", "256", "--samples", "100", "--seed", "12345", "--quiet"]
    cli_main(["fac", *args, "--out", str(tmp_path / "driver")])
    assert fac_g_stages(["fac-g", *args, "--out", str(tmp_path / "op")]) == 0
    driver = json.loads((tmp_path / "driver" / "report.json").read_text())
    op = json.loads((tmp_path / "op" / "report.json").read_text())
    g_rows = [r for r in driver["rows"]
              if r["name"].startswith(("g_family", "kl_tail", "holder"))]
    assert op["rows"] == g_rows
    assert dict(op["config"], out_dir=None) == dict(driver["config"], out_dir=None)

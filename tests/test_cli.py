import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dirinfo import cli
from dirinfo.cli import RunConfig, UsageError, emit_report, parse_config, run


def write_model(tmp_path, name="m.json", **overrides):
    doc = {
        "type": "channel",
        "horizon": 0,
        "time_invariant": True,
        "C": 2.0, "D": 1.0, "KV": 1.0, "R": 1.0, "Q": 0.0,
        "kappa": 9.0,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_basic_capacity(tmp_path):
    mp = write_model(tmp_path)
    cfg = parse_config(["capacity", "--model", mp, "--kappa", "9"])
    assert cfg.command == "capacity"
    assert cfg.kappa == 9.0
    assert cfg.units == "nats"


def test_parse_missing_model_is_usage_error():
    with pytest.raises(UsageError, match="--model"):
        parse_config(["capacity"])


def test_parse_rejects_unknown_config_keys(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"model": "x.json", "frobnicate": 1}))
    with pytest.raises(UsageError, match="unknown config keys"):
        parse_config(["capacity", "--config", str(cfg_file)])


def test_flag_precedence_over_config(tmp_path):
    mp = write_model(tmp_path)
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"model": mp, "kappa": 5.0, "units": "bits"}))
    cfg = parse_config(["capacity", "--config", str(cfg_file), "--kappa", "7"])
    assert cfg.kappa == 7.0
    assert cfg.units == "bits"


def test_dump_config_round_trip(tmp_path):
    mp = write_model(tmp_path)
    cfg = parse_config(["capacity", "--model", mp, "--kappa", "9", "--units", "bits"])
    dumped = tmp_path / "dump.json"
    dumped.write_bytes(emit_report(cfg.to_dict(), "json"))
    again = parse_config(["capacity", "--config", str(dumped)])
    assert again == cfg


def test_capacity_report_values_and_oracle(tmp_path):
    mp = write_model(tmp_path)
    code, report = run(parse_config(["capacity", "--model", mp]))
    assert code == 0
    res = report["result"]
    assert res["capacity_nats"] == pytest.approx(0.5 * math.log(2.5), abs=1e-6)
    assert res["regime"] == "unstable_stabilized"
    assert res["kappa_min"] == pytest.approx(3.0, abs=1e-9)
    assert report["oracle"]["max_delta"] < 1e-6
    assert "lower_bound" in report
    assert report["lower_bound"]["applies"] is False


def test_zero_capacity_is_success(tmp_path):
    mp = write_model(tmp_path, kappa=2.0)
    code, report = run(parse_config(["capacity", "--model", mp]))
    assert code == 0
    assert report["result"]["capacity_nats"] == 0.0
    assert report["result"]["regime"] == "zero_rate"
    assert report["result"]["kappa_min"] == pytest.approx(3.0, abs=1e-9)


def test_units_bits_conversion(tmp_path):
    mp = write_model(tmp_path, C=0.5, kappa=1.0)
    code, report = run(parse_config(["capacity", "--model", mp, "--units", "bits"]))
    assert code == 0
    assert report["result"]["capacity"] == pytest.approx(0.5, abs=1e-9)
    assert report["result"]["capacity_nats"] == pytest.approx(0.5 * math.log(2), abs=1e-9)


def test_fixed_multiplier_mode(tmp_path):
    mp = write_model(tmp_path)
    code, report = run(parse_config(["capacity", "--model", mp, "--s", "0.05"]))
    assert code == 0
    assert report["multiplier_mode"] == "fixed"
    assert report["result"]["s_star"] == 0.05


def test_nofeedback_command(tmp_path):
    mp = write_model(tmp_path, C=0.5, kappa=1.0)
    code, report = run(parse_config(["nofeedback", "--model", mp]))
    assert code == 0
    assert report["result"]["capacity_nats"] == pytest.approx(0.5 * math.log(2), abs=1e-8)


def test_solver_error_exits_one(tmp_path):
    mp = write_model(tmp_path, Q=0.5)
    code, report = run(parse_config(["nofeedback", "--model", mp]))
    assert code == 1
    assert "Q = 0" in report["error"]


def test_check_command_reports_system_tests(tmp_path):
    mp = write_model(tmp_path)
    code, report = run(parse_config(["check", "--model", mp]))
    assert code == 0
    res = report["result"]
    assert res["valid"] and not res["errors"]
    assert res["spectral_radius"] == pytest.approx(2.0)
    assert res["stabilizable"] is True
    assert res["detectable"] is False


def test_check_reports_invalid_model(tmp_path):
    mp = write_model(tmp_path, KV=0.0)
    code, report = run(parse_config(["check", "--model", mp]))
    assert code == 1
    assert not report["result"]["valid"]
    assert any("noise covariance" in e for e in report["result"]["errors"])


def test_ftfi_command(tmp_path):
    mp = write_model(tmp_path, C=0.5, kappa=1.0, horizon=60)
    code, report = run(parse_config(["ftfi", "--model", mp]))
    assert code == 0
    assert report["result"]["capacity_nats"] == pytest.approx(0.5 * math.log(2), abs=1e-4)
    assert abs(report["result"]["achieved_cost"] - 1.0) < 1e-6


def test_simulate_command_small(tmp_path):
    mp = write_model(tmp_path)
    code, report = run(parse_config(["simulate", "--model", mp, "--steps", "5000",
                                     "--seeds", "3"]))
    assert code == 0
    res = report["result"]
    assert len(res["terminal_rates"]) == 3
    assert res["violation_fraction"] <= 1.0


def test_simulate_full_scale_rates_concentrate(tmp_path):
    mp = write_model(tmp_path)
    code, report = run(parse_config(["simulate", "--model", mp, "--steps", "100000",
                                     "--seeds", "8"]))
    assert code == 0
    res = report["result"]
    assert len(res["terminal_rates"]) == 8
    assert all(abs(r - 0.45815) < 0.02 for r in res["terminal_rates"])
    assert res["rate_violation_fraction"] == 0.0


def test_gaussian_initial_output_loads(tmp_path):
    mp = write_model(tmp_path, C=0.5, kappa=1.0, horizon=3,
                     initial_output={"mean": [0.4], "cov": [[0.25]]})
    code, report = run(parse_config(["ftfi", "--model", mp, "--s", "0.3"]))
    assert code == 0
    # the DP value integrates the initial second moment, mean^2 + cov
    from dirinfo import capacity as cap
    import dirinfo as di
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0, horizon=3,
                        initial_mean=[0.4], initial_cov=[[0.25]])
    sol = cap.finite_horizon_dp(m, 0.3)
    assert report["result"]["value_nats"] == pytest.approx(sol.value_nats, rel=1e-12)


def test_simulate_csv_emits_trace(tmp_path):
    mp = write_model(tmp_path)
    cfg = parse_config(["simulate", "--model", mp, "--steps", "1500", "--seeds", "2",
                        "--format", "csv"])
    code, report = run(cfg)
    payload = emit_report(report, "csv").decode()
    assert payload.startswith("step,b0,a0,")
    assert len(payload.strip().split("\n")) == 1501


def test_sweep_csv_rows(tmp_path):
    mp = write_model(tmp_path)
    cfg = parse_config(["sweep", "--model", mp, "--param", "kappa",
                        "--grid", "2,5,9", "--format", "csv"])
    code, report = run(cfg)
    assert code == 0
    assert len(report["rows"]) == 3
    text = emit_report(report, "csv").decode()
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert "capacity_nats" in lines[0]


def test_sweep_over_channel_coefficient(tmp_path):
    mp = write_model(tmp_path, kappa=5.0)
    cfg = parse_config(["sweep", "--model", mp, "--param", "C", "--grid", "0.5,2.0"])
    code, report = run(cfg)
    assert code == 0
    rows = report["rows"]
    assert rows[0]["regime"] == "stable_no_feedback"
    assert rows[1]["regime"] == "unstable_stabilized"
    assert rows[0]["capacity_nats"] == pytest.approx(0.5 * math.log(6.0), abs=1e-7)


def test_sweep_records_errors_per_cell(tmp_path):
    mp = write_model(tmp_path, Q=0.5, kappa=0.01)
    cfg = parse_config(["sweep", "--model", mp, "--param", "kappa", "--grid", "0.01,50"])
    code, report = run(cfg)
    assert code == 0
    assert "error" in report["rows"][0]
    assert "capacity_nats" in report["rows"][1]


def test_sweep_requires_param_and_grid(tmp_path):
    mp = write_model(tmp_path)
    with pytest.raises(UsageError, match="sweep"):
        parse_config(["sweep", "--model", mp])


def test_horizon_and_kappa_overrides(tmp_path):
    mp = write_model(tmp_path, C=0.5, kappa=1.0, horizon=5)
    cfg = parse_config(["ftfi", "--model", mp, "--horizon", "80", "--kappa", "2.0"])
    code, report = run(cfg)
    assert code == 0
    assert report["result"]["horizon"] == 80
    assert report["model"]["kappa"] == 2.0
    assert report["result"]["capacity_nats"] == pytest.approx(0.5 * math.log(3), abs=1e-3)


def test_emit_report_is_byte_deterministic(tmp_path):
    mp = write_model(tmp_path)
    _, report = run(parse_config(["capacity", "--model", mp]))
    assert emit_report(report, "json") == emit_report(report, "json")


def test_emit_report_canonical_float_format():
    out = emit_report({"x": math.log(2.0), "arr": np.array([[1.0, 0.25]])}, "json").decode()
    assert '"x": 0.69314718056' in out
    assert '"arr": [[1, 0.25]]' in out


def test_memory_model_file_loads_augmented(tmp_path):
    doc = {
        "type": "memory_j", "horizon": 5,
        "C_blocks": [0.5, 0.25], "D": 1.0, "KV": 1.0, "R": 1.0,
        "Q_K": 0.0, "memory": 2, "cost_memory": 1, "kappa": 1.0,
    }
    path = tmp_path / "mem.json"
    path.write_text(json.dumps(doc))
    code, report = run(parse_config(["check", "--model", str(path)]))
    assert code == 0
    assert report["model"]["augmented"] is True
    assert report["model"]["output_dim"] == 2


def test_malformed_json_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(UsageError, match="malformed JSON"):
        run(parse_config(["capacity", "--model", str(path)]))


def test_main_missing_model_exit_2(capsys):
    assert cli.main(["capacity"]) == 2
    assert "--model" in capsys.readouterr().err


def test_main_writes_output_file(tmp_path):
    mp = write_model(tmp_path, C=0.5, kappa=1.0)
    out = tmp_path / "report.json"
    assert cli.main(["capacity", "--model", mp, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["result"]["regime"] == "stable_no_feedback"


def test_console_script_entry_point(tmp_path):
    mp = write_model(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "dirinfo.cli", "capacity",
                           "--model", mp], capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["capacity_nats"] == pytest.approx(0.458145, abs=1e-5)


def test_usage_error_exit_code_from_argparse():
    proc = subprocess.run([sys.executable, "-m", "dirinfo.cli", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("field, value, error", [
    ("C", float("nan"), "C[0] has a non-finite entry"),
    ("D", float("inf"), "D[0] has a non-finite entry"),
    ("kappa", float("nan"), "kappa not finite"),
])
def test_non_finite_model_file_is_rejected(tmp_path, capsys, field, value, error):
    # json reads NaN and Infinity; validation names them before any solver runs
    mp = write_model(tmp_path, **{field: value})
    for command in ("capacity", "ftfi", "simulate"):
        assert cli.main([command, "--model", mp, "--steps", "1000", "--seeds", "2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error_type"] == "ModelValidationError"
        assert doc["error"] == error
    code, report = run(parse_config(["check", "--model", mp]))
    assert code == 1
    assert report["result"] == {"valid": False, "errors": [error]}


def test_budget_matched_capacity_validates_once(tmp_path, monkeypatch):
    calls = []
    real = cli.validate_model

    def counted(m):
        calls.append(m)
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("dirinfo") and hasattr(module, "validate_model"):
            monkeypatch.setattr(module, "validate_model", counted)
    code, _ = run(parse_config(["capacity", "--model", write_model(tmp_path)]))
    assert code == 0
    assert len(calls) == 1


def test_sweep_of_invalid_model_exits_one(tmp_path):
    mp = write_model(tmp_path, KV=0.0)
    code, report = run(parse_config(["sweep", "--model", mp, "--param", "kappa",
                                     "--grid", "1,9"]))
    assert code == 1
    assert report["error_type"] == "ModelValidationError"
    assert "noise covariance not positive definite" in report["error"]

import argparse
import csv
import dataclasses
import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dirinfo import cli
from dirinfo import model as model_mod
from dirinfo.cli import RunConfig, UsageError, emit_report, parse_config, run
from dirinfo.errors import DirinfoError
from test_direct_are import family_stream


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


@pytest.mark.parametrize("kappa", [1e-13, 2e-13, 1e-12])
def test_a_budget_just_above_kappa_min_is_not_zero_rate(tmp_path, kappa):
    # kappa_min = 3e-14, and K_Z, 1.75e-14 to 2.4e-13, is small but not zero: the
    # regime follows the water-fill, as the closed form's does
    mp = write_model(tmp_path, D=1e7, kappa=kappa)
    code, report = run(parse_config(["capacity", "--model", mp]))
    assert code == 0
    assert report["result"]["regime"] == report["oracle"]["regime"]
    assert report["result"]["capacity_nats"] > 0.0


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


@pytest.mark.parametrize("flags, error", [
    (["--seeds", "1"], "need at least 2 traces"),
    (["--seeds", "0"], "need at least 2 traces"),
    (["--seeds", "-1", "--s", "0.5"], "need at least 2 traces"),
    (["--steps", "999"], "traces shorter than 10^3 steps are too noisy to certify"),
])
def test_simulate_that_cannot_be_certified_fails_before_the_solve(tmp_path, capsys, monkeypatch,
                                                                  flags, error):
    def untouched(*args, **kwargs):
        raise AssertionError("solved or sampled a run that cannot be certified")

    monkeypatch.setattr(cli.riccati, "solve_are", untouched)
    monkeypatch.setattr(cli.simulate, "simulate_batch", untouched)
    assert cli.main(["simulate", "--model", write_model(tmp_path)] + flags) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["error_type"], report["error"]) == ("PreconditionError", error)
    assert captured.err == f"error: {error}\n"


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


def test_sweep_csv_quotes_an_error_cell_that_holds_a_comma(tmp_path):
    # D = 0 fails the stabilizability test at C = 2, and its text names "(C, D)"
    mp = write_model(tmp_path, D=0.0, kappa=3.0)
    code, report = run(parse_config(["sweep", "--model", mp, "--param", "C",
                                     "--grid", "2,0.5", "--format", "csv"]))
    assert code == 0
    rows = list(csv.reader(io.StringIO(emit_report(report, "csv").decode())))
    assert [len(row) for row in rows] == [3, 3, 3]
    assert rows[0] == ["error", "param", "value"]
    assert rows[1] == [report["rows"][0]["error"], "C", "2"]
    assert "," in rows[1][0]


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


def _counted_solves(monkeypatch):
    calls = []
    solve_are = cli.riccati.solve_are
    monkeypatch.setattr(cli.riccati, "solve_are", lambda *a: calls.append(a) or solve_are(*a))
    return calls


def _capacity_row(m, value, units="nats"):
    """The row `feedback_capacity` gives the sweep cell at kappa = `value` on its own."""
    variant = dataclasses.replace(m, kappa=value)
    try:
        sol, cap = cli.capacity.feedback_capacity(variant)
    except DirinfoError as exc:
        return {"param": "kappa", "value": value, "error": str(exc)}
    return {"param": "kappa", "value": value, "capacity_nats": cap,
            "capacity": cli._units_value(cap, units), "s_star": sol.s, "regime": sol.regime,
            "achieved_cost": sol.achieved_cost,
            "kappa_min": cli.capacity.cost_floor(variant, sol.P, sol.s)}


def test_kappa_sweep_makes_one_unit_solve_and_keeps_every_row(tmp_path, monkeypatch):
    # Q != 0, floor 3.64: a negative and a nan kappa fail validation in their own cells,
    # 1.0 is below the floor, the rest are matched on the grid's one unit solution
    grid = [-1.0, math.nan, 1.0, 4.0, 9.0, 50.0]
    mp = write_model(tmp_path, Q=0.5)
    calls = _counted_solves(monkeypatch)
    code, report = run(parse_config(["sweep", "--model", mp, "--param", "kappa", "--units",
                                     "bits", "--grid=" + ",".join(map(str, grid))]))
    assert code == 0
    assert len(calls) == 1
    rows = report["rows"]
    assert ["error" in row for row in rows] == [True, True, True, False, False, False]
    assert rows[0]["error"] == "negative kappa"
    assert rows[1]["error"] == "kappa not finite"
    assert "below minimum stabilization cost" in rows[2]["error"]
    m = cli.load_model(mp)
    for value, row in zip(grid, rows):
        want = _capacity_row(m, value, "bits")
        assert cli._canon(row, exact=True) == cli._canon(want, exact=True), value


def test_kappa_sweep_of_an_unstabilizable_model_carries_one_error(tmp_path, monkeypatch):
    mp = write_model(tmp_path, D=0.0)
    calls = _counted_solves(monkeypatch)
    code, report = run(parse_config(["sweep", "--model", mp, "--param", "kappa",
                                     "--grid", "1,5,9"]))
    assert code == 0
    assert len(calls) == 1
    errors = [row["error"] for row in report["rows"]]
    assert errors == [_capacity_row(cli.load_model(mp), 1.0)["error"]] * 3
    assert "stabilizability test failed for (C, D)" in errors[0]


def test_sweep_over_c_makes_one_solve_per_cell(tmp_path, monkeypatch):
    mp = write_model(tmp_path, kappa=5.0)
    calls = _counted_solves(monkeypatch)
    code, report = run(parse_config(["sweep", "--model", mp, "--param", "C",
                                     "--grid", "0.5,2,3"]))
    assert code == 0
    assert [float(c[0][0, 0]) for c in calls] == [0.5, 2.0, 3.0]
    assert all("capacity_nats" in row for row in report["rows"])


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
    calls, judged = [], []
    real, judge = cli.validate_model, model_mod._validate_channel

    def counted(m):
        calls.append(m)
        return real(m)

    def counted_judge(m):
        judged.append(m)
        return judge(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("dirinfo") and hasattr(module, "validate_model"):
            monkeypatch.setattr(module, "validate_model", counted)
    monkeypatch.setattr(model_mod, "_validate_channel", counted_judge)
    mp = write_model(tmp_path)
    code, _ = run(parse_config(["capacity", "--model", mp]))
    assert code == 0
    assert len(calls) == 1
    # ftfi and simulate call validate_model twice: the second finds the model marked
    for argv in (["ftfi"], ["simulate", "--steps", "1000", "--seeds", "2"]):
        judged.clear()
        code, _ = run(parse_config(argv + ["--model", mp]))
        assert code == 0
        assert len(judged) == 1


def test_sweep_of_invalid_model_exits_one(tmp_path):
    mp = write_model(tmp_path, KV=0.0)
    code, report = run(parse_config(["sweep", "--model", mp, "--param", "kappa",
                                     "--grid", "1,9"]))
    assert code == 1
    assert report["error_type"] == "ModelValidationError"
    assert "noise covariance not positive definite" in report["error"]


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch, capsys):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    mp = write_model(tmp_path)
    assert cli.main(["capacity", "--model", mp]) == 0
    assert cli.main(["sweep", "--model", mp, "--param", "kappa", "--grid", "2,9"]) == 0
    assert cli.main(["ftfi", "--model", mp, "--dump-config"]) == 0
    assert built == []


@pytest.mark.parametrize("flags", [["--grid", "1,2"], ["--param", "kappa"]])
def test_sweep_only_flags_on_other_commands_exit_2(tmp_path, flags):
    proc = subprocess.run([sys.executable, "-m", "dirinfo.cli", "capacity",
                           "--model", write_model(tmp_path)] + flags,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert flags[0] in proc.stderr and not proc.stdout


@pytest.mark.parametrize("argv, expected", [
    (["simulate", "--model", "m.json", "--steps", "77", "--seeds", "3", "--s", "0.2",
      "--kappa", "4", "--horizon", "9", "--format", "csv", "--output", "x.csv", "--dump-config"],
     '{"command": "simulate", "format": "csv", "grid": null, "horizon": 9, "kappa": 4, '
     '"model": "m.json", "output": "x.csv", "param": null, "s": 0.2, "seeds": 3, '
     '"steps": 77, "units": "nats"}\n'),
    (["sweep", "--config", "CFG", "--kappa", "3", "--grid", "0.5,2", "--dump-config"],
     '{"command": "sweep", "format": "json", "grid": [0.5, 2], "horizon": null, "kappa": 3, '
     '"model": "cfg.json", "output": null, "param": "C", "s": null, "seeds": 5, '
     '"steps": 10000, "units": "bits"}\n'),
    (["capacity", "--model", "m.json", "--dump-config"],
     '{"command": "capacity", "format": "json", "grid": null, "horizon": null, "kappa": null, '
     '"model": "m.json", "output": null, "param": null, "s": null, "seeds": 8, '
     '"steps": 10000, "units": "nats"}\n'),
])
def test_dump_config_output_is_unchanged(tmp_path, capsys, argv, expected):
    # the dump loads no model; the expected bytes were printed by the
    # subparser-based CLI that this one replaced
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "cfg.json", "units": "bits", "grid": [1, 2.5],
                               "seeds": 5, "param": "C", "steps": None}))
    assert cli.main([str(cfg) if a == "CFG" else a for a in argv]) == 0
    assert capsys.readouterr().out == expected


def test_options_may_precede_the_command(tmp_path):
    mp = write_model(tmp_path)
    assert parse_config(["--model", mp, "--s", "0.05", "capacity"]) == parse_config(
        ["capacity", "--model", mp, "--s", "0.05"])


def test_non_finite_multiplier_exits_one(tmp_path, capsys):
    assert cli.main(["capacity", "--model", write_model(tmp_path), "--s", "nan"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error_type"] == "PreconditionError"
    assert doc["error"] == "multiplier s must be positive and finite (got nan)"


@pytest.mark.parametrize("key, value", [
    ("units", "furlongs"), ("format", "xml"), ("kappa", "x"), ("steps", 1.5), ("horizon", 2.7),
])
def test_config_values_are_typed_like_flags(tmp_path, key, value):
    # a config value goes through its flag's type and choices: no coercion,
    # no truncation, and misuse is a usage error, not a traceback
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": write_model(tmp_path), key: value}))
    proc = subprocess.run([sys.executable, "-m", "dirinfo.cli", "capacity", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"argument --{key}: invalid" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_config_grid_list_resolves_to_floats(tmp_path):
    # the config's --grid=-1,2 token keeps the negative value from reading as a flag
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": "m.json", "param": "C", "grid": [-1, 2]}))
    assert parse_config(["sweep", "--config", str(cfg)]).grid == (-1.0, 2.0)


def test_help_lists_each_config_field_flag_once(capsys):
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")]
    fields = [f"--{f.name}" for f in dataclasses.fields(RunConfig) if f.name != "command"]
    assert sorted(name for name in listed if name in fields) == sorted(fields)


_CHANNEL = {"C": 2.0, "D": 1.0, "KV": 1.0, "R": 1.0, "Q": 0.0, "kappa": 9.0}
_MEMORY = {"type": "memory_j", "horizon": 5, "C_blocks": [0.5, 0.25], "D": 1.0, "KV": 1.0,
           "R": 1.0, "Q_K": 0.0, "memory": 2, "cost_memory": 1, "kappa": 1.0}
_TIME_VARYING = {"time_invariant": False, "horizon": 1, "C": [2.0, 2.0], "D": [1.0, 1.0],
                 "KV": [1.0, 1.0], "R": [1.0, 1.0], "kappa": 9.0}
_DROP = object()


@pytest.mark.parametrize("base, change, text", [
    (_CHANNEL, {"C": _DROP}, "missing required key 'C'"),
    (_CHANNEL, {"C": "abc"}, "model key 'C' must be"),
    (_CHANNEL, {"C": [[1, 2], [3]]}, "model key 'C' must be"),
    (_CHANNEL, {"C": {"a": 1}}, "model key 'C' must be"),
    (_CHANNEL, {"C": True}, "model key 'C' must be"),
    (_CHANNEL, {"kappa": "lots"}, "model key 'kappa' must be a number"),
    (_CHANNEL, {"kappa": True}, "model key 'kappa' must be a number"),
    (_CHANNEL, {"initial_output": "x"}, "model key 'initial_output' must be"),
    (_CHANNEL, {"initial_output": {"mean": "x"}}, "model key 'initial_output.mean' must be"),
    (_CHANNEL, {"time_invariant": "no"}, "model key 'time_invariant' must be true or false"),
    (_CHANNEL, {"horizon": 2.7}, "model key 'horizon' must be an integer"),
    (_CHANNEL, {"horizon": "7"}, "model key 'horizon' must be an integer"),
    (_MEMORY, {"C_blocks": 0.5}, "model key 'C_blocks' must be"),
    (_MEMORY, {"C_blocks": []}, "model key 'C_blocks' must be"),
    (_MEMORY, {"memory": "2"}, "model key 'memory' must be an integer"),
    (_TIME_VARYING, {"C": 2.0}, "model key 'C' must be"),
])
def test_model_file_of_the_wrong_json_type_is_a_usage_error(tmp_path, capsys, base, change, text):
    # each of these was a raw traceback or a silent coercion
    doc = {**base, **change}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not _DROP}))
    assert cli.main(["capacity", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert text in captured.err and not captured.out


@pytest.mark.parametrize("base, change, error", [
    (_CHANNEL, {"initial_output": [1.0, 2.0]}, "dimension mismatch: initial mean"),
    (_CHANNEL, {"initial_output": {"mean": [0.0, 0.0], "cov": 1.0}}, "dimension mismatch: initial mean"),
    (_MEMORY, {"initial_history": [[0.0]]}, "dimension mismatch: initial history"),
    (_MEMORY, {"memory": -1, "cost_memory": -1}, "memory order M must be >= 1"),
])
def test_model_file_of_the_wrong_shape_is_a_validation_error(tmp_path, capsys, base, change, error):
    doc = {**base, **change}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["capacity", "--model", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error_type"] == "ModelValidationError"
    assert report["error"].startswith(error)


@pytest.mark.parametrize("change, error", [
    ({"D": [[1.0], [2.0]]}, "dimension mismatch: D[0] is (2, 1), expected (1, 1)"),
    ({"KV": -1.0}, "noise covariance not positive definite (KV[0])"),
])
def test_check_and_capacity_report_a_validation_error_alike(tmp_path, capsys, change, error):
    # shapes are judged by validation alone, and check names the violation on
    # stderr as capacity does
    mp = write_model(tmp_path, **change)
    assert cli.main(["check", "--model", mp]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"] == {"valid": False, "errors": [error]}
    assert captured.err == f"error: {error}\n"
    assert cli.main(["capacity", "--model", mp]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["error_type"], report["error"]) == ("ModelValidationError", error)
    assert captured.err == f"error: {error}\n"


def test_check_and_capacity_name_a_schur_form_that_does_not_split_alike(tmp_path, capsys):
    # family seed 7 model 226: a near-defective cluster at 1 +- 1e-5 that the Schur
    # form puts on the wrong side of the circle; check asks the solve's Gramian test
    C, D = next((C, D) for k, C, D in family_stream(7) if k == 226)
    p, q = D.shape
    mp = write_model(tmp_path, C=C.tolist(), D=D.tolist(), KV=np.eye(p).tolist(),
                     R=np.eye(q).tolist(), Q=np.zeros((p, p)).tolist(), kappa=2.0 * p)
    reports = []
    for command in ("check", "capacity"):
        assert cli.main([command, "--model", mp]) == 1
        reports.append(json.loads(capsys.readouterr().out))
    check, capacity = ((r["error_type"], r["error"]) for r in reports)
    assert check == capacity
    assert check == ("PreconditionError",
                     "Schur form of C does not split at its 1 stable eigenvalues")


def test_check_names_the_transpose_where_its_schur_form_does_not_split(tmp_path, capsys):
    # family seed 7 model 46 with Q = e1 e1^T: detectability is stabilizability of
    # (C^T, sqrt(Q)), whose Schur form does not split; capacity declines the model too
    C, D = next((C, D) for k, C, D in family_stream(7) if k == 46)
    p, q = D.shape
    Q = np.zeros((p, p))
    Q[0, 0] = 1.0
    mp = write_model(tmp_path, C=C.tolist(), D=D.tolist(), KV=np.eye(p).tolist(),
                     R=np.eye(q).tolist(), Q=Q.tolist(), kappa=2.0 * p)
    assert cli.main(["check", "--model", mp]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["error_type"], report["error"]) == (
        "PreconditionError", "Schur form of C^T does not split at its 2 stable eigenvalues")
    assert cli.main(["capacity", "--model", mp]) == 1


def test_check_judges_stabilizability_with_the_model_input_weight(tmp_path, capsys):
    # D's second column is 1e-7 and R weighs it 1e-9: with R = I the Gramian's
    # ratio would be 4e-15, with the model's R it is 4e-6, as the Q = 0 solve sees it
    mp = write_model(tmp_path, C=[[2.0, 0.0], [0.0, 3.0]], D=[[1.0, 0.0], [0.0, 1e-7]],
                     KV=np.eye(2).tolist(), R=[[1.0, 0.0], [0.0, 1e-9]],
                     Q=np.zeros((2, 2)).tolist(), kappa=100.0)
    assert cli.main(["check", "--model", mp]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["stabilizable"] is True
    assert cli.main(["capacity", "--model", mp]) == 0


@pytest.mark.parametrize("change, errors", [
    ({"KV": [[1.0, 0.0], [0.0, 1.0]]}, ["dimension mismatch: KV[0] is (2, 2), expected (1, 1)"]),
    ({"memory": -1}, ["memory order M must be >= 1", "expected -1 channel blocks, got 2"]),
    ({"initial_history": [[0.0]]},
     ["dimension mismatch: initial history is (1, 1), expected (2, 1)"]),
])
def test_check_reports_an_invalid_memory_file_as_not_valid(tmp_path, capsys, change, errors):
    # lowering validates a memory_j file, and check reported its failure as an
    # error report ("dimension mismatch: KV") instead of valid: false
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_MEMORY, **change}))
    assert cli.main(["check", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["result"] == {"valid": False, "errors": errors}
    assert report["model"] == {"path": str(path)}
    assert captured.err == f"error: {'; '.join(errors)}\n"


@pytest.mark.parametrize("command", ["capacity", "ftfi"])
def test_lowered_memory_file_reports_kv_regularized(command):
    path = pathlib.Path(__file__).resolve().parent.parent / "docs" / "models" / "memory_order2.json"
    code, report = run(parse_config([command, "--model", str(path)]))
    assert code == 0
    assert report["result"]["kv_regularized"] is True


def test_model_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.main(["capacity", "--model", str(path)]) == 2
    assert "malformed JSON in model file" in capsys.readouterr().err


def test_time_varying_model_file_without_q_takes_zero_output_weight(tmp_path):
    # Q defaults to 0 at every step, as it does for a time-invariant model
    path, zero = tmp_path / "tv.json", tmp_path / "tv0.json"
    path.write_text(json.dumps(_TIME_VARYING))
    zero.write_text(json.dumps(dict(_TIME_VARYING, Q=[0.0, 0.0])))
    code, report = run(parse_config(["ftfi", "--model", str(path)]))
    assert code == 0
    assert report["result"] == run(parse_config(["ftfi", "--model", str(zero)]))[1]["result"]


@pytest.mark.parametrize("command", ["capacity", "ftfi", "nofeedback", "check"])
def test_csv_for_a_report_without_rows_fails_before_the_model_is_read(tmp_path, capsys,
                                                                       monkeypatch, command):
    def untouched(*args, **kwargs):
        raise AssertionError("ran after a usage error")

    monkeypatch.setattr(cli, "load_model", untouched)
    monkeypatch.setattr(cli.capacity, "feedback_capacity", untouched)
    mp = write_model(tmp_path)
    assert cli.main([command, "--model", mp, "--format", "csv"]) == 2
    assert "csv format is only available for sweep and simulate reports" in capsys.readouterr().err
    assert cli.main([command, "--model", mp, "--format", "csv", "--dump-config"]) == 2


@pytest.mark.parametrize("argv, change, error_type", [
    (["sweep", "--param", "kappa", "--grid", "1,9"], {"KV": -1.0}, "ModelValidationError"),
    (["simulate", "--steps", "20", "--seeds", "2"], {}, "PreconditionError"),
    (["sweep", "--param", "kappa", "--grid", "1,9"], {"C": []}, "ModelValidationError"),
    (["simulate", "--steps", "2000", "--seeds", "2"], {"C": []}, "ModelValidationError"),
])
def test_csv_command_that_fails_prints_the_error_report_as_json(tmp_path, capsys,
                                                                argv, change, error_type):
    # an error report has no rows or trace; it used to end in a KeyError traceback
    mp = write_model(tmp_path, **change)
    assert cli.main(argv + ["--model", mp, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["error_type"] == error_type
    assert captured.err == f"error: {report['error']}\n"


@pytest.mark.parametrize("change, flag", [
    ({"kappa": "lots"}, ["--kappa", "4"]),
    ({"horizon": 2.7}, ["--horizon", "3"]),
])
def test_malformed_kappa_or_horizon_is_rejected_under_an_override(tmp_path, capsys, change, flag):
    mp = write_model(tmp_path, **change)
    assert cli.main(["capacity", "--model", mp] + flag) == 2
    assert f"model key '{next(iter(change))}' must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    ("capacity --model docs/models/scalar_unstable.json --kappa 1e300",
     "multiplier s = 5e-301: the output covariance overflows"),
    ("ftfi --model docs/models/scalar_unstable.json --kappa 1e307 --horizon 30",
     "power budget kappa = 1e+307: the water level that spends it is not finite"),
    ("capacity --model docs/models/mimo_stable.json --s 1e-320",
     "multiplier s = 9.99988867183e-321: the water-fill at level 1/(2s) is not finite"),
    ("ftfi --model docs/models/scalar_stable.json --s 1e-320 --horizon 3",
     "multiplier s = 9.99988867183e-321: the water-fill at level 1/(2s) is not finite"),
], ids=["capacity-kappa", "ftfi-kappa", "capacity-s", "ftfi-s"])
def test_extreme_budget_or_multiplier_is_one_named_error_line(argv, error):
    # no numpy warning comes first on stderr, and the error names kappa or s
    proc = subprocess.run([sys.executable, "-m", "dirinfo.cli", *argv.split()],
                          cwd=pathlib.Path(__file__).resolve().parent.parent,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {error}") and proc.stderr.count("\n") == 1
    assert json.loads(proc.stdout)["error_type"] == "PreconditionError"

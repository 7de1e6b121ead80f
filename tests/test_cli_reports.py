"""`capacity` attaches the closed-form oracle only where it is defined, and
`--dump-config` writes values that `--config` reads back equal."""

import json

import pytest

import dirinfo as di
from dirinfo import cli
from dirinfo.cli import parse_config, run


@pytest.mark.parametrize("C, kappa", [(0.7, 4.0), (1.5, 10.0), (-2.0, 20.0)])
def test_scalar_capacity_with_output_weight_has_no_oracle(tmp_path, C, kappa):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"C": C, "D": 1.0, "KV": 1.0, "R": 1.0, "Q": 0.4,
                                "kappa": kappa}))
    code, report = run(parse_config(["capacity", "--model", str(path)]))
    assert code == 0, report.get("error")
    assert "oracle" not in report and "lower_bound" not in report
    _, cap = di.feedback_capacity(di.scalar_model(C, 1.0, 1.0, 1.0, 0.4, kappa))
    assert report["result"]["capacity_nats"] == cap


@pytest.mark.parametrize("argv", [
    ["capacity", "--kappa", "0.1234567890123456", "--s", "1.2345678901234567"],
    ["sweep", "--param", "kappa", "--kappa", "3.0000000000000004", "--s", "0.30000000000000004",
     "--grid", "0.10000000000000002,2.2204460492503131e-16,12345.678901234567"],
])
def test_dump_config_round_trips_seventeen_digit_values(tmp_path, capsys, argv):
    argv = argv + ["--model", "m.json"]
    config = parse_config(argv)
    capsys.readouterr()
    assert cli.main(argv + ["--dump-config"]) == 0
    dumped = tmp_path / "dump.json"
    dumped.write_text(capsys.readouterr().out)
    assert parse_config([config.command, "--config", str(dumped)]) == config

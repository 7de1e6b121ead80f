"""Every CLI call the benchmark makes must parse, and its --dump-config output,
read back with --config, must give the same configuration; a break here
would otherwise show only as failed benchmark ops."""

import importlib.util
import pathlib
import sys

import pytest

from dirinfo import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _workloads()


@pytest.mark.parametrize("workload", list(WORKLOADS.WORKLOADS))
def test_benchmark_ops_parse_and_round_trip_through_dump_config(workload, tmp_path, monkeypatch,
                                                               capsys):
    monkeypatch.chdir(ROOT)     # op model paths are relative to the repository root
    warm, ops = WORKLOADS.build(workload, 1, str(ROOT), str(tmp_path), tiny=True)
    assert ops
    dumped = tmp_path / "dump.json"
    for op in warm + ops:
        config = cli.parse_config(op.argv)
        capsys.readouterr()
        assert cli.main(op.argv + ["--dump-config"]) == 0, op.op_id
        dumped.write_text(capsys.readouterr().out)
        assert cli.parse_config([config.command, "--config", str(dumped)]) == config, op.op_id

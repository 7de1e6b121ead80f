"""Every CLI call the benchmark makes must parse, its --dump-config output,
read back with --config, must give the same configuration, and its report
must serialize to the bytes of the element-by-element reference; a break
here would otherwise show only as failed benchmark ops, or as report bytes
that drift between revisions unseen (the benchmark compares digests only
within one source tree)."""

import importlib.util
import pathlib
import sys

import pytest

from dirinfo import cli
import oracles

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


@pytest.mark.parametrize("workload", list(WORKLOADS.WORKLOADS))
def test_benchmark_op_reports_serialize_as_the_reference_does(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    warm, ops = WORKLOADS.build(workload, 1, str(ROOT), str(tmp_path), tiny=True)
    for op in warm + ops:
        code, report = cli.run(cli.parse_config(op.argv))
        assert code == 0, op.op_id
        assert cli.emit_report(report) == (oracles.canon(report) + "\n").encode(), op.op_id

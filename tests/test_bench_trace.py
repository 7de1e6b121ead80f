"""A traced benchmark pass (`bench/run.py --trace 1`) must yield finite
per-layer metrics: every workload's warm-up and tiny ops run through
`cli.main` inside the benchmark's tracer."""

import importlib.util
import math
import pathlib
import sys

import pytest

from dirinfo import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS, TRACER = _load("workloads"), _load("tracer")


@pytest.mark.parametrize("workload", list(WORKLOADS.WORKLOADS))
def test_traced_pass_yields_finite_layer_metrics(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)     # op model paths are relative to the repository root
    warm, ops = WORKLOADS.build(workload, 1, str(ROOT), str(tmp_path), tiny=True)
    tracer = TRACER.Tracer()
    with tracer:
        for i, op in enumerate(warm + ops):
            tracer.op = i
            cli.main(op.argv)
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    assert metrics
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert not bad

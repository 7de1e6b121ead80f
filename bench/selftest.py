"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Checks that every workload emits exactly the metrics named in
BENCHMARK.json with ``--trace 0`` and ``--trace 1`` and that all ops pass;
that the gates fire on deliberately corrupted reports; and that the
benchmark exits non-zero without a result when the dirinfo sources are
missing.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, out.stdout
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(want) ^ set(got))
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops")


def check_gates() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import gates
    import workloads
    from run import Runner
    workdir = os.path.join(HERE, ".work", "selftest")
    _, ops = workloads.build("stationary-solve", 3, ROOT, workdir, tiny=True)
    by_id = {op.op_id: op for op in ops}
    runner = Runner(workdir)
    picked = [by_id[i] for i in ("docs/scalar_stable", "docs/scalar_stable/nofeedback",
                                 "mimo/p2_unstable_q", "docs/scalar_unstable/sweep")]
    reports = {}
    for op in picked:
        r = runner.run_op(op, 0)
        reports[op.op_id] = json.loads(r["data"])
        assert gates.check(op, r["code"], reports[op.op_id], reports)[0] == [], op.op_id

    def fires(op_id, edit):
        bad = copy.deepcopy(reports)
        edit(bad[op_id])
        fails, _ = gates.check(by_id[op_id], 0, bad[op_id], bad)
        assert fails, f"gate did not fire on corrupted {op_id}"
        print(f"ok   gate fires on {op_id}: {fails[0]}")

    def bump(key, delta):
        def edit(rep):
            rep["result"][key] += delta
        return edit

    fires("docs/scalar_stable", bump("capacity_nats", 1e-3))
    fires("mimo/p2_unstable_q", bump("capacity_nats", 1e-3))
    fires("mimo/p2_unstable_q", bump("achieved_cost", 1e-3))
    fires("docs/scalar_stable/nofeedback", bump("capacity_nats", 1e-3))
    fires("docs/scalar_unstable/sweep",
          lambda rep: rep["rows"][-1].__setitem__("achieved_cost", rep["rows"][-1]["value"] + 1e-3))
    bad = copy.deepcopy(reports["mimo/p2_unstable_q"])
    bad["result"]["residuals"]["are"] = 2.0 * bad["tolerances"]["tol_are"]
    fails, known = gates.check(by_id["mimo/p2_unstable_q"], 0, bad, reports)
    assert not fails and [name for name, _ in known] == ["are_residual_over_tol"], (fails, known)
    print("ok   an ARE residual above tol_are is counted as a known defect")
    sim = workloads.Op("sim", ["simulate"], {}, {"sim_gate"})
    assert gates.check(sim, 0, {"result": {"violation_fraction": 0.0, "steps": 1000}}, {})[0] == []
    assert gates.check(sim, 0, {"result": {"violation_fraction": 0.125, "steps": 1000}}, {})[0]
    print("ok   gate fires on a simulate report with violations")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, ".work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "bench"))
    out = _run(bare, "--workload", "monte-carlo", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0 and '"correct"' not in out.stdout, out.stdout
    shutil.rmtree(bare)
    print(f"ok   exits {out.returncode} without a result when the sources are missing")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_gates()
    check_bare_directory()
    check_metrics(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

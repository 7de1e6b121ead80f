"""Command-line tool: model files in, capacity/simulation reports out.

Model file schema (JSON, matrices as row-major nested arrays; scalars are
accepted for 1x1 entries):

    {
      "type": "channel",          # default
      "horizon": 0,
      "time_invariant": true,
      "C": 2.0, "D": 1.0, "KV": 1.0, "R": 1.0, "Q": 0.0,
      "terminal_Q": 0.0,          # optional, defaults to Q
      "kappa": 9.0,
      "initial_output": 0.0       # vector, or {"mean": ..., "cov": ...}
    }

    {
      "type": "memory_j",
      "horizon": 10,
      "C_blocks": [0.5, 0.25],    # C_{i,i-1}, ..., C_{i,i-M}
      "D": 1.0, "KV": 1.0, "R": 1.0,
      "Q_K": 0.0,                 # acts on the last K outputs, newest first
      "memory": 2, "cost_memory": 1,
      "kappa": 1.0,
      "initial_history": [[0.0], [0.0]]   # optional, newest first
    }

Time-varying models list one matrix per step for C/D/KV/R/Q and set
"time_invariant": false.  Memory models are lowered to first-order form on
load.  Exit codes: 0 success (zero-capacity regimes included), 1 solver or
precondition failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, capacity, model as model_mod, riccati, simulate, stability, waterfill
from .errors import DirinfoError
from .linalg import sym_sqrt
from .model import (ChannelModel, augment_memory, channel_model, memory_model,
                    scalar_view, validate_model)

LN2 = math.log(2.0)

_COMMANDS = ("check", "ftfi", "capacity", "nofeedback", "simulate", "sweep")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: str
    kappa: float = None     # None: use the model file's kappa
    horizon: int = None
    s: float = None         # fixed-multiplier mode when set
    steps: int = 10000
    seeds: int = 8
    units: str = "nats"
    output: str = None
    format: str = "json"
    param: str = None
    grid: tuple = None

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["grid"] = list(self.grid) if self.grid is not None else None
        return d


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirinfo",
        description="Feedback-capacity solver for Gaussian linear channel models with memory.")
    parser.add_argument("--version", action="version", version=f"dirinfo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--model", help="model JSON file")
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--kappa", type=float, help="override the model's power budget")
        p.add_argument("--horizon", type=int, help="override the model's horizon")
        p.add_argument("--s", type=float, help="fixed Lagrange multiplier instead of the budget-matched one")
        p.add_argument("--steps", type=int, help="simulation steps per trace")
        p.add_argument("--seeds", type=int, help="number of simulation seeds")
        p.add_argument("--units", choices=["nats", "bits"])
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"])
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved configuration and exit")
        if name == "sweep":
            p.add_argument("--param", choices=["kappa", "C"], help="swept parameter")
            p.add_argument("--grid", help="comma-separated values for the swept parameter")
    return parser


def parse_config(argv, config_file: str = None) -> RunConfig:
    """Resolve flags > config file > defaults into a RunConfig.

    ``config_file`` overrides any --config flag in argv (used by tests);
    unknown config keys are errors.
    """
    ns = _build_parser().parse_args(argv)
    cfg_path = config_file or ns.config
    file_values = {}
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {cfg_path}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_values) - {f.name for f in dataclasses.fields(RunConfig)}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if "command" in file_values and file_values["command"] != ns.command:
            raise UsageError(
                f"config command {file_values['command']!r} conflicts with {ns.command!r}")

    def pick(name):
        flag = getattr(ns, name, None)
        if flag is not None:
            return flag
        if name in file_values and file_values[name] is not None:
            return file_values[name]
        return getattr(RunConfig, name)     # the field's default

    grid = pick("grid")
    if isinstance(grid, str):
        try:
            grid = tuple(float(x) for x in grid.split(",") if x.strip() != "")
        except ValueError as exc:
            raise UsageError(f"bad --grid value: {exc}") from exc
    elif isinstance(grid, (list, tuple)):
        grid = tuple(float(x) for x in grid)

    model_path = ns.model or file_values.get("model")
    if not model_path:
        raise UsageError(f"{ns.command}: --model is required")
    config = RunConfig(
        command=ns.command, model=model_path,
        kappa=pick("kappa"), horizon=pick("horizon"), s=pick("s"),
        steps=int(pick("steps")), seeds=int(pick("seeds")),
        units=pick("units"), output=pick("output"), format=pick("format"),
        param=pick("param"), grid=grid,
    )
    if config.kappa is not None and config.kappa < 0:
        raise UsageError("kappa must be nonnegative")
    if config.steps < 1:
        raise UsageError("steps must be >= 1")
    if config.command == "sweep" and (config.param is None or not config.grid):
        raise UsageError("sweep: --param and --grid are required")
    if getattr(ns, "dump_config", False):
        object.__setattr__(config, "_dump", True)
    return config


# ---------------------------------------------------------------------------
# model files


def _matrix_entry(value):
    if isinstance(value, dict):
        raise UsageError("matrix entries must be numbers or nested arrays")
    return value


def load_model(path: str, kappa_override=None, horizon_override=None) -> ChannelModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("model file must hold a JSON object")
    kind = doc.get("type", "channel")
    kappa = kappa_override if kappa_override is not None else doc.get("kappa", 0.0)
    horizon = horizon_override if horizon_override is not None else doc.get("horizon", 0)
    if kind == "memory_j":
        allowed = {"type", "horizon", "C_blocks", "D", "KV", "R", "Q_K",
                   "memory", "cost_memory", "kappa", "initial_history"}
        unknown = set(doc) - allowed
        if unknown:
            raise UsageError(f"unknown model keys: {sorted(unknown)}")
        mem = memory_model(
            [_matrix_entry(c) for c in doc["C_blocks"]], doc["D"], doc["KV"], doc["R"],
            doc.get("Q_K"), kappa, horizon,
            memory=doc.get("memory"), cost_memory=doc.get("cost_memory", 1),
            initial_history=doc.get("initial_history"))
        return augment_memory(mem)
    if kind != "channel":
        raise UsageError(f"unknown model type {kind!r}")
    allowed = {"type", "horizon", "time_invariant", "C", "D", "KV", "R", "Q",
               "terminal_Q", "kappa", "initial_output"}
    unknown = set(doc) - allowed
    if unknown:
        raise UsageError(f"unknown model keys: {sorted(unknown)}")
    ti = bool(doc.get("time_invariant", True))
    if horizon_override is not None and not ti:
        raise UsageError("cannot override the horizon of a time-varying model")
    init = doc.get("initial_output", None)
    mean, cov = None, None
    if isinstance(init, dict):
        unknown = set(init) - {"mean", "cov"}
        if unknown:
            raise UsageError(f"unknown initial_output keys: {sorted(unknown)}")
        mean, cov = init.get("mean"), init.get("cov")
    elif init is not None:
        mean = np.atleast_1d(np.asarray(init, dtype=float))
    return channel_model(
        doc["C"], doc["D"], doc["KV"], doc["R"], doc.get("Q", 0.0),
        kappa, horizon, terminal_Q=doc.get("terminal_Q"),
        initial_mean=mean, initial_cov=cov, time_invariant=ti,
        meta={"path": path})


# ---------------------------------------------------------------------------
# canonical serialization


def _canon(value, out):
    if value is None:
        out.write("null")
    elif value is True:
        out.write("true")
    elif value is False:
        out.write("false")
    elif isinstance(value, (int, np.integer)):
        out.write(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        if math.isnan(value) or math.isinf(value):
            out.write(json.dumps(str(value)))
        else:
            out.write(f"{float(value):.12g}")
    elif isinstance(value, str):
        out.write(json.dumps(value))
    elif isinstance(value, np.ndarray):
        _canon(value.tolist(), out)
    elif isinstance(value, (list, tuple)):
        out.write("[")
        for j, item in enumerate(value):
            if j:
                out.write(", ")
            _canon(item, out)
        out.write("]")
    elif isinstance(value, dict):
        out.write("{")
        for j, key in enumerate(sorted(value)):
            if j:
                out.write(", ")
            out.write(json.dumps(str(key)) + ": ")
            _canon(value[key], out)
        out.write("}")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def emit_report(report: dict, fmt: str = "json") -> bytes:
    """Canonical serialization: sorted keys, %.12g floats; CSV for sweeps."""
    if fmt == "json":
        import io
        buf = io.StringIO()
        _canon(report, buf)
        buf.write("\n")
        return buf.getvalue().encode()
    if fmt == "csv":
        if "trace_csv" in report:
            return report["trace_csv"].encode()
        rows = report.get("rows")
        if rows is None:
            raise UsageError("csv format is only available for sweep and simulate reports")
        cols = sorted({k for row in rows for k in row})
        lines = [",".join(cols)]
        for row in rows:
            cells = []
            for c in cols:
                v = row.get(c, "")
                if isinstance(v, float):
                    cells.append(f"{v:.12g}")
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format {fmt!r}")


def _tolerances() -> dict:
    return {
        "tol_psd": model_mod.TOL_PSD,
        "eps_reg": model_mod.EPS_REG,
        "tol_spec": stability.TOL_SPEC,
        "tol_rank": stability.TOL_RANK,
        "tol_lyap": stability.TOL_LYAP,
        "tol_are": riccati.TOL_ARE,
        "tol_wf": waterfill.TOL_WF,
        "cost_tol": capacity.COST_TOL,
    }


def _units_value(nats: float, units: str) -> float:
    return nats / LN2 if units == "bits" else nats


def _model_echo(m: ChannelModel, path: str) -> dict:
    return {
        "path": path, "output_dim": m.output_dim, "input_dim": m.input_dim,
        "horizon": m.horizon, "kappa": m.kappa, "time_invariant": m.time_invariant,
        "augmented": m.augmented,
    }


def _base_report(config: RunConfig, m: ChannelModel) -> dict:
    return {
        "version": __version__,
        "command": config.command,
        "units": config.units,
        "model": _model_echo(m, config.model),
        "tolerances": _tolerances(),
    }


def _scalar_oracle_block(m: ChannelModel, sol, cap_nats: float) -> dict:
    view = scalar_view(m)
    cap_o, gain_o, kz_o, regime_o = capacity.scalar_feedback_capacity(
        view.C, view.D, view.KV, view.kappa, R=view.R, Q=view.Q)
    d_cap = abs(cap_nats - cap_o)
    d_gain = abs(float(sol.gain[0, 0]) - gain_o)
    d_kz = abs(float(sol.KZ[0, 0]) - kz_o)
    return {
        "capacity_nats": cap_o, "gain": gain_o, "KZ": kz_o, "regime": regime_o,
        "kappa_min": capacity.scalar_kappa_min(view.C, view.D, view.KV, view.R),
        "delta_capacity": d_cap, "delta_gain": d_gain, "delta_KZ": d_kz,
        "max_delta": max(d_cap, d_gain, d_kz),
    }


_LOWER_BOUND_NOTE = (
    "the closed form gives zero rate at kappa_min, so the ln|C| lower bound "
    "is asserted only for kappa >= (C^4-1)*K_V/D^2")


def _lower_bound_block(m: ChannelModel, cap_nats: float) -> dict:
    view = scalar_view(m)
    threshold = (view.C ** 4 - 1.0) * view.KV * view.R / (view.D ** 2)
    applies = view.kappa >= threshold
    bound = math.log(abs(view.C))
    return {
        "bound_nats": bound,
        "applies_from_kappa": threshold,
        "applies": applies,
        "satisfied": bool(cap_nats >= bound - 1e-9) if applies else None,
        "note": _LOWER_BOUND_NOTE,
    }


def _is_scalar(m: ChannelModel) -> bool:
    return m.output_dim == 1 and m.input_dim == 1 and m.time_invariant


# ---------------------------------------------------------------------------
# command handlers


def _run_check(config: RunConfig, m: ChannelModel) -> dict:
    report = _base_report(config, m)
    try:
        validate_model(m)
        errors = []
    except model_mod.ModelValidationError as exc:
        errors = exc.errors
    result = {"valid": not errors, "errors": errors}
    if not errors and m.time_invariant:
        C, D = m.C(0), m.D(0)
        Q = m.Q_seq[0]
        G = sym_sqrt(Q)
        rep = stability.spectral_radius(C)
        result.update({
            "spectral_radius": rep.spectral_radius,
            "stable": rep.stable,
            "stabilizable": stability.is_stabilizable(C, D),
            "detectable": stability.is_detectable(G, C),
            "controllable": stability.is_controllable(C, D),
            "observable": stability.is_observable(G, C),
        })
    report["result"] = result
    return report


def _stationary_result(config: RunConfig, m: ChannelModel, sol, cap_nats: float) -> dict:
    C, D = m.C(0), m.D(0)
    W = D @ sol.KZ @ D.T + m.KV(0)
    Acl = C + D @ sol.gain
    lyap_resid = float(np.linalg.norm(sol.KB - Acl @ sol.KB @ Acl.T - W))
    return {
        "capacity": _units_value(cap_nats, config.units),
        "capacity_nats": cap_nats,
        "regime": sol.regime,
        "s_star": sol.s,
        "gain": sol.gain,
        "KZ": sol.KZ,
        "KB": sol.KB,
        "P": sol.P,
        "achieved_cost": sol.achieved_cost,
        "kappa_min": capacity.cost_floor(m, sol.P, sol.gain, sol.s),
        "kappa_min_definition": "stabilization cost of the zero-innovations strategy",
        "residuals": {"are": sol.are_residual, "lyapunov": lyap_resid},
        "kv_regularized": sol.meta.get("kv_regularized", False),
    }


def _run_capacity(config: RunConfig, m: ChannelModel) -> dict:
    report = _base_report(config, m)
    if config.s is not None:
        sol = capacity.stationary_solve(m, config.s)
        cap = sol.rate_nats
        report["multiplier_mode"] = "fixed"
    else:
        sol, cap = capacity.feedback_capacity(m)
        report["multiplier_mode"] = "matched"
    report["result"] = _stationary_result(config, m, sol, cap)
    if _is_scalar(m):
        report["oracle"] = _scalar_oracle_block(m, sol, cap)
        view = scalar_view(m)
        if abs(view.C) > 1.0:
            report["lower_bound"] = _lower_bound_block(m, cap)
    return report


def _run_ftfi(config: RunConfig, m: ChannelModel) -> dict:
    report = _base_report(config, m)
    if config.s is not None:
        sol = capacity.finite_horizon_dp(m, config.s)
        cap = sol.rate_nats / (m.horizon + 1)
        report["multiplier_mode"] = "fixed"
    else:
        sol, cap = capacity.ftfi_capacity(m)
        report["multiplier_mode"] = "matched"
    report["result"] = {
        "capacity": _units_value(cap, config.units),
        "capacity_nats": cap,
        "value_nats": sol.value_nats,
        "s_star": sol.s,
        "achieved_cost": sol.achieved_cost,
        "horizon": m.horizon,
        "P0": sol.P_seq[0],
        "gain0": sol.strategy.gains[0],
        "KZ0": sol.strategy.innovations[0],
        "kv_regularized": sol.meta.get("kv_regularized", False),
    }
    return report


def _run_nofeedback(config: RunConfig, m: ChannelModel) -> dict:
    report = _base_report(config, m)
    cap = capacity.nofeedback_capacity_q0(m)
    report["result"] = {
        "capacity": _units_value(cap, config.units),
        "capacity_nats": cap,
    }
    return report


def _run_simulate(config: RunConfig, m: ChannelModel) -> dict:
    report = _base_report(config, m)
    if config.s is not None:
        sol = capacity.stationary_solve(m, config.s)
        cap = sol.rate_nats
    else:
        sol, cap = capacity.feedback_capacity(m)
    strat = model_mod.stationary_strategy(sol.gain, sol.KZ)
    seeds = list(range(config.seeds))
    traces = simulate.simulate_batch(m, strat, config.steps, seeds)
    eps = 0.02
    cost_eps = 0.05 * max(m.kappa, 1.0)
    rep = simulate.stability_report(traces, cap, sol.achieved_cost, eps, cost_eps)
    report["result"] = {
        "capacity_nats": cap,
        "capacity": _units_value(cap, config.units),
        "target_cost": sol.achieved_cost,
        "steps": config.steps,
        "seeds": seeds,
        "epsilon": rep.epsilon,
        "cost_epsilon": rep.cost_epsilon,
        "rate_violation_fraction": rep.rate_violation_fraction,
        "cost_violation_fraction": rep.cost_violation_fraction,
        "violation_fraction": rep.violation_fraction,
        "terminal_rates": [t.terminal_rate for t in traces],
        "terminal_costs": [t.terminal_cost for t in traces],
        "rate_histogram": {"counts": rep.rate_histogram[0], "edges": rep.rate_histogram[1]},
        "cost_histogram": {"counts": rep.cost_histogram[0], "edges": rep.cost_histogram[1]},
    }
    if config.format == "csv":
        report["trace_csv"] = simulate.trace_to_csv(traces[0])
    return report


def _run_sweep(config: RunConfig, m: ChannelModel) -> dict:
    validate_model(m)   # before the cells, which turn errors into rows
    report = _base_report(config, m)

    def cell(value):
        try:
            if config.param == "kappa":
                variant = dataclasses.replace(m, kappa=float(value))
            else:
                if not _is_scalar(m):
                    raise UsageError("sweep over C requires a scalar time-invariant model")
                view = scalar_view(m)
                variant = channel_model(
                    float(value), view.D, view.KV, view.R, view.Q, m.kappa, m.horizon,
                    terminal_Q=m.terminal_Q)
            sol, cap_nats = capacity.feedback_capacity(variant)
            return {
                "param": config.param, "value": float(value),
                "capacity_nats": cap_nats,
                "capacity": _units_value(cap_nats, config.units),
                "s_star": sol.s, "regime": sol.regime,
                "achieved_cost": sol.achieved_cost,
                "kappa_min": capacity.cost_floor(variant, sol.P, sol.gain, sol.s),
            }
        except DirinfoError as exc:
            return {"param": config.param, "value": float(value), "error": str(exc)}

    report["rows"] = [cell(v) for v in config.grid]
    return report


_HANDLERS = {
    "check": _run_check,
    "ftfi": _run_ftfi,
    "capacity": _run_capacity,
    "nofeedback": _run_nofeedback,
    "simulate": _run_simulate,
    "sweep": _run_sweep,
}


def run(config: RunConfig):
    """Execute a command; returns (exit_code, report dict)."""
    try:
        m = load_model(config.model, kappa_override=config.kappa,
                       horizon_override=config.horizon)
        if config.command == "check":
            report = _run_check(config, m)
            return (0 if report["result"]["valid"] else 1), report
        # each handler's first library call validates the model
        report = _HANDLERS[config.command](config, m)
        return 0, report
    except UsageError:
        raise
    except DirinfoError as exc:
        return 1, {
            "version": __version__, "command": config.command,
            "error": str(exc), "error_type": type(exc).__name__,
        }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(config, "_dump", False):
        payload = emit_report(config.to_dict(), "json")
        sys.stdout.write(payload.decode())
        return 0
    try:
        code, report = run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        payload = emit_report(report, config.format)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.output:
        try:
            with open(config.output, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload.decode())
    if code != 0:
        print(f"error: {report.get('error', 'solver failure')}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

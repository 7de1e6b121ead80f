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
load.  Required keys: C, D, KV and R for "channel"; C_blocks, D, KV and R
for "memory_j".  The rest are optional, and null counts as absent.

Exit codes: 0 success (zero-capacity regimes included), 1 solver or
precondition failure, 2 usage error.  A model file that cannot be read, is
not a JSON object, has an unknown type or key, lacks a required key, or
holds a value of the wrong JSON type (a matrix that is not a number or a
rectangular array of numbers, a kappa that is not a number, a horizon,
memory or cost_memory that is not an integer, a time_invariant that is not
true or false) is a usage error naming the key.  A well-typed model of the
wrong shape, a wrong-length initial mean included, exits 1 with the
library's ModelValidationError naming the matrix (`check` reports it as
valid: false, a memory_j file's as it is lowered too).  A file's kappa and
horizon are type-checked even when --kappa or --horizon overrides them.  An
error report (exit 1) is printed as JSON whatever --format says.

Every option is declared once, as a `RunConfig` field that carries its flag's
type, choices and help; every command takes the same flags (one parser, built
at import), before or after the command name.  --param and --grid are for
sweep only, and --format csv for sweep and simulate; these checks run before
the model is read.  A --config file's values become `--name=value` tokens
ahead of the command line, so the parser types and checks them like flags and
a given flag wins.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

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


def _flag(default=dataclasses.MISSING, **add_argument):
    """A RunConfig field that is also the flag --<name>; the keywords (type,
    choices, help) go to `add_argument`."""
    return dataclasses.field(default=default, metadata=add_argument)


def float_list(text: str) -> tuple:
    """--grid's type: comma-separated floats, empty items skipped."""
    return tuple(float(x) for x in text.split(",") if x.strip())


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: str = _flag(help="model JSON file")
    kappa: float = _flag(None, type=float, help="override the model's power budget")
    horizon: int = _flag(None, type=int, help="override the model's horizon")
    s: float = _flag(None, type=float, help="fixed Lagrange multiplier, not the matched one")
    steps: int = _flag(10000, type=int, help="simulation steps per trace")
    seeds: int = _flag(8, type=int, help="number of simulation seeds")
    units: str = _flag("nats", choices=["nats", "bits"])
    output: str = _flag(None, help="write the report here instead of stdout")
    format: str = _flag("json", choices=["json", "csv"])
    param: str = _flag(None, choices=["kappa", "C"], help="swept parameter (sweep only)")
    grid: tuple = _flag(None, type=float_list, help="comma-separated swept values (sweep only)")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["grid"] = list(self.grid) if self.grid is not None else None
        return d


_FIELDS = dataclasses.fields(RunConfig)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirinfo",
        description="Feedback-capacity solver for Gaussian linear channel models with memory.")
    parser.add_argument("--version", action="version", version=f"dirinfo {__version__}")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the resolved configuration and exit")
    for f in _FIELDS[1:]:     # all but the command
        parser.add_argument(f"--{f.name}", **f.metadata)
    return parser


_PARSER = _build_parser()     # one per process; parse_args leaves it unchanged


def _read_object(path: str, what: str) -> dict:
    """The JSON object held by the `what` file at `path`; UsageError if the
    file cannot be read, is not JSON, or holds anything but an object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:       # JSONDecodeError, or bytes that are not UTF-8
        raise UsageError(f"malformed JSON in {what} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{what} file must hold a JSON object")
    return doc


def _config_tokens(path: str, command: str) -> list:
    """The config file's non-null values as `--name=value` tokens, lists joined
    with commas; the `=` form keeps a value such as -1,2 from reading as a flag."""
    values = _read_object(path, "config")
    unknown = set(values) - {f.name for f in _FIELDS}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    given = values.pop("command", command)
    if given != command:
        raise UsageError(f"config command {given!r} conflicts with {command!r}")
    return [f"--{k}=" + (",".join(map(str, v)) if isinstance(v, list) else str(v))
            for k, v in values.items() if v is not None]


def _parse(argv) -> tuple:
    """(RunConfig, whether --dump-config was given); see `parse_config`."""
    ns = _PARSER.parse_args(argv)
    if ns.config:
        ns = _PARSER.parse_args(_config_tokens(ns.config, ns.command) + list(argv))
    stray = [f"--{name}" for name in ("param", "grid") if getattr(ns, name) is not None]
    if stray and ns.command != "sweep":
        raise UsageError(f"{ns.command} does not take {' or '.join(stray)} (sweep only)")
    if ns.format == "csv" and ns.command not in ("sweep", "simulate"):
        raise UsageError("csv format is only available for sweep and simulate reports")
    if not ns.model:
        raise UsageError(f"{ns.command}: --model is required")
    config = RunConfig(**{f.name: getattr(ns, f.name) for f in _FIELDS
                          if getattr(ns, f.name) is not None})
    if config.kappa is not None and config.kappa < 0:
        raise UsageError("kappa must be nonnegative")
    if config.steps < 1:
        raise UsageError("steps must be >= 1")
    if config.command == "sweep" and (config.param is None or not config.grid):
        raise UsageError("sweep: --param and --grid are required")
    return config, ns.dump_config


def parse_config(argv) -> RunConfig:
    """Flags, then --config file values, then field defaults, into a RunConfig.

    Argparse misuse, including a config value its flag rejects, exits 2;
    unknown config keys and the other checks raise UsageError.
    """
    return _parse(argv)[0]


# ---------------------------------------------------------------------------
# model files


def _shape(value):
    """The shape of a JSON number or rectangular nested array of numbers, else
    None (a string, boolean, object or null anywhere, or a ragged array).
    json.load gives numbers exactly the types int and float; bool is neither."""
    if type(value) in (int, float):
        return ()
    if type(value) is not list:
        return None
    if set(map(type, value)) <= {int, float}:      # a row of numbers, or empty
        return (len(value),)
    inner = {_shape(v) for v in value}
    if len(inner) > 1 or None in inner:
        return None
    return (len(value),) + inner.pop()


# What a model-file value must be: (description, test of the parsed JSON value).
_INTEGER = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a number", lambda v: type(v) in (int, float))
_BOOLEAN = ("true or false", lambda v: type(v) is bool)
_MATRIX = ("a number or a rectangular array of numbers", lambda v: _shape(v) is not None)
_MATRICES = ("a non-empty array of matrices, one per step or block",
             lambda v: type(v) is list and v and all(_shape(m) is not None for m in v))
_INITIAL = ("a number, an array of numbers or an object with mean and cov",
            lambda v: isinstance(v, dict) or _shape(v) is not None)
_REQUIRED = object()

_MODEL_KEYS = {
    "channel": {"type", "horizon", "time_invariant", "C", "D", "KV", "R", "Q",
                "terminal_Q", "kappa", "initial_output"},
    "memory_j": {"type", "horizon", "C_blocks", "D", "KV", "R", "Q_K",
                 "memory", "cost_memory", "kappa", "initial_history"},
}


def _value(doc: dict, key: str, kind: tuple, default=_REQUIRED, name: str = None):
    """doc[key] if it is of `kind`; a missing or null key takes `default`.  A
    missing required key or a value of another JSON type is a UsageError naming
    the key (as `name`, when given)."""
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise UsageError(f"model file is missing required key {name or key!r}")
        return default
    if not kind[1](value):
        raise UsageError(f"model key {name or key!r} must be {kind[0]}")
    return value


def load_model(path: str, kappa_override=None, horizon_override=None) -> ChannelModel:
    """The model in a JSON file; see the module docstring for its keys.  Problems
    with the file itself are UsageErrors.  A channel model is returned
    unvalidated; a memory_j model raises ModelValidationError as it is lowered."""
    doc = _read_object(path, "model")
    kind = "channel" if doc.get("type") is None else doc["type"]
    if kind not in ("channel", "memory_j"):
        raise UsageError(f"unknown model type {kind!r}")
    unknown = set(doc) - _MODEL_KEYS[kind]
    if unknown:
        raise UsageError(f"unknown model keys: {sorted(unknown)}")
    kappa = _value(doc, "kappa", _NUMBER, 0.0)
    kappa = kappa_override if kappa_override is not None else kappa
    horizon = _value(doc, "horizon", _INTEGER, 0)
    horizon = horizon_override if horizon_override is not None else horizon
    if kind == "memory_j":
        mem = memory_model(
            _value(doc, "C_blocks", _MATRICES),
            *(_value(doc, key, _MATRIX) for key in ("D", "KV", "R")),
            _value(doc, "Q_K", _MATRIX, None), kappa, horizon,
            memory=_value(doc, "memory", _INTEGER, None),
            cost_memory=_value(doc, "cost_memory", _INTEGER, 1),
            initial_history=_value(doc, "initial_history", _MATRIX, None))
        return augment_memory(mem)
    ti = _value(doc, "time_invariant", _BOOLEAN, True)
    if horizon_override is not None and not ti:
        raise UsageError("cannot override the horizon of a time-varying model")
    step = _MATRIX if ti else _MATRICES
    C, D, KV, R = (_value(doc, key, step) for key in ("C", "D", "KV", "R"))
    Q = _value(doc, "Q", step, 0.0 if ti else [0.0] * len(C))
    init = _value(doc, "initial_output", _INITIAL, {})
    if not isinstance(init, dict):
        init = {"mean": init}
    unknown = set(init) - {"mean", "cov"}
    if unknown:
        raise UsageError(f"unknown initial_output keys: {sorted(unknown)}")
    mean, cov = (_value(init, key, _MATRIX, None, f"initial_output.{key}")
                 for key in ("mean", "cov"))
    return channel_model(
        C, D, KV, R, Q, kappa, horizon, terminal_Q=_value(doc, "terminal_Q", _MATRIX, None),
        initial_mean=mean, initial_cov=cov, time_invariant=ti)


# ---------------------------------------------------------------------------
# canonical serialization


_LITERALS = {None: "null", True: "true", False: "false"}


def _canon(value, exact: bool = False) -> str:
    """Sorted keys, %.12g floats, "inf"/"nan" strings for non-finite floats;
    `exact` writes a float that %.12g would round with all the digits that read
    it back equal.  A non-empty, all-finite float64 array is written by one
    %-format built from its shape; any other array goes through `tolist`.
    Strings are quoted by json's own ASCII encoder, the one `json.dumps` calls.
    The exact types a report holds most (float, dict, str) are tested first, by
    `type(value) is`; every other value, their subclasses included, takes the
    isinstance chain, which hands a float subclass and a dict subclass back as
    a float and a dict."""
    kind = type(value)
    if kind is float:
        if not math.isfinite(value):
            return _quote(str(value))
        text = f"{value:.12g}"
        return repr(value) if exact and float(text) != value else text
    if kind is dict:
        return "{" + ", ".join(f"{_quote(str(k))}: {_canon(value[k], exact)}"
                               for k in sorted(value)) + "}"
    if kind is str:
        return _quote(value)
    if value is None or value is True or value is False:   # bools before ints
        return _LITERALS[value]
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _canon(float(value), exact)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, np.ndarray):
        if (not exact and value.dtype == np.float64 and value.size
                and np.isfinite(value).all()):
            fmt = "%.12g"
            for n in reversed(value.shape):     # innermost axis first
                fmt = "[" + ", ".join([fmt] * n) + "]"
            return fmt % tuple(value.ravel().tolist())
        return _canon(value.tolist(), exact)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_canon, value, repeat(exact))) + "]"
    if isinstance(value, dict):
        return _canon(dict(value), exact)
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit_report(report: dict, fmt: str = "json") -> bytes:
    """Canonical serialization: sorted keys, %.12g floats; CSV for sweep and
    simulate reports (`_parse` allows csv for those commands only), with a
    cell that holds a comma, a quote or a newline quoted."""
    if fmt == "json":
        return (_canon(report) + "\n").encode()
    if fmt == "csv":
        if "trace_csv" in report:
            return report["trace_csv"].encode()
        rows = report["rows"]
        cols = sorted({k for row in rows for k in row})
        out = io.StringIO()
        writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            cells = (row.get(c, "") for c in cols)
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else str(v) for v in cells])
        return out.getvalue().encode()
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
        "model": {"path": config.model} if m is None else _model_echo(m, config.model),
        "tolerances": _tolerances(),
    }


def _scalar_oracle_block(m: ChannelModel, sol, cap_nats: float) -> dict:
    view = scalar_view(m)
    cap_o, gain_o, kz_o, regime_o = capacity.scalar_feedback_capacity(
        view.C, view.D, view.KV, view.kappa, R=view.R)
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


def _run_check(config: RunConfig) -> dict:
    """Validation failures, a memory_j file's as it is lowered too, are `valid: false`."""
    m = None
    try:
        m = load_model(config.model, kappa_override=config.kappa, horizon_override=config.horizon)
        validate_model(m)
        errors = []
    except model_mod.ModelValidationError as exc:
        errors = exc.errors
    report = _base_report(config, m)
    result = {"valid": not errors, "errors": errors}
    if not errors and m.time_invariant:
        C, D = m.C(0), m.D(0)
        Q = m.Q_seq[0]
        G = sym_sqrt(Q)
        rep = stability.spectral_radius(C)
        # the Q = 0 solve's Gramian sees D R^-1 D^T = B B^T, with B = D L^-T and R = L L^T
        B = np.linalg.solve(np.linalg.cholesky(m.R(0)), D.T).T
        result.update({
            "spectral_radius": rep.spectral_radius,
            "stable": rep.stable,
            "stabilizable": stability.is_stabilizable(C, B),
            "detectable": stability.is_detectable(G, C),
            "controllable": stability.is_controllable(C, D),
            "observable": stability.is_observable(G, C),
        })
    report["result"] = result
    return report


def _stationary_result(config: RunConfig, m: ChannelModel, sol, cap_nats: float) -> dict:
    """The stationary result block; where K_B was declined, `KB` and
    `residuals.lyapunov` are null and `KB_declined` holds the reason."""
    result = {
        "capacity": _units_value(cap_nats, config.units),
        "capacity_nats": cap_nats,
        "regime": sol.regime,
        "s_star": sol.s,
        "gain": sol.gain,
        "KZ": sol.KZ,
        "KB": sol.KB,
        "P": sol.P,
        "achieved_cost": sol.achieved_cost,
        "kappa_min": capacity.cost_floor(m, sol.P, sol.s),
        "kappa_min_definition": "stabilization cost of the zero-innovations strategy",
        "residuals": {"are": sol.are_residual, "lyapunov": None},
        "kv_regularized": m.kv_regularized,
    }
    if sol.KB is None:
        result["KB_declined"] = sol.KB_declined
    else:
        C, D = m.C(0), m.D(0)
        W = D @ sol.KZ @ D.T + m.KV(0)
        Acl = C + D @ sol.gain
        result["residuals"]["lyapunov"] = float(np.linalg.norm(sol.KB - Acl @ sol.KB @ Acl.T - W))
    return result


def _stationary(config: RunConfig, m: ChannelModel):
    """(solution, capacity_nats, multiplier mode): the stationary solution at
    the fixed --s when given, else at the budget-matched multiplier."""
    if config.s is not None:
        sol = capacity.stationary_solve(m, config.s)
        return sol, sol.rate_nats, "fixed"
    sol, cap = capacity.feedback_capacity(m)
    return sol, cap, "matched"


def _run_capacity(config: RunConfig, m: ChannelModel) -> dict:
    report = _base_report(config, m)
    sol, cap, report["multiplier_mode"] = _stationary(config, m)
    report["result"] = _stationary_result(config, m, sol, cap)
    if _is_scalar(m) and scalar_view(m).Q == 0.0:     # where the closed form is defined
        report["oracle"] = _scalar_oracle_block(m, sol, cap)
        if abs(scalar_view(m).C) > 1.0:
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
        "kv_regularized": m.kv_regularized,
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
    simulate.check_traces(config.seeds, config.steps)
    sol, cap, _ = _stationary(config, m)
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
    grid = [float(v) for v in config.grid]
    if config.param == "kappa":
        cells = capacity._kappa_cells(m, grid)     # one ARE solve for the grid
    else:
        cells = [_c_cell(m, v) for v in grid]

    def row(value, cell):
        if isinstance(cell, DirinfoError):
            return {"param": config.param, "value": value, "error": str(cell)}
        variant, sol, cap_nats = cell
        return {
            "param": config.param, "value": value,
            "capacity_nats": cap_nats,
            "capacity": _units_value(cap_nats, config.units),
            "s_star": sol.s, "regime": sol.regime,
            "achieved_cost": sol.achieved_cost,
            "kappa_min": capacity.cost_floor(variant, sol.P, sol.s),
        }

    report["rows"] = [row(v, cell) for v, cell in zip(grid, cells)]
    return report


def _c_cell(m: ChannelModel, value: float):
    """A cell of a sweep over C: (variant, solution, capacity_nats), or its error."""
    try:
        if not _is_scalar(m):
            raise UsageError("sweep over C requires a scalar time-invariant model")
        view = scalar_view(m)
        variant = channel_model(value, view.D, view.KV, view.R, view.Q, m.kappa, m.horizon,
                                terminal_Q=m.terminal_Q)
        return (variant, *capacity.feedback_capacity(variant))
    except DirinfoError as exc:
        return exc


_HANDLERS = {
    "ftfi": _run_ftfi,
    "capacity": _run_capacity,
    "nofeedback": _run_nofeedback,
    "simulate": _run_simulate,
    "sweep": _run_sweep,
}


def run(config: RunConfig):
    """Execute a command; returns (exit_code, report dict)."""
    try:
        if config.command == "check":
            report = _run_check(config)
            return (0 if report["result"]["valid"] else 1), report
        m = load_model(config.model, kappa_override=config.kappa,
                       horizon_override=config.horizon)
        # each handler's first library call on the model validates it
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
    try:
        config, dump = _parse(sys.argv[1:] if argv is None else argv)
        if dump:
            sys.stdout.write(_canon(config.to_dict(), exact=True) + "\n")
            return 0
        code, report = run(config)
        # an error report has no rows or trace: it is JSON whatever --format says
        payload = emit_report(report, "json" if "error" in report else config.format)
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
        message = report.get("error") or "; ".join(report["result"]["errors"])
        print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

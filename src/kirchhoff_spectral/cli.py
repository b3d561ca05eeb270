"""Command-line experiment harness.

Subcommands: ``verify`` (property suites), ``simulate`` (trajectory + summary),
``conjugacy`` (push the physical flow through the inverse change of variables
and compare with the normal-form flow), ``sweep`` (lifespan surrogate over a
list of amplitudes).

Configuration is a single JSON document; command-line flags override JSON
fields. Every run is deterministic given its config, and every report embeds
a schema version, the config hash, a build id and the grid metadata.

Exit codes: 0 pass, 1 suite/criterion failure, 2 config error, 3 numerical
error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np

from . import __version__
from .dynamics import KirchhoffDynamics, make_dynamics
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    GridMismatchError,
    NumericalError,
    ParameterError,
)
from .fields import ConjugatePair, PairStack, RealPair, field_from_dict, pair_norm, random_field
from .grid import SpectralGrid
from .integrate import SCHEMES, IntegratorConfig, TrajectoryRecord, integrate
from .kirchhoff import hamiltonian, momenta, random_state
from .suites import REGISTRY, SuiteConfig, _worst, measure_quartic_constant, run_suites
from .transforms import change_of_variables

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# -- config plumbing -----------------------------------------------------------


@functools.cache
def build_id() -> str:
    """Abbreviated git revision of the source tree, suffixed -dirty when it has changes."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"pkg-{__version__}"


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


#: schema kind -> (name in error messages, value test, flag type)
_KINDS = {
    "int": ("integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    "number": ("number", _is_number, float),
    "str": ("string", lambda v: isinstance(v, str), str),
    "bool": ("boolean", lambda v: isinstance(v, bool), None),
    "list": ("list", lambda v: isinstance(v, list), None),
}


def _check_field(path: str, value, spec: dict) -> None:
    kind = spec["kind"]
    noun, accepts, _ = _KINDS[kind]
    if not accepts(value):
        raise ConfigError(f"{path}: expected {noun}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if kind == "list":
        for i, item in enumerate(value):
            _check_field(f"{path}[{i}]", item, spec["item"])
        if "min_len" in spec and len(value) < spec["min_len"]:
            raise ConfigError(f"{path}: needs at least {spec['min_len']} entries")
        return
    if "choices" in spec and value not in spec["choices"]:
        raise ConfigError(f"{path}: must be one of {spec['choices']}, got {value!r}")
    if "min" in spec and value < spec["min"]:
        raise ConfigError(f"{path}: must be >= {spec['min']}, got {value!r}")
    if "max" in spec and value > spec["max"]:
        raise ConfigError(f"{path}: must be <= {spec['max']}, got {value!r}")


class Option(NamedTuple):
    """One config field of a command: the single source of its default, its
    schema spec and its ``--field-name`` flag."""

    name: str
    default: object
    spec: dict
    help: str | None = None


def _tables(options) -> tuple[dict, dict]:
    """The defaults and the schema of a command, from its option table."""
    return {opt.name: opt.default for opt in options}, {opt.name: opt.spec for opt in options}


def _int(**limits) -> dict:
    return {"kind": "int", **limits}


def _str(*choices: str) -> dict:
    return {"kind": "str", "choices": choices} if choices else {"kind": "str"}


def _list(item: dict, **limits) -> dict:
    return {"kind": "list", "item": item, **limits}


_BOOL = {"kind": "bool"}
_NONNEGATIVE = {"kind": "number", "min": 0.0}
_POSITIVE = {"kind": "number", "min": 1e-6}
_OUT = Option("out", "out", _str(), "output directory")
_D = Option("d", 1, _int(min=1, max=3))
_N_MODES = Option("n_modes", 8, _int(min=1))


def _add_flags(parser: argparse.ArgumentParser, options) -> None:
    """One flag per option; list values stay strings until :func:`_parse_list`."""
    parser.add_argument("--config", help="JSON config document")
    for opt in options:
        flag = "--" + opt.name.replace("_", "-")
        kind = opt.spec["kind"]
        if kind == "bool":
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, help=opt.help)
        elif kind == "list":
            parser.add_argument(flag, metavar="LIST", help=opt.help or "comma-separated values")
        else:
            parser.add_argument(
                flag, type=_KINDS[kind][2], choices=opt.spec.get("choices"), help=opt.help
            )


def _parse_list(name: str, text: str, spec: dict) -> list:
    """Comma-separated items; the entries of a nested list item are joined by ':'."""
    item = spec["item"]
    parts = [part.strip() for part in text.split(",") if part.strip()]
    try:
        if item["kind"] == "list":
            convert = _KINDS[item["item"]["kind"]][2]
            return [[convert(x) for x in part.split(":")] for part in parts]
        return [_KINDS[item["kind"]][2](part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {text!r} as a list ({exc})") from exc


def merge_config(defaults: dict, schema: dict, json_path: str | None, overrides: dict) -> dict:
    cfg = dict(defaults)
    if json_path:
        try:
            with open(json_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        for key, value in loaded.items():
            if key not in schema:
                raise ConfigError(f"{key}: unknown config field")
            cfg[key] = value
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for key, value in cfg.items():
        _check_field(key, value, schema[key])
    return cfg


def _report_header(command: str, cfg: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "build_id": build_id(),
        "config_hash": config_hash(cfg),
        "config": cfg,
    }


def _strict_json(value):
    """``value`` with every NaN or inf written as null; in a mapping, a
    ``<key>_reason`` says so beside the number, or beside a list holding one,
    unless the mapping already gives that reason (a refused sample's)."""

    def _non_finite(x) -> bool:
        return isinstance(x, float) and not np.isfinite(x)

    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    if not isinstance(value, dict):
        return None if _non_finite(value) else value
    out = {key: _strict_json(item) for key, item in value.items()}
    for key, item in value.items():
        if any(map(_non_finite, item if isinstance(item, (list, tuple)) else [item])):
            out.setdefault(f"{key}_reason", "non-finite value written as null")
    return out


def _write_json(path: str, payload: dict) -> None:
    """The report as one strict-JSON string; the :func:`_strict_json` walk runs
    only for a payload holding a NaN or inf, which ``json.dumps`` refuses."""
    options = {"indent": 2, "sort_keys": True, "allow_nan": False}
    try:
        text = json.dumps(payload, **options)
    except ValueError:
        text = json.dumps(_strict_json(payload), **options)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _grid_meta(grid: SpectralGrid) -> dict:
    return {
        "d": grid.d,
        "N": grid.n_cutoff,
        "n_modes": grid.n_modes,
        "n_classes": grid.n_classes,
        "m0": grid.m0,
    }


# -- verify ---------------------------------------------------------------------

_SUITE = SuiteConfig()  # verify defaults to the suite defaults (lists in JSON)
VERIFY_OPTIONS = (
    Option("grids", [list(g) for g in _SUITE.grids],
           _list(_list(_int(min=1), min_len=2), min_len=1), "grids d:N, comma-separated"),
    Option("samples", _SUITE.samples, _int(min=0)),
    Option("seed", _SUITE.seed, _int()),
    Option("suites", [], _list({"kind": "str", "choices": tuple(REGISTRY)}),
           "comma-separated subset of suites (empty means all)"),
    Option("corrupt_diff_sign", _SUITE.corrupt_diff_sign, _BOOL, "debug: flip the sign of the "
           "difference-coupling table (negative control; exact-identity suites must fail)"),
    Option("workers", 1, _int(min=1), "suite-level worker pool size"),
    _OUT,
)
VERIFY_DEFAULTS, VERIFY_SCHEMA = _tables(VERIFY_OPTIONS)


def cmd_verify(cfg: dict) -> int:
    report = _report_header("verify", cfg)
    t0 = time.perf_counter()
    if cfg["samples"] == 0:
        results = []
    else:
        suite_cfg = SuiteConfig(
            grids=tuple(tuple(g[:2]) for g in cfg["grids"]),
            samples=cfg["samples"],
            seed=cfg["seed"],
            corrupt_diff_sign=cfg["corrupt_diff_sign"],
        )
        names = cfg["suites"] or list(REGISTRY)
        if cfg["workers"] > 1 and len(names) > 1:
            # suites are independent; results merge by task index, so the
            # report is identical whatever the completion order
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=cfg["workers"]) as pool:
                results = list(pool.map(lambda n: REGISTRY[n](suite_cfg), names))
        else:
            results = run_suites(suite_cfg, names)
    all_pass = all(r.passed for r in results)
    report["suites"] = [r.to_dict() for r in results]
    report["pass"] = all_pass
    report["runtime_s"] = time.perf_counter() - t0
    _write_json(os.path.join(cfg["out"], "verify_report.json"), report)
    for r in results:
        line = (
            f"{'PASS' if r.passed else 'FAIL'} {r.suite}: samples={r.samples} "
            f"max_defect={r.max_defect:.3e} bound={r.bound:.3e}"
        )
        if not r.passed and "worst_at" in r.details:
            line += f" worst_at={json.dumps(r.details['worst_at'])}"
        print(line)
    print(f"verify: {'all suites pass' if all_pass else 'FAILURES PRESENT'}")
    if not all_pass:
        failing = [r.suite for r in results if not r.passed]
        print(f"failing suites: {', '.join(failing)}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


# -- simulate ---------------------------------------------------------------------

_INTEGRATOR = IntegratorConfig()  # simulate's integrator defaults are the integrator's
SIMULATE_OPTIONS = (
    _D,
    _N_MODES,
    Option("seed", 1, _int()),
    Option("eps", 0.1, _NONNEGATIVE),
    Option("representation", "original", _str("original", "diagonalized", "normal_form")),
    Option("scheme", _INTEGRATOR.scheme, _str(*SCHEMES)),
    Option("dt", _INTEGRATOR.dt, _NONNEGATIVE),
    Option("rel_tol", _INTEGRATOR.rel_tol, _NONNEGATIVE),
    Option("abs_tol", _INTEGRATOR.abs_tol, _NONNEGATIVE),
    Option("t_end", 10.0, _NONNEGATIVE),
    Option("n_samples", 100, _int(min=1), "samples at equal spacing after t = 0"),
    Option("s_values", [], _list(_NONNEGATIVE), "monitored orders (empty means m0, m0+1, m0+2)"),
    Option("track_modes", [], _list(_list(_int(), min_len=1)),
           "modes j:k:... with per-mode momentum channels (original representation)"),
    Option("initial_file", "", _str()),
    Option("ball_threshold", 0.0, _NONNEGATIVE, "stop above this ball norm (||w||_m0, or "
           "||u||_{m0+1/2} + ||v||_{m0-1/2} for original); 0 disables"),
    _OUT,
)
SIMULATE_DEFAULTS, SIMULATE_SCHEMA = _tables(SIMULATE_OPTIONS)


def _initial_state(cfg: dict, grid: SpectralGrid):
    rep = cfg["representation"]
    if cfg["initial_file"]:
        try:
            with open(cfg["initial_file"], encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read initial_file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"initial_file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("initial_file must hold a JSON object")

        def field(key: str):
            if key not in data:
                raise ConfigError(f"initial_file: no field {key!r}")
            try:
                return field_from_dict(data[key], grid)
            except (GridMismatchError, ParameterError) as exc:
                raise ConfigError(f"initial_file {key}: {exc}") from exc
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"initial_file {key}: malformed field ({type(exc).__name__}: {exc})"
                ) from exc

        if rep == "original":
            return RealPair(field("u"), field("v"))
        return ConjugatePair(field("w"))
    if rep == "original":
        return random_state(grid, cfg["seed"], cfg["eps"])
    return ConjugatePair(random_field(grid, cfg["seed"], cfg["eps"], grid.m0, "free"))


def _relative_drift(h, h0):
    """|h - h0| / |h0|, the energy's relative drift; the absolute drift where
    h0 = 0 (the zero state). h may be an array of values."""
    return abs(h - h0) / (abs(h0) if h0 else 1.0)


def _simulate_monitors(cfg: dict, grid: SpectralGrid, state0) -> dict:
    rep = cfg["representation"]
    m0 = grid.m0
    s_values = cfg["s_values"] or [m0, m0 + 1.0, m0 + 2.0]
    monitors: dict = {}
    if rep == "original":
        from .kirchhoff import mode_momentum

        h0 = hamiltonian(state0)
        m_0 = momenta(state0)
        monitors["hamiltonian"] = lambda t, st: hamiltonian(st)
        monitors["ham_drift_rel"] = lambda t, st: _relative_drift(hamiltonian(st), h0)
        monitors["momentum_drift_max"] = lambda t, st: float(np.max(np.abs(momenta(st) - m_0)))
        for mode in cfg["track_modes"]:
            mode = tuple(mode)
            grid.slot(mode)  # validate early
            label = "_".join(str(c) for c in mode)
            for axis in range(grid.d):
                monitors[f"momentum_j{label}_{axis}"] = (
                    lambda t, st, m=mode, a=axis: float(mode_momentum(st, m)[a])
                )
        for s in s_values:
            monitors[f"uv_norm_s{s:g}"] = lambda t, st, s=s: st.norm(s)
    else:
        for s in s_values:
            monitors[f"w_norm_s{s:g}"] = lambda t, st, s=s: st.w.norm(s)
        if rep == "normal_form":
            from .normal_form import energy_derivative_arrays, normal_form_rhs

            last: dict = {}

            def _field(st):
                # every monitor of a sample gets the same state object
                if last.get("state") is not st:
                    last.update(state=st, rhs=normal_form_rhs(st))
                return last["rhs"]

            monitors["speed_shift"] = lambda t, st: _field(st).speed_shift
            monitors["energy_derivative_m0"] = lambda t, st: energy_derivative_arrays(
                grid, st.w.coeffs, _field(st).total[0], m0
            )
    return monitors


def _channel_summary(rec: TrajectoryRecord) -> dict:
    out = {}
    for name, series in rec.channels.items():
        if len(series) == 0:
            continue
        out[name] = {
            "first": float(series[0]),
            "last": float(series[-1]),
            "min": float(series.min()),
            "max": float(series.max()),
        }
    return out


def cmd_simulate(cfg: dict) -> int:
    grid = SpectralGrid(cfg["d"], cfg["n_modes"])
    state0 = _initial_state(cfg, grid)
    dyn = make_dynamics(cfg["representation"], grid)
    monitors = _simulate_monitors(cfg, grid, state0)
    icfg = IntegratorConfig(
        scheme=cfg["scheme"],
        dt=cfg["dt"],
        rel_tol=cfg["rel_tol"],
        abs_tol=cfg["abs_tol"],
        t_end=cfg["t_end"],
        ball_threshold=cfg["ball_threshold"] or None,
        store_states=False,
    )
    # t_end = 0 leaves the one sample at t = 0
    ts = np.unique(np.linspace(0.0, cfg["t_end"], cfg["n_samples"] + 1))
    t0 = time.perf_counter()
    rec = integrate(dyn, state0, icfg, monitors=monitors, t_eval=ts)
    runtime = time.perf_counter() - t0

    os.makedirs(cfg["out"], exist_ok=True)
    csv_path = os.path.join(cfg["out"], "trajectory.csv")
    rec.to_csv(csv_path)

    summary = _report_header("simulate", cfg)
    summary["grid"] = _grid_meta(grid)
    summary["exit_reason"] = rec.exit_reason
    summary["exit_time"] = rec.exit_time
    summary["n_steps"] = rec.n_steps
    summary["n_rejected"] = rec.n_rejected
    summary["n_rhs"] = rec.n_rhs
    summary["max_projection_defect"] = rec.max_projection_defect
    summary["runtime_s"] = runtime
    summary.update(rec.notes)  # why the run stopped early, if it did
    summary["channels"] = _channel_summary(rec)
    # growth ratio per monitored norm; for the physical system the max/initial
    # ratio should be essentially independent of the order s
    ratios = {}
    for name, stats in summary["channels"].items():
        if name.startswith(("uv_norm_s", "w_norm_s")) and stats["first"] > 0:
            ratios[name] = stats["max"] / stats["first"]
    summary["norm_growth_ratios"] = ratios
    if len(ratios) >= 2:
        vals = sorted(ratios.values())
        summary["norm_growth_spread"] = (vals[-1] - vals[0]) / vals[0]
    _write_json(os.path.join(cfg["out"], "simulate_summary.json"), summary)
    print(
        f"simulate: {cfg['representation']} d={cfg['d']} N={cfg['n_modes']} "
        f"t={rec.exit_time:g} steps={rec.n_steps} exit={rec.exit_reason}"
    )
    return EXIT_PASS if rec.exit_reason in ("completed", "ball_exit") else EXIT_NUMERICAL


# -- conjugacy ----------------------------------------------------------------------

CONJUGACY_OPTIONS = (
    _D,
    _N_MODES,
    Option("seed", 3, _int()),
    Option("eps", 0.05, _NONNEGATIVE),
    Option("t_end", 5.0, _NONNEGATIVE),
    Option("n_samples", 20, _int(min=1)),
    Option("base_rel_tol", 4e-12, _NONNEGATIVE),
    Option("levels", 3, _int(min=1)),
    _OUT,
)
CONJUGACY_DEFAULTS, CONJUGACY_SCHEMA = _tables(CONJUGACY_OPTIONS)
#: pinned bound on the conjugacy defect at the finest tolerance level
CONJUGACY_BOUND = 1e-7


def conjugacy_verdict(defects: list[float]) -> tuple[bool, bool]:
    """(each tolerance halving lowered the defect, the last one is within CONJUGACY_BOUND)."""
    monotone = all(b < a for a, b in zip(defects, defects[1:]))
    return monotone, defects[-1] <= CONJUGACY_BOUND


def conjugacy_defect(
    grid: SpectralGrid,
    w0: ConjugatePair,
    t_end: float,
    n_samples: int,
    rel_tol: float,
) -> dict:
    """Max over sample times of || inverse-transformed physical state - normal-form state ||_m0.

    The physical samples are mapped back in one pass, as one stack."""
    m0 = grid.m0
    try:
        uv0 = change_of_variables("fwd", w0)
    except DomainError as exc:
        return {"status": "inconclusive", "reason": f"initial ball violation: {exc}"}
    ts = np.linspace(0.0, t_end, n_samples + 1)
    icfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, t_end=t_end)
    rec_uv = integrate(KirchhoffDynamics(grid), uv0, icfg, t_eval=ts)
    rec_w = integrate(make_dynamics("normal_form", grid), w0, icfg, t_eval=ts)
    if rec_uv.exit_reason != "completed" or rec_w.exit_reason != "completed":
        return {"status": "inconclusive", "reason": f"{rec_uv.exit_reason}/{rec_w.exit_reason}"}
    w_from_uv, failure = change_of_variables("inv", PairStack.of(rec_uv.states))
    if failure is not None:
        return {"status": "inconclusive", "reason": f"transform ball exit: {failure}"}
    w_nf = np.stack([st.w.coeffs for st in rec_w.states], axis=1)
    defect = _worst(grid.coeff_norm(w_from_uv.doubled[: grid.n_modes] - w_nf, m0))
    n_steps, n_rhs = rec_uv.n_steps + rec_w.n_steps, rec_uv.n_rhs + rec_w.n_rhs
    return {"status": "ok", "defect": defect, "n_steps": n_steps, "n_rhs": n_rhs}


def cmd_conjugacy(cfg: dict) -> int:
    grid = SpectralGrid(cfg["d"], cfg["n_modes"])
    w0 = ConjugatePair(random_field(grid, cfg["seed"], cfg["eps"], grid.m0, "free"))
    report = _report_header("conjugacy", cfg)
    report["grid"] = _grid_meta(grid)
    levels = []
    inconclusive = False
    for lvl in range(cfg["levels"]):
        tol = cfg["base_rel_tol"] / (2.0 ** lvl)
        res = conjugacy_defect(grid, w0, cfg["t_end"], cfg["n_samples"], tol)
        res["rel_tol"] = tol
        levels.append(res)
        if res["status"] != "ok":
            inconclusive = True
            break
    report["levels"] = levels
    if inconclusive:
        report["status"] = "inconclusive"
        report["pass"] = None
        _write_json(os.path.join(cfg["out"], "conjugacy_report.json"), report)
        print(f"conjugacy: inconclusive ({levels[-1]['reason']})")
        return EXIT_PASS
    defects = [lv["defect"] for lv in levels]
    monotone, final_ok = conjugacy_verdict(defects)
    report["status"] = "ok"
    report["defects"] = defects
    report["monotone_improvement"] = monotone
    report["final_defect"] = defects[-1]
    report["pass"] = monotone and final_ok
    _write_json(os.path.join(cfg["out"], "conjugacy_report.json"), report)
    print(
        f"conjugacy: defects={['%.3e' % d for d in defects]} monotone={monotone} "
        f"final<=bound={final_ok}"
    )
    return EXIT_PASS if report["pass"] else EXIT_FAIL


# -- sweep --------------------------------------------------------------------------

SWEEP_OPTIONS = (
    _D,
    _N_MODES,
    Option("eps_list", [0.2, 0.14, 0.1, 0.07, 0.05],
           _list(_POSITIVE, min_len=1), "comma-separated amplitudes"),
    Option("seeds_per_eps", 1, _int(min=1)),
    Option("seed", 100, _int()),
    Option("c1_op", 0.1, _POSITIVE),
    Option("t_cap", 1e6, _POSITIVE),
    Option("w0_scale", 0.2, _NONNEGATIVE),
    Option("rel_tol", 1e-8, _NONNEGATIVE, "DOP853 tolerance of normal_form rows only "
           "(original rows step with saba2 at 1/max|j|)"),
    Option("n_samples", 200, _int(min=2)),
    Option("s_offsets", [0.0, 1.0, 2.0], _list(_NONNEGATIVE, min_len=1), "orders above m0"),
    Option("representation", "original", _str("original", "normal_form")),
    Option("measure_constants", True, _BOOL, "also measure C*, C0 and the implied C1"),
    Option("workers", 0, _int(min=0), "process pool size (0: one per row, at most one per CPU)"),
    _OUT,
)
SWEEP_DEFAULTS, SWEEP_SCHEMA = _tables(SWEEP_OPTIONS)


def _sweep_integrator(cfg: dict, grid: SpectralGrid) -> dict:
    """The sweep's integrator for its representation. The physical flow steps
    with saba2 at one radian of the fastest rotation, ``dt = 1/max|j|``; the
    normal-form flow, which has no exact sub-flows, with DOP853 at the
    sweep's ``rel_tol``, its samples read from the dense output."""
    if cfg["representation"] == "original":
        return {"scheme": "saba2", "dt": 1.0 / KirchhoffDynamics(grid).max_frequency}
    return {"scheme": "dop853", "rel_tol": cfg["rel_tol"], "abs_tol": 1e-12}


def _sweep_row(params: dict, grid: SpectralGrid | None = None) -> dict:
    """One (eps, seed) row from the sweep config plus eps and row_seed (picklable),
    on ``grid`` if given, else on a grid of its own (a pool worker's)."""
    grid = grid or SpectralGrid(params["d"], params["n_modes"])
    m0, n = grid.m0, grid.n_modes
    eps = params["eps"]
    s_list = [m0 + off for off in params["s_offsets"]]
    w0 = ConjugatePair(
        random_field(grid, params["row_seed"], params["w0_scale"] * eps, m0, "free")
    )
    t_target = params["c1_op"] / eps ** 4
    t_end = min(t_target, params["t_cap"])
    ts = np.linspace(0.0, t_end, params["n_samples"] + 1)
    row = {
        "eps": eps,
        "seed": params["row_seed"],
        "w0_norm_m0": w0.w.norm(m0),
        "t_target": t_target,
        "t_end": t_end,
    }
    icfg = IntegratorConfig(**_sweep_integrator(params, grid), t_end=t_end)
    try:
        if params["representation"] == "original":
            # both directions at t = 0 before paying for a run
            try:
                state0 = change_of_variables("fwd", w0)
                change_of_variables("inv", state0)
            except DomainError as exc:
                row.update(status="initial_ball_exit", error=str(exc), pass_2x=False)
                return row
            rec = integrate(KirchhoffDynamics(grid), state0, icfg, t_eval=ts)
            # every sample, state0 included, mapped back in one pass; a
            # failing sample ends the series of mapped ones
            samples = PairStack.of(rec.states)
            mapped, failure = change_of_variables("inv", samples)
            w = mapped.doubled[:n]
            h_vals = hamiltonian(samples)
            uv_norms = pair_norm(grid, samples.doubled, m0)
            row["ham_drift_rel"] = float(np.max(_relative_drift(h_vals, h_vals[0])))
            row["max_uv_norm"] = float(np.max(uv_norms))
            row["uv_ratio"] = float(np.max(uv_norms) / uv_norms[0])
        else:
            dyn = make_dynamics("normal_form", grid)
            rec = integrate(dyn, w0, icfg, t_eval=ts, monitors={})
            w = np.stack([st.w.coeffs for st in rec.states], axis=1)
            failure = None
        norms = {s: grid.coeff_norm(w, s) for s in s_list}
    except (NumericalError, ConvergenceError) as exc:
        row["status"] = "numerical_error"
        row["error"] = str(exc)
        row["pass_2x"] = False
        return row

    # a row whose inverse transform fails has achieved its last mapped sample
    row["achieved_time"] = float(rec.exit_time if failure is None else ts[max(w.shape[1] - 1, 0)])
    row["exit_reason"] = rec.exit_reason
    row.update(rec.notes)  # why the run stopped early, if it did
    row["n_steps"] = rec.n_steps
    row["n_rejected"] = rec.n_rejected
    row["n_rhs"] = rec.n_rhs
    for s in s_list:
        series = norms[s]
        ratio = float(np.max(series) / series[0]) if len(series) and series[0] > 0 else 0.0
        row[f"ratio_s{s:g}"] = ratio
        row[f"pass_2x_s{s:g}"] = bool(ratio <= 2.0)
    row["pass_2x"] = all(row[f"pass_2x_s{s:g}"] for s in s_list)
    if failure is not None:
        row["status"] = "transform_ball_exit"
        row["pass_2x"] = False
    elif rec.exit_reason == "completed":
        row["status"] = "reached-target" if t_end >= t_target else "stable-at-cap"
    else:
        row["status"] = rec.exit_reason
    return row


def cmd_sweep(cfg: dict) -> int:
    t0 = time.perf_counter()
    tasks = [
        dict(cfg, eps=eps, row_seed=cfg["seed"] + 37 * i + k)
        for i, eps in enumerate(sorted(cfg["eps_list"], reverse=True))
        for k in range(cfg["seeds_per_eps"])
    ]

    grid = SpectralGrid(cfg["d"], cfg["n_modes"])
    workers = cfg["workers"] or min(len(tasks), os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(p, grid) for p in tasks]

    report = _report_header("sweep", cfg)
    report["grid"] = _grid_meta(grid)
    report["integrator"] = _sweep_integrator(cfg, grid)
    report["rows"] = rows

    finished = [r for r in rows if "achieved_time" in r and r["achieved_time"] > 0]
    if len(finished) >= 2:
        x = np.log([r["eps"] for r in finished])
        y = np.log([r["achieved_time"] for r in finished])
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        report["fit"] = {
            "exponent": float(slope),
            "intercept": float(intercept),
            "residual": resid,
            "censored": all(r["status"] in ("reached-target", "stable-at-cap") for r in finished),
        }

    if cfg["measure_constants"]:
        m0 = grid.m0
        # probe seeds from the config seed and each amplitude's bits, not its position
        amplitudes = {e: int(np.float64(e).view(np.uint64)) for e in sorted(set(cfg["eps_list"]))}
        consts = [
            measure_quartic_constant(
                grid, cfg["w0_scale"] * e, [cfg["seed"], 991, bits], t_end=10.0
            )
            for e, bits in reversed(amplitudes.items())
        ]
        # an amplitude that starts outside the normal-form ball has no C*
        measured = [c["c_star_m0"] for c in consts if c["c_star_m0"] is not None]
        c_star = _worst(measured) if measured else None
        from .transforms import equivalence_ratios

        eq = [
            equivalence_ratios(
                ConjugatePair(
                    random_field(grid, [cfg["seed"], 555, bits], cfg["w0_scale"] * e, m0, "free")
                ),
                m0,
            )
            for e, bits in reversed(amplitudes.items())
        ]
        c0_emp = _worst([[r["uv_over_w"], r["w_over_uv"]] for r in eq])
        report["constants"] = {
            "quartic_per_eps": consts,
            "c_star_empirical": c_star,
            "c0_empirical": c0_emp,
            "c1_implied": 15.0 / (32.0 * c_star * c0_emp ** 4)
            if c_star is not None and c_star > 0 and c0_emp > 0
            else None,
        }
        if c_star is None:
            report["constants"]["reason"] = "every amplitude starts outside the normal-form ball"

    report["runtime_s"] = time.perf_counter() - t0
    all_pass = all(r.get("pass_2x", False) for r in rows)
    report["pass"] = all_pass

    os.makedirs(cfg["out"], exist_ok=True)
    _write_json(os.path.join(cfg["out"], "sweep_report.json"), report)
    csv_path = os.path.join(cfg["out"], "sweep_rows.csv")
    if rows:
        cols = sorted({k for r in rows for k in r})
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for r in rows:
                cells = []
                for c in cols:
                    v = r.get(c, "")
                    cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
                fh.write(",".join(cells) + "\n")
    for r in rows:
        print(
            f"eps={r['eps']:g} status={r.get('status')} "
            f"achieved={r.get('achieved_time', float('nan')):g} pass_2x={r.get('pass_2x')}"
        )
    print(f"sweep: {'all rows bounded' if all_pass else 'BOUND VIOLATIONS'} "
          f"({report['runtime_s']:.0f}s)")
    return EXIT_PASS if all_pass else EXIT_FAIL


# -- entry point -----------------------------------------------------------------------


COMMANDS = {
    # name: (function, options, help, epilog)
    "verify": (
        cmd_verify,
        VERIFY_OPTIONS,
        "run the registered property suites",
        "Available suites: " + ", ".join(REGISTRY),
    ),
    "simulate": (
        cmd_simulate,
        SIMULATE_OPTIONS,
        "integrate one trajectory and summarize",
        "trajectory.csv columns: time, then the monitor channels in "
        "alphabetical order. original: ham_drift_rel (|H - H0| / |H0|, the "
        "absolute drift when H0 = 0), hamiltonian, "
        "momentum_drift_max, uv_norm_s<order> (the physical pair norm per "
        "monitored order); diagonalized/normal_form: w_norm_s<order>, plus "
        "speed_shift and energy_derivative_m0 for normal_form. Floats carry "
        "17 significant digits.",
    ),
    "conjugacy": (
        cmd_conjugacy,
        CONJUGACY_OPTIONS,
        "compare the two flows through the change of variables",
        None,
    ),
    "sweep": (
        cmd_sweep,
        SWEEP_OPTIONS,
        "lifespan surrogate over a list of amplitudes",
        "sweep_rows.csv columns (alphabetical): achieved_time, eps, error "
        "(why a row stopped early), exit_reason, ham_drift_rel (max over the "
        "samples of |H - H0| / |H0|, the absolute drift when H0 = 0), max_uv_norm, "
        "n_rejected, n_rhs, n_steps, pass_2x, pass_2x_s<order> and "
        "ratio_s<order> per monitored order, seed, status, t_end, t_target, "
        "uv_ratio, w0_norm_m0. Rows are sorted by eps descending; floats "
        "carry 17 significant digits.",
    ),
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchhoff-spectral",
        description="Spectral simulator and verification workbench for the "
        "Kirchhoff equation on the d-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, help_, epilog) in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_, epilog=epilog), options)
    return parser


def _overrides_from_args(args: argparse.Namespace, options) -> dict:
    out = {}
    for opt in options:
        value = getattr(args, opt.name)
        if isinstance(value, str) and opt.spec["kind"] == "list":
            value = _parse_list(opt.name, value, opt.spec)
        if value is not None:
            out[opt.name] = value
    return out


def parse_config(argv=None) -> tuple[str, dict]:
    """The command named on a command line and its merged, checked config."""
    args = make_parser().parse_args(argv)
    options = COMMANDS[args.command][1]
    overrides = _overrides_from_args(args, options)
    return args.command, merge_config(*_tables(options), args.config, overrides)


def main(argv=None) -> int:
    try:
        command, cfg = parse_config(argv)
        return COMMANDS[command][0](cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ConvergenceError, DomainError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

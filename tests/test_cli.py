import json
import math
import os
import re

import numpy as np
import pytest

from kirchhoff_spectral import cli, suites
from kirchhoff_spectral.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    SIMULATE_DEFAULTS,
    SIMULATE_SCHEMA,
    SWEEP_DEFAULTS,
    VERIFY_DEFAULTS,
    config_hash,
    main,
    merge_config,
    parse_config,
)
from kirchhoff_spectral.dynamics import NormalFormDynamics
from kirchhoff_spectral.errors import ConfigError, DomainError
from kirchhoff_spectral.fields import ConjugatePair, PairStack, random_field
from kirchhoff_spectral.grid import SpectralGrid
from kirchhoff_spectral.integrate import SCHEMES, IntegratorConfig


def test_merge_config_defaults_json_flags(tmp_path):
    path = os.path.join(tmp_path, "c.json")
    with open(path, "w") as fh:
        json.dump({"eps": 0.05, "t_end": 3.0}, fh)
    cfg = merge_config(SIMULATE_DEFAULTS, SIMULATE_SCHEMA, path, {"t_end": 7.0})
    assert cfg["eps"] == 0.05      # from json
    assert cfg["t_end"] == 7.0     # flag overrides json
    assert cfg["d"] == 1           # default survives


def test_verify_defaults_unchanged():
    # read from SuiteConfig; the defaults and so the default config hash stay put
    assert VERIFY_DEFAULTS == {
        "grids": [[1, 4], [1, 8], [2, 4], [2, 8]],
        "samples": 200,
        "seed": 20260808,
        "suites": [],
        "corrupt_diff_sign": False,
        "workers": 1,
        "out": "out",
    }
    assert config_hash(VERIFY_DEFAULTS) == "2979daf40780691f"


def test_scheme_choices_are_the_scheme_table():
    (scheme,) = [opt for opt in COMMANDS["simulate"][1] if opt.name == "scheme"]
    assert tuple(scheme.spec["choices"]) == tuple(SCHEMES)


def test_merge_config_unknown_field(tmp_path):
    path = os.path.join(tmp_path, "c.json")
    with open(path, "w") as fh:
        json.dump({"epsilon": 0.05}, fh)
    with pytest.raises(ConfigError, match="epsilon"):
        merge_config(SIMULATE_DEFAULTS, SIMULATE_SCHEMA, path, {})


def test_merge_config_reports_paths():
    with pytest.raises(ConfigError, match=r"s_values\[1\]"):
        merge_config(SIMULATE_DEFAULTS, SIMULATE_SCHEMA, None, {"s_values": [1.0, "x"]})
    with pytest.raises(ConfigError, match="representation"):
        merge_config(SIMULATE_DEFAULTS, SIMULATE_SCHEMA, None, {"representation": "exotic"})
    with pytest.raises(ConfigError, match="d"):
        merge_config(SIMULATE_DEFAULTS, SIMULATE_SCHEMA, None, {"d": 7})


def test_config_hash_stable():
    a = config_hash({"x": 1, "y": [2, 3]})
    b = config_hash({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 16


def test_verify_zero_samples(tmp_path):
    out = os.path.join(tmp_path, "v")
    code = main(["verify", "--samples", "0", "--out", out])
    assert code == EXIT_PASS
    with open(os.path.join(out, "verify_report.json")) as fh:
        rep = json.load(fh)
    assert rep["pass"] is True
    assert rep["suites"] == []
    assert rep["schema_version"] == 1
    assert "config_hash" in rep and "build_id" in rep


def test_verify_small_passes(tmp_path):
    out = os.path.join(tmp_path, "v")
    code = main(
        ["verify", "--samples", "3", "--suites", "homological-identity,reversibility",
         "--out", out]
    )
    assert code == EXIT_PASS


def test_verify_negative_control_fails(tmp_path, capsys):
    out = os.path.join(tmp_path, "v")
    code = main(["verify", "--samples", "3", "--corrupt-diff-sign", "--out", out])
    assert code == EXIT_FAIL
    with open(os.path.join(out, "verify_report.json")) as fh:
        rep = json.load(fh)
    assert rep["pass"] is False
    # the flipped sign breaks the homological identity and the field built on
    # it; the class solve of (I + jac) still meets its own residual guard,
    # which reads the same flipped table, but not the pairwise oracle, which
    # reads no class table; the operator identities, the cubic cancellation
    # and the rank-one inverse do not involve the difference table's sign and
    # still pass
    failing = [r["suite"] for r in rep["suites"] if not r["pass"]]
    assert failing == ["homological-identity", "neumann-vs-dense", "normal-form-agreement"]
    # the located sample alone reproduces the worst defect exactly
    (suite,) = [r for r in rep["suites"] if r["suite"] == "homological-identity"]
    at = suite["details"]["worst_at"]
    assert f"worst_at={json.dumps(at)}" in capsys.readouterr().out
    grid = SpectralGrid(*at["grid"], corrupt_diff_sign=True)
    defects = suites._homological_defects(grid, lambda *slot: at["seed"] + list(slot), at["sample"])
    assert defects["defect"] == suite["max_defect"] > 0.0


def test_reports_of_one_process_spawn_git_once(tmp_path, monkeypatch):
    spawned = []
    real_run = cli.subprocess.run

    def run(*args, **kwargs):
        spawned.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli.subprocess, "run", run)
    ids = []
    for k in range(2):
        out = os.path.join(tmp_path, str(k))
        assert main(["verify", "--samples", "0", "--out", out]) == EXIT_PASS
        with open(os.path.join(out, "verify_report.json")) as fh:
            ids.append(json.load(fh)["build_id"])
    assert len(spawned) <= 1 and ids[0] == ids[1]


def test_parse_config_calls_are_independent():
    # the parser is built once per process; no value of one call reaches the next
    first = parse_config(["verify", "--samples", "3", "--suites", "reversibility"])
    second = parse_config(["verify", "--seed", "5"])
    assert first == ("verify", dict(VERIFY_DEFAULTS, samples=3, suites=["reversibility"]))
    assert second == ("verify", dict(VERIFY_DEFAULTS, seed=5))


def test_verify_alternative_mixing_control(tmp_path):
    # negative control: the Q-preserving mixing normalization must leak energy
    out = os.path.join(tmp_path, "v")
    code = main(
        ["verify", "--samples", "5", "--suites", "alternative-mixing-control",
         "--out", out]
    )
    assert code == EXIT_PASS
    with open(os.path.join(out, "verify_report.json")) as fh:
        rep = json.load(fh)
    assert rep["suites"][0]["max_defect"] >= rep["suites"][0]["bound"]


def test_verify_bad_config_exit_code(tmp_path):
    assert main(["verify", "--samples", "-1", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["verify", "--suites", "nonexistent", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_simulate_t_end_zero(tmp_path):
    out = os.path.join(tmp_path, "s")
    code = main(["simulate", "--t-end", "0", "--out", out])
    assert code == EXIT_PASS
    with open(os.path.join(out, "simulate_summary.json")) as fh:
        rep = json.load(fh)
    assert rep["exit_reason"] == "completed"
    assert rep["n_steps"] == rep["n_rhs"] == 0
    csv = open(os.path.join(out, "trajectory.csv")).read().strip().split("\n")
    assert len(csv) == 2  # header plus the single initial sample


def test_simulate_zero_dt_is_a_config_error(tmp_path):
    args = ["simulate", "--dt", "0", "--scheme", "dop853", "--t-end", "0.05"]
    assert main(args + ["--out", str(tmp_path)]) == EXIT_CONFIG


def test_simulate_unknown_scheme_is_a_config_error(tmp_path):
    # rk4 was a scheme once; by flag and by config file it is now refused
    path = os.path.join(tmp_path, "c.json")
    with open(path, "w") as fh:
        json.dump({"scheme": "rk4", "t_end": 0.05}, fh)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scheme", "rk4", "--t-end", "0.05", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG


def test_simulate_has_no_method_option(tmp_path):
    # the normal-form flow has one evaluation; naming one is a config error
    path = os.path.join(tmp_path, "c.json")
    with open(path, "w") as fh:
        json.dump({"representation": "normal_form", "method": "direct"}, fh)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--method", "direct", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG


def test_simulate_normal_form(tmp_path):
    out = os.path.join(tmp_path, "s")
    code = main(
        ["simulate", "--representation", "normal_form", "--eps", "0.05",
         "--t-end", "0.5", "--rel-tol", "1e-8", "--out", out]
    )
    assert code == EXIT_PASS
    with open(os.path.join(out, "simulate_summary.json")) as fh:
        rep = json.load(fh)
    assert "speed_shift" in rep["channels"]
    assert rep["channels"]["speed_shift"]["min"] >= 0.0
    assert rep["n_rhs"] >= 1 + 12 * (rep["n_steps"] + rep["n_rejected"])


def test_simulate_normal_form_evaluates_field_once_per_sample(tmp_path, monkeypatch):
    import kirchhoff_spectral.normal_form as nf

    calls = []
    real = nf.normal_form_rhs

    def counting(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(nf, "normal_form_rhs", counting)
    out = os.path.join(tmp_path, "s")
    code = main(["simulate", "--representation", "normal_form", "--eps", "0.05",
                 "--t-end", "0.5", "--n-samples", "5", "--out", out])
    assert code == EXIT_PASS
    with open(os.path.join(out, "trajectory.csv")) as fh:
        n_samples = len(fh.read().strip().split("\n")) - 1
    assert n_samples == 6 and len(calls) == n_samples

    # the shared evaluation gives both channels exactly their own values
    _, cfg = parse_config(["simulate", "--representation", "normal_form"])
    grid = SpectralGrid(1, 8)
    state = cli._initial_state(cfg, grid)
    monitors = cli._simulate_monitors(cfg, grid, state)
    rhs = real(state)
    assert monitors["speed_shift"](0.0, state) == rhs.speed_shift
    assert monitors["energy_derivative_m0"](0.0, state) == nf.energy_derivative_arrays(
        grid, state.w.coeffs, rhs.total[0], grid.m0
    )


def test_simulate_norm_ratio_spread_small(tmp_path):
    # growth ratio of the physical norms is nearly independent of the order
    out = os.path.join(tmp_path, "s")
    code = main(
        ["simulate", "--eps", "0.1", "--t-end", "20", "--rel-tol", "1e-10", "--out", out]
    )
    assert code == EXIT_PASS
    with open(os.path.join(out, "simulate_summary.json")) as fh:
        rep = json.load(fh)
    assert rep["norm_growth_spread"] <= 0.10


def test_simulate_initial_file(tmp_path, grid1):
    from kirchhoff_spectral import field_to_dict, random_field

    w = random_field(grid1, 5, 0.03, 1.0, "free")
    path = os.path.join(tmp_path, "w.json")
    with open(path, "w") as fh:
        json.dump({"w": field_to_dict(w)}, fh)
    out = os.path.join(tmp_path, "s")
    code = main(
        ["simulate", "--representation", "diagonalized", "--initial-file", path,
         "--t-end", "0.2", "--rel-tol", "1e-8", "--out", out]
    )
    assert code == EXIT_PASS


def test_simulate_initial_file_original(tmp_path, grid1):
    from kirchhoff_spectral import field_to_dict
    from kirchhoff_spectral.kirchhoff import random_state

    state = random_state(grid1, 6, 0.05)
    path = os.path.join(tmp_path, "uv.json")
    with open(path, "w") as fh:
        json.dump({"u": field_to_dict(state.u), "v": field_to_dict(state.v)}, fh)
    out = os.path.join(tmp_path, "s")
    code = main(
        ["simulate", "--initial-file", path, "--t-end", "0.2", "--rel-tol", "1e-8",
         "--out", out]
    )
    assert code == EXIT_PASS


def test_conjugacy_zero_data(tmp_path):
    out = os.path.join(tmp_path, "c")
    code = main(
        ["conjugacy", "--eps", "0", "--t-end", "0.2", "--n-samples", "2",
         "--base-rel-tol", "1e-6", "--levels", "1", "--out", out]
    )
    assert code == EXIT_PASS
    with open(os.path.join(out, "conjugacy_report.json")) as fh:
        rep = json.load(fh)
    assert rep["final_defect"] == 0.0


def test_conjugacy_small_run(tmp_path):
    out = os.path.join(tmp_path, "c")
    code = main(
        ["conjugacy", "--eps", "0.05", "--t-end", "1.0", "--n-samples", "4",
         "--base-rel-tol", "1e-7", "--levels", "2", "--out", out]
    )
    assert code == EXIT_PASS
    with open(os.path.join(out, "conjugacy_report.json")) as fh:
        rep = json.load(fh)
    assert rep["pass"] is True
    assert rep["monotone_improvement"] is True
    assert all(lv["n_rhs"] >= 2 + 12 * lv["n_steps"] for lv in rep["levels"])


def test_sweep_single_tiny_cap(tmp_path):
    out = os.path.join(tmp_path, "w")
    code = main(
        ["sweep", "--eps-list", "0.2", "--t-cap", "2", "--workers", "1", "--out", out]
    )
    assert code == EXIT_PASS
    with open(os.path.join(out, "sweep_report.json")) as fh:
        rep = json.load(fh)
    assert len(rep["rows"]) == 1
    row = rep["rows"][0]
    assert row["status"] == "stable-at-cap"
    assert row["pass_2x"] is True
    assert os.path.exists(os.path.join(out, "sweep_rows.csv"))


def test_sweep_normal_form_representation(tmp_path):
    out = os.path.join(tmp_path, "w")
    code = main(
        ["sweep", "--eps-list", "0.2", "--t-cap", "1",
         "--representation", "normal_form", "--rel-tol", "1e-8", "--workers", "1",
         "--out", out]
    )
    assert code == EXIT_PASS
    with open(os.path.join(out, "sweep_report.json")) as fh:
        rep = json.load(fh)
    assert rep["rows"][0]["pass_2x"] is True


def test_sweep_normal_form_samples_do_not_cap_the_step(monkeypatch):
    # 200 samples over t_end 1 used to clamp DOP853's steps onto the sample
    # times: 2,401 normal-form field evaluations instead of about 1,200
    calls = []
    real = NormalFormDynamics.rhs

    def counting(self, t, y):
        calls.append(t)
        return real(self, t, y)

    monkeypatch.setattr(NormalFormDynamics, "rhs", counting)
    _, cfg = parse_config(["sweep", "--eps-list", "0.2", "--t-cap", "1",
                           "--representation", "normal_form", "--no-measure-constants"])
    row = cli._sweep_row(dict(cfg, eps=0.2, row_seed=100))
    assert row["status"] == "stable-at-cap" and row["pass_2x"] is True
    assert len(calls) < 2401
    assert row["n_rhs"] == len(calls)


def test_conjugacy_initial_ball_violation_is_inconclusive(tmp_path, capsys):
    out = os.path.join(tmp_path, "c")
    code = main(
        ["conjugacy", "--eps", "0.3", "--t-end", "0.1", "--n-samples", "2",
         "--levels", "1", "--out", out]
    )
    assert code == EXIT_PASS
    with open(os.path.join(out, "conjugacy_report.json")) as fh:
        rep = json.load(fh)
    assert rep["status"] == "inconclusive"
    # the printed verdict gives the level's own reason
    reason = rep["levels"][-1]["reason"]
    assert reason.startswith("initial ball violation")
    assert capsys.readouterr().out.strip() == f"conjugacy: inconclusive ({reason})"


def _config_error(capsys, argv, path=None, config=None) -> str:
    """Run ``argv`` (with ``config`` written to ``path`` as its config file)
    and return its stderr, after checking that it exits with a config error."""
    if config is not None:
        with open(path, "w") as fh:
            json.dump(config, fh)  # NaN and inf are written as NaN and Infinity
        argv = argv + ["--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    return capsys.readouterr().err


def test_conjugacy_non_finite_tolerance_is_a_config_error(tmp_path, capsys):
    argv = ["conjugacy", "--t-end", "0.1", "--levels", "1", "--out", str(tmp_path)]
    for text in ("nan", "inf"):
        err = _config_error(capsys, argv + ["--base-rel-tol", text])
        assert "base_rel_tol: must be finite" in err
    err = _config_error(capsys, argv, tmp_path / "c.json", {"eps": math.nan})
    assert "eps: must be finite" in err


def test_simulate_non_finite_input_is_a_config_error(tmp_path, capsys, grid1):
    from kirchhoff_spectral import field_to_dict

    argv = ["simulate", "--t-end", "0.1", "--out", str(tmp_path)]
    assert "eps: must be finite" in _config_error(capsys, argv + ["--eps", "nan"])
    err = _config_error(capsys, argv, tmp_path / "c.json", {"abs_tol": math.inf})
    assert "abs_tol: must be finite" in err
    # an initial field is read from outside the program too
    data = field_to_dict(random_field(grid1, 5, 0.03, 1.0, "free"))
    data["coeffs"][3][grid1.d + 1] = math.nan
    path = tmp_path / "w.json"
    with open(path, "w") as fh:
        json.dump({"w": data}, fh)
    argv += ["--representation", "normal_form", "--initial-file", str(path)]
    assert "initial_file w: coefficient 3 must be finite" in _config_error(capsys, argv)
    # so are a missing field and a field serialized on another grid
    with open(path, "w") as fh:
        json.dump({"u": data}, fh)
    assert "initial_file: no field 'w'" in _config_error(capsys, argv)
    coarse = random_field(SpectralGrid(1, 4), 5, 0.03, 1.0, "free")
    with open(path, "w") as fh:
        json.dump({"w": field_to_dict(coarse)}, fh)
    assert "initial_file w: serialized grid" in _config_error(capsys, argv)


def _initial_file_argv(tmp_path, path) -> list:
    return ["simulate", "--t-end", "0.1", "--representation", "normal_form",
            "--initial-file", str(path), "--out", str(tmp_path)]


def test_initial_file_that_cannot_be_read_is_a_config_error(tmp_path, capsys):
    argv = _initial_file_argv(tmp_path, tmp_path / "missing.json")
    assert "cannot read initial_file" in _config_error(capsys, argv)


def test_initial_file_that_is_not_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text('{"w": {"d": 1,')
    argv = _initial_file_argv(tmp_path, path)
    assert "initial_file is not valid JSON" in _config_error(capsys, argv)


def test_initial_file_with_a_string_coefficient_is_a_config_error(tmp_path, capsys, grid1):
    from kirchhoff_spectral import field_to_dict

    data = field_to_dict(random_field(grid1, 5, 0.03, 1.0, "free"))
    data["coeffs"][0] = [1, "x", 0.0]
    path = tmp_path / "w.json"
    with open(path, "w") as fh:
        json.dump({"w": data}, fh)
    err = _config_error(capsys, _initial_file_argv(tmp_path, path))
    assert "initial_file w: malformed field (TypeError" in err


def test_sweep_non_finite_amplitude_is_a_config_error(tmp_path, capsys):
    argv = ["sweep", "--workers", "1", "--out", str(tmp_path)]
    assert "eps_list[0]: must be finite" in _config_error(capsys, argv + ["--eps-list", "nan"])
    err = _config_error(capsys, argv, tmp_path / "c.json", {"eps_list": [0.1, math.inf]})
    assert "eps_list[1]: must be finite" in err


@pytest.mark.parametrize("field", ["t_cap", "c1_op"])
def test_sweep_zero_time_scale_is_a_config_error_naming_its_field(field, tmp_path, capsys):
    # either one at 0 makes every row's end time 0; the refusal names the field
    argv = ["sweep", "--workers", "1", "--out", str(tmp_path), "--" + field.replace("_", "-"), "0"]
    assert f"{field}: must be >= 1e-06, got 0.0" in _config_error(capsys, argv)


def _nan_inverse_at(column, monkeypatch):
    """cli's inverse transform, with the ``column``-th sample of a stack mapped to NaN."""
    real = cli.change_of_variables

    def inverse(direction, state):
        out = real(direction, state)
        if direction == "inv" and isinstance(state, PairStack):
            mapped, failure = out
            doubled = mapped.doubled.copy()
            doubled[:, column] = np.nan
            return PairStack(mapped.grid, doubled), failure
        return out

    monkeypatch.setattr(cli, "change_of_variables", inverse)


def test_conjugacy_defect_keeps_a_nan_sample(tmp_path, monkeypatch):
    grid = SpectralGrid(1, 4)
    w0 = ConjugatePair(random_field(grid, 3, 0.05, grid.m0, "free"))
    _nan_inverse_at(2, monkeypatch)  # the third sample of the stack
    res = cli.conjugacy_defect(grid, w0, t_end=0.2, n_samples=4, rel_tol=1e-10)
    assert res["status"] == "ok" and np.isnan(res["defect"])

    out = os.path.join(tmp_path, "c")
    monkeypatch.undo()
    _nan_inverse_at(2, monkeypatch)
    code = main(["conjugacy", "--n-modes", "4", "--t-end", "0.2", "--n-samples", "4",
                 "--levels", "1", "--out", out])
    assert code == EXIT_FAIL
    with open(os.path.join(out, "conjugacy_report.json")) as fh:
        assert json.load(fh)["pass"] is False


def test_sweep_constants_keep_a_nan(tmp_path, monkeypatch):
    # C* and C0 are suprema over the amplitudes; a NaN at the second one stays
    from kirchhoff_spectral import transforms

    def constant(grid, eps, seed, t_end):
        return {"eps": eps, "c_star_m0": math.nan if eps < 0.03 else 0.3}

    real = transforms.equivalence_ratios
    ratios = []

    def equivalence(state, s):
        ratios.append(real(state, s))
        return dict(ratios[-1], w_over_uv=math.nan) if len(ratios) == 2 else ratios[-1]

    monkeypatch.setattr(cli, "measure_quartic_constant", constant)
    monkeypatch.setattr(transforms, "equivalence_ratios", equivalence)
    out = os.path.join(tmp_path, "s")
    main(["sweep", "--eps-list", "0.2,0.1", "--t-cap", "0.1", "--n-samples", "2",
          "--workers", "1", "--out", out])
    with open(os.path.join(out, "sweep_report.json")) as fh:
        constants = _strict_load(fh.read())["constants"]
    # a NaN is written as null with its reason, never as a number
    for key in ("c_star_empirical", "c0_empirical"):
        assert constants[key] is None
        assert "non-finite" in constants[f"{key}_reason"]
    assert constants["c1_implied"] is None
    (small,) = [c for c in constants["quartic_per_eps"] if c["eps"] < 0.03]
    assert small["c_star_m0"] is None and "non-finite" in small["c_star_m0_reason"]


def test_sweep_constants_do_not_depend_on_the_other_amplitudes(tmp_path, monkeypatch):
    # each amplitude's probe and equivalence state are seeded by the config
    # seed and the amplitude alone; eps 3 starts outside the normal-form ball
    from kirchhoff_spectral import transforms

    real = transforms.equivalence_ratios
    ratios = {}

    def equivalence(state, s):
        ratios.setdefault(run, []).append(real(state, s))
        return ratios[run][-1]

    monkeypatch.setattr(transforms, "equivalence_ratios", equivalence)
    per_eps = {}
    for run, eps_list in (("alone", "0.2"), ("with_3", "3,0.2")):
        out = os.path.join(tmp_path, run)
        main(["sweep", "--eps-list", eps_list, "--t-cap", "0.1", "--n-samples", "2",
              "--workers", "1", "--out", out])
        with open(os.path.join(out, "sweep_report.json")) as fh:
            consts = json.load(fh)["constants"]["quartic_per_eps"]
        (per_eps[run],) = [c for c in consts if c["eps"] == pytest.approx(0.2 * 0.2)]
    assert per_eps["alone"] == per_eps["with_3"]
    assert ratios["alone"][-1] == ratios["with_3"][-1]  # sorted descending: 0.2 is last


def _strict_load(text: str):
    """json.loads that rejects the non-standard NaN, Infinity and -Infinity."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_a_report_holding_a_nan_is_strict_json(tmp_path, monkeypatch):
    # a NaN defect fails its suite; the report names it null with a reason
    real = suites.energy_derivative_arrays

    def rate(grid, w, field_first, s):
        return math.nan if s == suites.CANCELLATION_S[-1] else real(grid, w, field_first, s)

    monkeypatch.setattr(suites, "energy_derivative_arrays", rate)
    out = os.path.join(tmp_path, "v")
    code = main(["verify", "--suites", "cubic-energy-cancellation", "--grids", "1:4",
                 "--samples", "3", "--out", out])
    assert code == EXIT_FAIL
    with open(os.path.join(out, "verify_report.json")) as fh:
        (suite,) = _strict_load(fh.read())["suites"]
    assert suite["pass"] is False
    assert suite["max_defect"] is None
    assert "non-finite" in suite["max_defect_reason"]
    # the per-defect value in details is labelled the same way, beside worst_at
    details = suite["details"]
    assert details["defect"] is None
    assert "non-finite" in details["defect_reason"]
    assert details["worst_at"]["grid"] == [1, 4]


def _no_negation_kernel(grid, x, y):
    """The coupling kernel with its class sum taken of x y, not x y_-: a class-table fault."""
    sums = grid.class_sums(x * y)
    return sums, np.dot(grid.class_table.T, sums)


@pytest.mark.parametrize("suite", ["neumann-vs-dense", "normal-form-agreement"])
def test_a_refused_solve_fails_its_suite_with_a_report(suite, tmp_path, monkeypatch):
    # under a class-table fault the solve's own residual guard refuses every
    # sample; the suite fails with a report instead of stopping verify
    from kirchhoff_spectral import coupling

    monkeypatch.setattr(coupling, "class_symbols", _no_negation_kernel)
    out = os.path.join(tmp_path, "v")
    assert main(["verify", "--suites", suite, "--samples", "2", "--out", out]) == EXIT_FAIL
    with open(os.path.join(out, "verify_report.json")) as fh:
        (entry,) = _strict_load(fh.read())["suites"]
    assert entry["pass"] is False and entry["max_defect"] is None
    details = entry["details"]
    # an infinite defect, null in strict JSON, with the guard's message as its reason
    assert details["defect"] is None
    assert re.fullmatch(r"jacobian solve residual \S+ exceeds tolerance", details["defect_reason"])
    # on the first sample it refused
    tag = suites.REGISTRY[suite].tag
    seed = [suites.SuiteConfig.seed, tag, 0, 0]
    assert details["worst_at"] == {"grid": [1, 4], "sample": 0, "seed": seed}


def test_a_finite_report_is_written_as_the_strict_walk_writes_it(tmp_path):
    # a report with no NaN or inf skips the walk; its bytes are the walk's
    payload = {"b": [1.5, (2, -0.0)], "a": {"x": 1e-300, "y": None, "z": "s"}, "c": True}
    path = os.path.join(tmp_path, "r", "report.json")
    cli._write_json(path, payload)
    expected = json.dumps(cli._strict_json(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "rb") as fh:
        assert fh.read() == (expected + "\n").encode("utf-8")


def test_simulate_ball_threshold_stops_the_original_flow(tmp_path):
    # the physical pair's ball norm is the one the inverse transform checks
    out = os.path.join(tmp_path, "s")
    code = main(["simulate", "--representation", "original", "--eps", "0.1", "--t-end", "1",
                 "--ball-threshold", "1e-6", "--out", out])
    assert code == EXIT_PASS
    with open(os.path.join(out, "simulate_summary.json")) as fh:
        rep = json.load(fh)
    assert rep["exit_reason"] == "ball_exit" and rep["exit_time"] < 1.0


def test_simulate_tracked_mode_momentum_channels(tmp_path):
    out = os.path.join(tmp_path, "s")
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        json.dump({"track_modes": [[2]], "t_end": 0.5, "rel_tol": 1e-9}, fh)
    code = main(["simulate", "--config", path, "--out", out])
    assert code == EXIT_PASS
    header = open(os.path.join(out, "trajectory.csv")).readline().strip().split(",")
    assert "momentum_j2_0" in header


def test_sweep_bad_eps_list(tmp_path):
    assert main(["sweep", "--eps-list", "a,b", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_reports_embed_metadata(tmp_path):
    out = os.path.join(tmp_path, "s")
    main(["simulate", "--t-end", "0", "--out", out])
    with open(os.path.join(out, "simulate_summary.json")) as fh:
        rep = json.load(fh)
    for key in ("schema_version", "build_id", "config_hash", "config", "grid"):
        assert key in rep
    assert rep["grid"]["n_modes"] == 16


def test_sweep_initial_ball_exit_is_a_labelled_row(tmp_path):
    # eps 0.6 puts w0 outside the transform ball; the other row still runs
    out = os.path.join(tmp_path, "w")
    code = main(
        ["sweep", "--eps-list", "0.6,0.05", "--t-cap", "1", "--workers", "1",
         "--no-measure-constants", "--out", out]
    )
    assert code == EXIT_FAIL
    with open(os.path.join(out, "sweep_report.json")) as fh:
        rep = json.load(fh)
    first, second = rep["rows"]
    assert first["eps"] == 0.6 and first["status"] == "initial_ball_exit"
    assert first["pass_2x"] is False and "outside the ball" in first["error"]
    assert second["status"] == "stable-at-cap" and second["pass_2x"] is True


def test_sweep_help_names_every_csv_column(tmp_path):
    # the eps 0.6 row stops before its run, so its columns include error
    out = os.path.join(tmp_path, "w")
    main(["sweep", "--eps-list", "0.6,0.05", "--t-cap", "1", "--workers", "1",
          "--no-measure-constants", "--out", out])
    header = open(os.path.join(out, "sweep_rows.csv")).readline().strip().split(",")
    assert "error" in header and "n_rhs" in header
    names = re.findall(r"[a-z][a-z0-9_]*(?:<order>)?", cli.COMMANDS["sweep"][3])
    patterns = [re.escape(n).replace(re.escape("<order>"), ".+") for n in names]
    for column in header:
        assert any(re.fullmatch(p, column) for p in patterns), column


def test_sweep_constants_skip_an_amplitude_outside_the_normal_form_ball(tmp_path):
    # eps 3 starts at ||w0||_m0 = 0.6, outside the normal-form field's ball;
    # its quartic probe is labelled and left out of C*, and the sweep reports
    out = os.path.join(tmp_path, "w")
    assert main(["sweep", "--eps-list", "3,0.2", "--workers", "1", "--out", out]) == EXIT_FAIL
    with open(os.path.join(out, "sweep_report.json")) as fh:
        rep = json.load(fh)
    assert [(r["eps"], r["status"]) for r in rep["rows"]] == [
        (3.0, "initial_ball_exit"), (0.2, "reached-target")
    ]
    outside, inside = rep["constants"]["quartic_per_eps"]
    assert outside["exit_reason"] == "initial_ball_exit" and outside["c_star_m0"] is None
    assert rep["constants"]["c_star_empirical"] == inside["c_star_m0"] > 0.0
    assert rep["constants"]["c1_implied"] > 0.0 and "reason" not in rep["constants"]
    # with no amplitude left there is no C*, and the report says why
    assert main(["sweep", "--eps-list", "3", "--workers", "1", "--out", out]) == EXIT_FAIL
    with open(os.path.join(out, "sweep_report.json")) as fh:
        constants = json.load(fh)["constants"]
    assert constants["c_star_empirical"] is None and constants["c1_implied"] is None
    assert "outside the normal-form ball" in constants["reason"]


def test_sweep_failed_first_inverse_achieves_nothing(tmp_path):
    # eps 0.4: w0 is inside the ball but its image (u, v) is not, so the
    # inverse transform fails at the first sample; the row must not enter the fit
    out = os.path.join(tmp_path, "w")
    code = main(
        ["sweep", "--eps-list", "0.4,0.2", "--t-cap", "1", "--workers", "1",
         "--no-measure-constants", "--out", out]
    )
    assert code == EXIT_FAIL
    with open(os.path.join(out, "sweep_report.json")) as fh:
        rep = json.load(fh)
    rows = {r["eps"]: r for r in rep["rows"]}
    assert rows[0.4]["status"] == "initial_ball_exit"
    assert "achieved_time" not in rows[0.4]
    assert rows[0.2]["achieved_time"] == 1.0
    assert "fit" not in rep  # one row with a positive achieved time is too few


def test_sweep_checks_initial_inverse_before_integrating(monkeypatch):
    # the eps 0.4 row fails its first inverse: it is labelled without a run
    # and reports no ratios next to a pass flag
    runs = []
    monkeypatch.setattr(cli, "integrate", lambda *a, **k: runs.append(a))
    _, cfg = parse_config(["sweep", "--t-cap", "1", "--no-measure-constants"])
    row = cli._sweep_row(dict(cfg, eps=0.4, row_seed=100))
    assert runs == []
    assert row["status"] == "initial_ball_exit" and row["pass_2x"] is False
    assert "outside the ball" in row["error"]
    assert not any(key.startswith(("ratio_s", "pass_2x_s")) for key in row)


def test_sweep_drift_covers_every_integrated_sample(monkeypatch):
    _, cfg = parse_config(["sweep", "--t-cap", "5", "--n-samples", "10",
                           "--no-measure-constants"])
    params = dict(cfg, eps=0.2, row_seed=100)
    full = cli._sweep_row(params)
    assert full["status"] == "stable-at-cap"

    # the inverse transform of the third sample of the stack fails; the run
    # itself is the same
    real = cli.change_of_variables

    def failing(direction, state):
        out = real(direction, state)
        if direction == "inv" and isinstance(state, PairStack):
            mapped, _ = out
            return PairStack(mapped.grid, mapped.doubled[:, :2]), DomainError("left the ball")
        return out

    monkeypatch.setattr(cli, "change_of_variables", failing)
    cut = cli._sweep_row(params)
    assert cut["status"] == "transform_ball_exit" and cut["pass_2x"] is False
    assert cut["achieved_time"] == 0.5  # the second sample, the last one mapped
    assert cut["n_steps"] == full["n_steps"]
    for key in ("ham_drift_rel", "max_uv_norm", "uv_ratio"):
        assert cut[key] == full[key]


def test_an_in_process_sweep_builds_its_grid_once(tmp_path, monkeypatch):
    # the rows and the report's grid and integrator fields share one grid
    builds = []
    real = SpectralGrid.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SpectralGrid, "__init__", counted)
    out = os.path.join(tmp_path, "w")
    code = main(["sweep", "--eps-list", "0.2", "--t-cap", "1", "--workers", "1",
                 "--no-measure-constants", "--out", out])
    assert code == EXIT_PASS
    assert builds == [(1, 8)]


def test_sweep_ham_drift_is_relative_to_the_initial_energy(monkeypatch):
    # a sweep row's energy is far below 1 (here about 1e-3), where dividing by
    # max(1, |H0|) would report the absolute drift under the relative name
    from kirchhoff_spectral.kirchhoff import hamiltonian

    records = []
    real = cli.integrate

    def spy(*args, **kwargs):
        records.append(real(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(cli, "integrate", spy)
    _, cfg = parse_config(["sweep", "--t-cap", "5", "--n-samples", "10",
                           "--no-measure-constants"])
    row = cli._sweep_row(dict(cfg, eps=0.2, row_seed=100))
    (rec,) = records
    h = np.array([hamiltonian(st) for st in rec.states])
    assert 1e-4 < h[0] < 1e-2
    drift = np.max(np.abs(h - h[0]))
    assert drift > 0.0
    assert row["ham_drift_rel"] == pytest.approx(drift / h[0], rel=1e-12)
    # the zero state has no scale to divide by: its drift stays absolute
    assert cli._relative_drift(np.array([0.0, 2.5e-17]), 0.0).tolist() == [0.0, 2.5e-17]


def test_simulate_ham_drift_is_relative_to_the_initial_energy(tmp_path):
    out = os.path.join(tmp_path, "s")
    code = main(["simulate", "--eps", "0.05", "--t-end", "1", "--n-samples", "5",
                 "--out", out])
    assert code == EXIT_PASS
    with open(os.path.join(out, "trajectory.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(x) for x in line.split(",")] for line in fh])
    h = rows[:, header.index("hamiltonian")]
    rel = rows[:, header.index("ham_drift_rel")]
    assert 1e-5 < h[0] < 1e-2 and np.max(rel) > 0.0
    assert rel == pytest.approx(np.abs(h - h[0]) / h[0], rel=1e-12, abs=0.0)


def test_sweep_integrates_with_dop853(tmp_path, monkeypatch):
    # normal_form rows step with DOP853 at rel_tol, original rows with saba2 at
    # one radian of the fastest rotation; both blocks are derived, not options,
    # so the sweep's config and its hash stay put
    assert config_hash(SWEEP_DEFAULTS) == "93bdc78790f39c1f"
    used = []
    real = cli.integrate

    def spy(evaluator, state0, config, **kwargs):
        used.append((config.scheme, config.dt, config.rel_tol, config.abs_tol))
        return real(evaluator, state0, config, **kwargs)

    monkeypatch.setattr(cli, "integrate", spy)
    blocks = {
        "original": {"scheme": "saba2", "dt": 0.125},
        "normal_form": {"scheme": "dop853", "rel_tol": 1e-8, "abs_tol": 1e-12},
    }
    for representation, block in blocks.items():
        used.clear()
        out = os.path.join(tmp_path, representation)
        code = main(["sweep", "--eps-list", "0.2", "--t-cap", "1", "--n-samples", "2",
                     "--workers", "1", "--representation", representation,
                     "--no-measure-constants", "--out", out])
        assert code == EXIT_PASS
        config = IntegratorConfig(**block)
        assert used == [(config.scheme, config.dt, config.rel_tol, config.abs_tol)]
        with open(os.path.join(out, "sweep_report.json")) as fh:
            rep = json.load(fh)
        assert rep["integrator"] == block
        row = rep["rows"][0]
        if representation == "original":
            # four steps per sample interval, one field evaluation at the start
            assert (row["n_steps"], row["n_rejected"], row["n_rhs"]) == (8, 0, 1)
        else:
            assert row["n_steps"] > 0 and row["n_rejected"] >= 0
            assert row["n_rhs"] >= 1 + 12 * (row["n_steps"] + row["n_rejected"])
        header = open(os.path.join(out, "sweep_rows.csv")).readline().strip().split(",")
        assert {"n_rejected", "n_rhs", "n_steps"} <= set(header)


def test_simulate_saba2_needs_exact_subflows(tmp_path):
    out = str(tmp_path)
    assert main(["simulate", "--scheme", "saba2", "--t-end", "1", "--out", out]) == EXIT_PASS
    with open(os.path.join(out, "simulate_summary.json")) as fh:
        summary = json.load(fh)
    assert (summary["exit_reason"], summary["n_steps"]) == ("completed", 100)  # dt 1e-2
    for representation in ("diagonalized", "normal_form"):
        argv = ["simulate", "--representation", representation, "--scheme", "saba2",
                "--t-end", "1", "--out", out]
        assert main(argv) == EXIT_CONFIG
    argv = ["simulate", "--scheme", "saba2", "--dt", "0.5", "--t-end", "1", "--out", out]
    assert main(argv) == EXIT_CONFIG  # dt * max|j| = 4 > pi


def _other_value(spec, default=None):
    """A value the spec accepts that differs from the default."""
    kind = spec["kind"]
    if "choices" in spec:
        return next(c for c in spec["choices"] if c != default)
    if kind == "bool":
        return not default
    if kind == "int":
        return (spec.get("min", -3) if default is None else default) + 1
    if kind == "number":
        return (spec.get("min", 0.0) if default is None else default) + 0.375
    if kind == "str":
        return f"{default}-set"
    item = _other_value(spec["item"])
    return [item, item]


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(":".join(map(str, v)) if isinstance(v, list) else str(v) for v in value)
    return str(value)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_option_same_by_flag_and_by_json(tmp_path, command):
    options = COMMANDS[command][1]
    values = {opt.name: _other_value(opt.spec, opt.default) for opt in options}
    assert all(values[opt.name] != opt.default for opt in options)
    argv = [command]
    for opt in options:
        flag = opt.name.replace("_", "-")
        if opt.spec["kind"] == "bool":
            argv.append(f"--{flag}" if values[opt.name] else f"--no-{flag}")
        else:
            argv.append(f"--{flag}={_flag_text(values[opt.name])}")
    path = os.path.join(tmp_path, "c.json")
    with open(path, "w") as fh:
        json.dump(values, fh)
    by_flag = parse_config(argv)
    by_json = parse_config([command, "--config", path])
    assert by_flag == by_json == (command, values)
    assert config_hash(by_flag[1]) == config_hash(by_json[1])


@pytest.mark.parametrize(
    "command, field, value",
    [("verify", "divisor_radius", 2), ("verify", "divisor_dims", [2]),
     ("conjugacy", "defect_bound", 1.0)],
)
def test_pinned_verdict_settings_are_unknown_fields(tmp_path, command, field, value):
    # the small-divisor sweep and the conjugacy bound are pinned, not options
    path = os.path.join(tmp_path, "c.json")
    with open(path, "w") as fh:
        json.dump({field: value}, fh)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_bad_list_flags_exit_config(tmp_path):
    assert main(["verify", "--grids", "1:x", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["verify", "--suites", "no-such-suite", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["simulate", "--s-values", "1,a", "--out", str(tmp_path)]) == EXIT_CONFIG

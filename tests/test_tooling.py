"""The benchmark's span tracer (perfbench/spans.py) wraps package functions
by name; a refactor that renames or moves one would break the traced
benchmark silently, so every name it wraps is checked here."""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_perfbench(monkeypatch, name: str, as_name: str):
    """perfbench/<name>.py as the module ``as_name``, registered for this test only."""
    spec = importlib.util.spec_from_file_location(as_name, SPANS.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _load_spans(monkeypatch):
    return _load_perfbench(monkeypatch, "spans", "perfbench_spans")


def test_every_traced_name_is_defined_on_its_owner(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.TARGETS
    for target in spans.TARGETS:
        module_name, _, cls = target.owner.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            owner = getattr(owner, cls)
        # vars(), not getattr(): an inherited method would not be traced
        assert callable(vars(owner).get(target.attr)), target


def test_traced_call_paths():
    from kirchhoff_spectral import coupling, normal_form, suites, transforms

    # the tracer patches the registry entry along with the module attribute
    assert suites.REGISTRY["neumann-vs-dense"] is suites.suite_neumann_vs_dense
    # the cubic-stage inverse counts its iterations through the transforms
    # module's own mix_arrays reference
    assert "mix_arrays" in transforms.cubic_stage_inverse_arrays.__code__.co_names
    # the names the tracer replaces are the coupling module's own functions,
    # so coupling.solve.per_rhs, coupling.jac.per_solve and
    # transforms.cubic_inv.iters count calls to them
    assert normal_form.solve_jacobian_arrays is coupling.solve_jacobian_arrays
    assert normal_form.mix_arrays is coupling.mix_arrays
    assert transforms.mix_arrays is coupling.mix_arrays
    # the solve's residual guard reaches jac through its module-level name, once
    (call,) = _calls(coupling.solve_jacobian_arrays, "jac_arrays")
    assert isinstance(call.func, ast.Name)
    assert "jac_arrays" in coupling.solve_jacobian_arrays.__code__.co_names


def _calls(fn, callee: str) -> list[ast.Call]:
    """The calls to ``callee`` (a bare or dotted name) in the source of ``fn``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == callee
    ]


@pytest.mark.parametrize("workload, command", [("lifespan", "sweep"), ("oracle", "verify")])
def test_the_cli_accepts_the_benchmark_configs(workload, command, tmp_path, monkeypatch):
    # the benchmark's workloads run the CLI from config files they write; an
    # option removed from under them would make every benchmark run exit 2
    from kirchhoff_spectral import cli

    _load_perfbench(monkeypatch, "stats", "stats")  # workloads imports it by this name
    workloads = _load_perfbench(monkeypatch, "workloads", "perfbench_workloads")
    parts = workloads.WORKLOADS[workload](1, str(tmp_path)).parts
    configs = sorted(tmp_path.rglob("*.json"))
    assert len(configs) == len(parts) > 0
    defaults, schema = cli._tables(cli.COMMANDS[command][1])
    for path in configs:
        cli.merge_config(defaults, schema, str(path), {})


def test_per_layer_call_edges():
    from kirchhoff_spectral import dynamics, suites

    # normal_form.rhs counts the normal-form flow's field evaluations
    assert _calls(dynamics.NormalFormDynamics.rhs, "normal_form_rhs_arrays")
    # integrate.monitor times the quartic probe, which integrate only sees
    # when measure_quartic_constant hands it over as monitors
    (call,) = _calls(suites.measure_quartic_constant, "integrate")
    assert "monitors" in {kw.arg for kw in call.keywords}


def test_original_sweep_row_reaches_the_lifespan_layers(monkeypatch):
    # the benchmark's lifespan workload expects spans from integrate and from
    # the physical field; saba2 evaluates that field once, at the start, and a
    # row that skipped either layer would make the traced run exit 3
    from kirchhoff_spectral import cli, dynamics

    calls = {"integrate": 0, "rhs": 0}
    real_integrate, real_rhs = cli.integrate, dynamics.KirchhoffDynamics.rhs

    def integrate(*args, **kwargs):
        calls["integrate"] += 1
        return real_integrate(*args, **kwargs)

    def rhs(self, t, y):
        calls["rhs"] += 1
        return real_rhs(self, t, y)

    monkeypatch.setattr(cli, "integrate", integrate)
    monkeypatch.setattr(dynamics.KirchhoffDynamics, "rhs", rhs)
    _, cfg = cli.parse_config(["sweep", "--t-cap", "1", "--no-measure-constants"])
    row = cli._sweep_row(dict(cfg, eps=0.2, row_seed=100))
    assert row["status"] == "stable-at-cap"
    assert calls["integrate"] == 1 and calls["rhs"] >= 1


@pytest.mark.parametrize("eps", [0.2, 0.185, 0.17])
def test_an_original_sweep_row_builds_each_step_size_once(eps, monkeypatch):
    # the benchmark's lifespan workload times these rows; the saba2 step
    # factors are built once per distinct step size of a row, not per landing
    # (sample intervals that differ by an ulp give distinct sizes)
    import math

    import numpy as np

    from kirchhoff_spectral import cli, dynamics
    from kirchhoff_spectral.integrate import _STEP_SLACK

    built = []
    real = dynamics.KirchhoffDynamics.saba2_factors

    def saba2_factors(self, h):
        built.append(h)
        return real(self, h)

    monkeypatch.setattr(dynamics.KirchhoffDynamics, "saba2_factors", saba2_factors)
    _, cfg = cli.parse_config(["sweep", "--c1-op", "0.02", "--n-samples", "20",
                               "--no-measure-constants"])
    row = cli._sweep_row(dict(cfg, eps=eps, row_seed=100))
    assert row["status"] == "reached-target"
    intervals = np.diff(np.linspace(0.0, row["t_end"], 21)).tolist()
    dt = 1 / 8  # one radian of the fastest rotation on d=1 N=8
    sizes = {b / math.ceil(b / dt * (1.0 - _STEP_SLACK)) for b in intervals}
    assert len(built) == len(set(built)) == len(sizes) < len(intervals)


#: change_of_variables calls of one original sweep row: forward and inverse
#: at t = 0, before the run, then one inverse on the stack of every sample
CHANGES_OF_VARIABLES_PER_ROW = 3

#: change_of_variables calls of one conjugacy level: the forward map of the
#: initial state, then one inverse on the stack of the physical samples
CHANGES_OF_VARIABLES_PER_LEVEL = {"fwd": 1, "inv": 1}


def _counted_changes_of_variables(monkeypatch) -> list:
    from kirchhoff_spectral import cli

    calls = []
    real = cli.change_of_variables

    def counted(direction, state, *args, **kwargs):
        calls.append(direction)
        return real(direction, state, *args, **kwargs)

    monkeypatch.setattr(cli, "change_of_variables", counted)
    return calls


def test_a_sweep_row_maps_its_samples_in_one_pass(monkeypatch):
    # the benchmark's lifespan workload times these rows; their saved work is
    # pinned here: one inverse for all the samples of a row, not one per sample
    from kirchhoff_spectral import cli

    calls = _counted_changes_of_variables(monkeypatch)
    _, cfg = cli.parse_config(["sweep", "--t-cap", "5", "--n-samples", "10",
                               "--no-measure-constants"])
    row = cli._sweep_row(dict(cfg, eps=0.2, row_seed=100))
    assert row["status"] == "stable-at-cap"
    assert calls == ["fwd", "inv", "inv"] and len(calls) == CHANGES_OF_VARIABLES_PER_ROW


def test_a_conjugacy_level_maps_its_samples_in_one_pass(monkeypatch):
    from kirchhoff_spectral import ConjugatePair, SpectralGrid, cli, random_field

    calls = _counted_changes_of_variables(monkeypatch)
    grid = SpectralGrid(1, 4)
    w0 = ConjugatePair(random_field(grid, 3, 0.05, grid.m0, "free"))
    res = cli.conjugacy_defect(grid, w0, t_end=0.2, n_samples=4, rel_tol=1e-10)
    assert res["status"] == "ok"
    assert {d: calls.count(d) for d in set(calls)} == CHANGES_OF_VARIABLES_PER_LEVEL


def test_oracle_suite_reaches_the_oracle_layers(monkeypatch):
    # the benchmark's oracle workload expects spans from the solve, from jac
    # and from the dense assembly; a suite that skipped one would make the
    # traced run exit 3
    from kirchhoff_spectral import coupling, suites

    calls = dict.fromkeys(("solve_jacobian_arrays", "jac_arrays", "dense_jacobian_matrix"), 0)
    for name in calls:

        def counted(*args, _name=name, _real=getattr(coupling, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (coupling, suites):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    # a grid's samples are one stack: one solve (whose residual guard makes the
    # one jac call) and one pairwise action take all ten, where one solve per
    # sample made ten of each; the matrix is assembled once per grid, to check
    # that action
    result = suites.suite_neumann_vs_dense(suites.SuiteConfig(grids=((2, 8),), samples=10))
    assert result.passed and result.samples == 10
    assert calls == {"solve_jacobian_arrays": 1, "jac_arrays": 1, "dense_jacobian_matrix": 1}


def _one_sample_at_a_time(suite, cfg):
    """The suite driver as it ran before checks took a grid's samples at once:
    ``check(grid, seed, k)`` per sample, the names of a sample in turn."""
    from functools import partial

    from kirchhoff_spectral import suites

    samples = cfg.samples if suite.cap is None else max(1, min(cfg.samples, suite.cap))
    worst, at = {}, {}
    for gi, (d, size) in enumerate(cfg.grids):
        g = suites.SpectralGrid(d, size, corrupt_diff_sign=cfg.corrupt_diff_sign)
        for k in range(samples):
            seed = partial(suites._seed, cfg, suite.tag, gi, k)
            for name, value in suite.check.__wrapped__(g, seed, k).items():
                if name not in worst or suites._rank(value) > suites._rank(worst[name]):
                    worst[name] = value
                    at[name] = {"grid": [d, size], "sample": k, "seed": seed()}
    return len(cfg.grids) * samples, worst, at


def test_per_sample_checks_report_as_they_did_one_sample_at_a_time(tmp_path, monkeypatch):
    # every suite but neumann-vs-dense runs its one-sample check through the
    # adapter; its entries must be the ones the one-sample driver wrote, to the
    # bit (JSON floats read back exactly)
    import json

    from kirchhoff_spectral import cli, suites

    names = [name for name, row in suites.REGISTRY.items()
             if row.rule is not suites._exhaustive and name != "neumann-vs-dense"]
    assert len(names) == 11

    def report(out):
        argv = ["verify", "--samples", "5", "--suites", ",".join(names), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_PASS
        return json.loads((out / "verify_report.json").read_text())["suites"]

    stacked = report(tmp_path / "stacked")
    monkeypatch.setattr(suites, "_sampled", _one_sample_at_a_time)
    assert report(tmp_path / "one") == stacked


def test_pair_tables_are_built_once_and_not_by_the_constructor(monkeypatch):
    # at d=3 N=16 the two tables would take 2 x 2.3 GB, which no grid user
    # but the pairwise oracle may pay for
    from kirchhoff_spectral import grid as grid_module

    calls = []
    real = grid_module.coupling_tables

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(grid_module, "coupling_tables", counted)
    g = grid_module.SpectralGrid(2, 4)
    assert len(calls) == 1  # the class table
    first = g.pair_tables()
    assert len(calls) == 2
    assert g.pair_tables() is first and len(calls) == 2
    assert all(t.shape == (g.n_modes, g.n_modes) and not t.flags.writeable for t in first)


#: grid.class_sums calls of one structured normal-form field: one for the
#: record of its state, two in the class solve and one in the solve's residual
#: guard
CLASS_SUMS_PER_FIELD = 4

#: coupling-kernel calls of one structured normal-form field: the record of its
#: state, the class solve's right-hand side and the solve's residual guard;
#: every class-sum product with the class table goes through the kernel, so an
#: inline copy of the product in any of the three would drop a call
KERNEL_CALLS_PER_FIELD = 3

#: grid.pairing calls of one structured normal-form field: Q and the
#: off-diagonal coefficient of the transformed pair (one each), and the two
#: squared pairings of the cubic off-diagonal part
PAIRINGS_PER_FIELD = 4


@pytest.mark.parametrize("d", [1, 2])
def test_normal_form_field_linearizes_its_state_once(d, monkeypatch):
    # the benchmark's quartic workload times this field; its saved work is
    # pinned here: mix, the cubic terms, the solve and the solve's residual
    # guard read one record of the state, which is built once
    from kirchhoff_spectral import ConjugatePair, SpectralGrid, coupling, normal_form, random_field

    grid = SpectralGrid(d, 8)
    x = ConjugatePair(random_field(grid, 5, 0.05, grid.m0, "free")).doubled
    calls = dict.fromkeys(("linearize", "solve_jacobian_arrays", "jac_arrays", "class_symbols",
                           "class_sums", "pairing"), 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("linearize", "solve_jacobian_arrays", "jac_arrays", "class_symbols"):
        wrapper = counted(name, getattr(coupling, name))
        for module in (coupling, normal_form):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(grid, "class_sums", counted("class_sums", grid.class_sums))
    monkeypatch.setattr(grid, "pairing", counted("pairing", grid.pairing))
    normal_form.normal_form_rhs_arrays(grid, x)
    assert calls.pop("class_sums") <= CLASS_SUMS_PER_FIELD
    assert calls.pop("pairing") == PAIRINGS_PER_FIELD
    assert calls == {"linearize": 1, "solve_jacobian_arrays": 1, "jac_arrays": 1,
                     "class_symbols": KERNEL_CALLS_PER_FIELD}


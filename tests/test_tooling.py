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

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


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
    from kirchhoff_spectral import suites, transforms

    # the tracer patches the registry entry along with the module attribute
    assert suites.REGISTRY["neumann-vs-dense"] is suites.suite_neumann_vs_dense
    # the cubic-stage inverse counts its iterations through the transforms
    # module's own mix_arrays reference
    assert "mix_arrays" in transforms.cubic_stage_inverse_arrays.__code__.co_names


def _calls(fn, callee: str) -> list[ast.Call]:
    """The calls to ``callee`` (a bare or dotted name) in the source of ``fn``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == callee
    ]


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
    # the residual goes through the pairwise action; the matrix is assembled
    # once per grid, to check that action
    result = suites.suite_neumann_vs_dense(suites.SuiteConfig(grids=((1, 4),), samples=3))
    assert result.passed
    assert calls == {"solve_jacobian_arrays": 3, "jac_arrays": 3, "dense_jacobian_matrix": 1}


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


@pytest.mark.parametrize("d", [1, 2])
def test_normal_form_field_linearizes_its_state_once(d, monkeypatch):
    # the benchmark's quartic workload times this field; its saved work is
    # pinned here: mix, the cubic terms, the solve and the solve's residual
    # guard read one record of the state, which is built once
    from kirchhoff_spectral import SpectralGrid, coupling, normal_form, random_field

    grid = SpectralGrid(d, 8)
    w = random_field(grid, 5, 0.05, grid.m0, "free").coeffs
    z = np.conj(w[grid.neg_index])
    calls = dict.fromkeys(("linearize", "solve_jacobian_arrays", "jac_arrays", "class_sums"), 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("linearize", "solve_jacobian_arrays", "jac_arrays"):
        wrapper = counted(name, getattr(coupling, name))
        for module in (coupling, normal_form):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(grid, "class_sums", counted("class_sums", grid.class_sums))
    normal_form.normal_form_rhs_arrays(grid, w, z)
    assert calls.pop("class_sums") <= CLASS_SUMS_PER_FIELD
    assert calls == {"linearize": 1, "solve_jacobian_arrays": 1, "jac_arrays": 1}

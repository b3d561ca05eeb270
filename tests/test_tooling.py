"""The benchmark's span tracer (perfbench/spans.py) wraps package functions
by name; a refactor that renames or moves one would break the traced
benchmark silently, so every name it wraps is checked here."""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
import textwrap
from pathlib import Path

import pytest

from oracles import STACKED_DEFECT_ROUNDING

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


def _blas_threads(record) -> list:
    """Every value recorded under the key OPENBLAS_NUM_THREADS, at any depth."""
    if isinstance(record, dict):
        found = [v for k, v in record.items() if k == "OPENBLAS_NUM_THREADS"]
        return found + [x for v in record.values() for x in _blas_threads(v)]
    if isinstance(record, list):
        return [x for v in record for x in _blas_threads(v)]
    return []


@pytest.mark.parametrize("path", sorted(SPANS.parents[1].glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_every_performance_record_pins_one_blas_thread(path):
    # a small complex solve is about 70x slower with threaded OpenBLAS, so a
    # performance record carries its BLAS thread count, and its figures were
    # measured on one thread
    assert "1" in map(str, _blas_threads(json.loads(path.read_text())))


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


def test_simulate_hands_integrate_no_monitors():
    # simulate reads its channels off the run's samples after the run; the
    # monitor hook serves the quartic probe (pinned above)
    from kirchhoff_spectral import cli

    (call,) = _calls(cli.cmd_simulate, "integrate")
    assert len(call.args) <= 3 and "monitors" not in {kw.arg for kw in call.keywords}


#: the normal-form field evaluations of the three probes of the benchmark's
#: quartic workload (d=1 N=8, t_end 0.25) at seed 12345, each opening with
#: Hairer's starting step; a fixed first step of 0.01 makes 144
QUARTIC_PROBE_FIELD_CALLS = 123


def test_the_quartic_probes_start_from_their_field(monkeypatch):
    # the benchmark's quartic workload integrates these three normal-form runs
    # in their rotation's frame; each starts with the step its field asks for
    from kirchhoff_spectral import SpectralGrid, dynamics, suites

    calls = []
    real = dynamics.NormalFormDynamics.rhs

    def rhs(self, t, y):
        calls.append(t)
        return real(self, t, y)

    monkeypatch.setattr(dynamics.NormalFormDynamics, "rhs", rhs)
    grid = SpectralGrid(1, 8)
    runs = [suites.measure_quartic_constant(grid, eps, 12345, t_end=0.25)
            for eps in (0.05, 0.1, 0.2)]
    assert all(run["exit_reason"] == "completed" for run in runs)
    assert sum(run["n_rhs"] for run in runs) == len(calls) <= QUARTIC_PROBE_FIELD_CALLS


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
    # factors are built in one call per row, holding each distinct step size
    # of the row once (sample intervals that differ by an ulp give distinct
    # sizes)
    import math

    import numpy as np

    from kirchhoff_spectral import cli, dynamics
    from kirchhoff_spectral.integrate import _STEP_SLACK

    built = []
    real = dynamics.KirchhoffDynamics.saba2_factors

    def saba2_factors(self, hs):
        built.append(list(hs))
        return real(self, hs)

    monkeypatch.setattr(dynamics.KirchhoffDynamics, "saba2_factors", saba2_factors)
    _, cfg = cli.parse_config(["sweep", "--c1-op", "0.02", "--n-samples", "20",
                               "--no-measure-constants"])
    row = cli._sweep_row(dict(cfg, eps=eps, row_seed=100))
    assert row["status"] == "reached-target"
    intervals = np.diff(np.linspace(0.0, row["t_end"], 21)).tolist()
    dt = 1 / 8  # one radian of the fastest rotation on d=1 N=8
    sizes = {b / math.ceil(b / dt * (1.0 - _STEP_SLACK)) for b in intervals}
    (hs,) = built
    assert len(hs) == len(set(hs)) and set(hs) == sizes and len(sizes) < len(intervals)


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


def _counted_fields(monkeypatch) -> list:
    """The ComplexFields built, each state object's parts: a RealPair holds
    two and a ConjugatePair one."""
    from kirchhoff_spectral.fields import ComplexField

    built = []
    real = ComplexField.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(ComplexField, "__post_init__", counted)
    return built


def test_a_sweep_row_maps_its_samples_in_one_pass(monkeypatch):
    # the benchmark's lifespan workload times these rows; their saved work is
    # pinned here: one inverse for all the samples of a row, not one per
    # sample, read from the run's packed samples without a state per sample
    from kirchhoff_spectral import cli

    calls = _counted_changes_of_variables(monkeypatch)
    built = _counted_fields(monkeypatch)
    for n_samples in (10, 40):
        calls.clear()
        built.clear()
        _, cfg = cli.parse_config(["sweep", "--t-cap", "5", "--n-samples", str(n_samples),
                                   "--no-measure-constants"])
        row = cli._sweep_row(dict(cfg, eps=0.2, row_seed=100))
        assert row["status"] == "stable-at-cap"
        assert calls == ["fwd", "inv", "inv"] and len(calls) == CHANGES_OF_VARIABLES_PER_ROW
        # the drawn w0, the physical start and the one-state inverse's result
        assert len(built) == 1 + 2 + 1


def test_a_conjugacy_level_maps_its_samples_in_one_pass(monkeypatch):
    from kirchhoff_spectral import ConjugatePair, SpectralGrid, cli, random_field

    calls = _counted_changes_of_variables(monkeypatch)
    built = _counted_fields(monkeypatch)
    grid = SpectralGrid(1, 4)
    w0 = ConjugatePair(random_field(grid, 3, 0.05, grid.m0, "free"))
    for n_samples in (4, 40):
        calls.clear()
        built.clear()
        res = cli.conjugacy_defect(grid, w0, t_end=0.2, n_samples=n_samples, rel_tol=1e-10)
        assert res["status"] == "ok"
        assert {d: calls.count(d) for d in set(calls)} == CHANGES_OF_VARIABLES_PER_LEVEL
        assert len(built) == 2  # the physical start, whatever the number of samples


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


def _one_sample_at_a_time(suite, cfg, values=None):
    """The suite driver with one sample per call: the row's check on a stack of
    one, ``check(grid, [seed])``, sample by sample, the names of a sample in
    turn; the reference of the driver that checks a grid's samples at once.
    ``values``, if given, collects every value under (tag, name, seed)."""
    from functools import partial

    from kirchhoff_spectral import suites

    samples = cfg.samples if suite.cap is None else max(1, min(cfg.samples, suite.cap))
    worst, at = {}, {}
    for gi, (d, size) in enumerate(cfg.grids):
        g = suites.SpectralGrid(d, size, corrupt_diff_sign=cfg.corrupt_diff_sign)
        for k in range(samples):
            seed = partial(suites._seed, cfg, suite.tag, gi, k)
            for name, (value,) in suite.check(g, [seed]).items():
                if values is not None:
                    values[suite.tag, name, tuple(seed())] = value
                if name not in worst or suites._rank(value) > suites._rank(worst[name]):
                    worst[name] = value
                    at[name] = {"grid": [d, size], "sample": k, "seed": seed()}
    return len(cfg.grids) * samples, worst, at


def _stacked_suites():
    from kirchhoff_spectral import suites

    # neumann-vs-dense checks its matrix on each grid's first sample only, so
    # one sample per call would check it on every sample
    names = [name for name, row in suites.REGISTRY.items()
             if row.rule is not suites._exhaustive and name != "neumann-vs-dense"]
    assert len(names) == 11
    return names


def _verify_report(out, names) -> list:
    import json

    from kirchhoff_spectral import cli

    argv = ["verify", "--samples", "5", "--suites", ",".join(names), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_PASS
    return json.loads((out / "verify_report.json").read_text())["suites"]


def _near(a, b) -> bool:
    return abs(a - b) <= STACKED_DEFECT_ROUNDING * max(1.0, abs(a))


def _headline(entry, names) -> str:
    """The defect name of a report entry's headline, among the row's ``names``."""
    details = entry["details"]
    if "bounds" not in details:  # the negative control has one defect
        (head,) = names
        return head
    return next(name for name, bound in details["bounds"].items()
                if bound == entry["bound"] and details[name] == entry["max_defect"])


def test_per_sample_checks_report_as_they_did_one_sample_at_a_time(tmp_path, monkeypatch):
    # a check takes a grid's samples as one stack; the same samples checked
    # one per call must give every suite the same verdict and every defect to
    # rounding, since a stack's products round otherwise than one sample's;
    # where samples tie to rounding, worst_at may name either of them
    from functools import partial

    from kirchhoff_spectral import suites

    names = _stacked_suites()
    stacked = _verify_report(tmp_path / "stacked", names)
    values = {}
    monkeypatch.setattr(suites, "_sampled", partial(_one_sample_at_a_time, values=values))
    one = _verify_report(tmp_path / "one", names)
    for entry, ref in zip(stacked, one, strict=True):
        assert (entry["suite"], entry["samples"], entry["pass"], entry["bound"]) == (
            ref["suite"], ref["samples"], ref["pass"], ref["bound"])
        assert _near(entry["max_defect"], ref["max_defect"]), entry["suite"]
        assert entry["details"].keys() == ref["details"].keys()
        for key, value in entry["details"].items():
            if isinstance(value, float):
                assert _near(value, ref["details"][key]), (entry["suite"], key)
            elif key != "worst_at":  # bounds, reasons and the control's direction
                assert value == ref["details"][key], (entry["suite"], key)
        tag = suites.REGISTRY[entry["suite"]].tag
        head = _headline(entry, {name for t, name, _ in values if t == tag})
        at = entry["details"]["worst_at"]
        assert _near(values[tag, head, tuple(at["seed"])], ref["max_defect"]), entry["suite"]


def test_stacked_checks_draw_the_samples_their_one_sample_checks_drew(monkeypatch):
    # the one-sample driver runs the stacked checks on a stack of one, so it
    # cannot see a draw that changed at every stack size: pin the draws that
    # the stacked checks no longer take from random_state or from k
    from functools import partial

    from kirchhoff_spectral import SpectralGrid, kirchhoff, suites
    from oracles import same_bits

    grid, cfg = SpectralGrid(2, 4), suites.SuiteConfig()
    drawn = {"random_fields": [], "random_states": []}
    for name in drawn:
        def recorded(*args, _name=name, _real=getattr(suites, name)):
            drawn[_name].append(_real(*args))
            return drawn[_name][-1]
        monkeypatch.setattr(suites, name, recorded)

    def seeds(name, m=7):
        return [partial(suites._seed, cfg, suites.REGISTRY[name].tag, 0, k) for k in range(m)]

    def same_states(stacks, states):
        return all(same_bits(stacks[0][:, k], st.u.coeffs) and same_bits(stacks[1][:, k], st.v.coeffs)
                   for k, st in enumerate(states))

    rev = seeds("reversibility")
    suites._reversibility_defects(grid, rev)
    assert same_states(drawn["random_states"].pop(), [kirchhoff.random_state(grid, s(), 0.3) for s in rev])
    trip = seeds("stage-round-trips")
    suites._round_trip_defects(grid, trip)
    assert same_states(drawn["random_states"].pop(),
                       [kirchhoff.random_state(grid, s(6), 0.09) for s in trip])
    agree = seeds("normal-form-agreement")
    drawn["random_fields"].clear()
    suites._agreement_defects(grid, agree)
    (x,) = drawn["random_fields"]
    for k, s in enumerate(agree):
        field = suites.random_field(grid, s(0), 0.04 + 0.16 * (k % 5) / 4.0, grid.m0, "free")
        assert same_bits(x[:, k], field.coeffs), k


def test_each_sample_of_a_stacked_check_is_that_sample_checked_alone():
    # sample by sample, not only the worst: a check that paired a sample with
    # another sample's draws would keep every maximum but move these values
    from kirchhoff_spectral import SpectralGrid, suites

    grid = SpectralGrid(2, 4)
    for name in _stacked_suites():
        row = suites.REGISTRY[name]
        seeds = [lambda *slot, k=k: [20260808, row.tag, 0, k, *slot] for k in range(4)]
        stacked = row.check(grid, seeds)
        for k, seed in enumerate(seeds):
            for defect, (value,) in row.check(grid, [seed]).items():
                assert _near(stacked[defect][k], value), (name, defect, k)


def test_worst_at_reruns_its_sample_with_one_call(tmp_path):
    # the sample that a report's worst_at names, re-run alone by the row's check
    # with that one seed, gives the headline defect to rounding
    from kirchhoff_spectral import SpectralGrid, suites

    for entry in _verify_report(tmp_path, _stacked_suites()):
        row, at = suites.REGISTRY[entry["suite"]], entry["details"]["worst_at"]
        assert at["seed"][3] == at["sample"]
        values = row.check(SpectralGrid(*at["grid"]), [lambda *slot: at["seed"] + list(slot)])
        (again,) = values[_headline(entry, values)]
        assert _near(again, entry["max_defect"]), entry["suite"]


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


#: per-column passes (``transforms.per_sample``) of one diag stage: fwd reads
#: P and inv reads Q, each from one pass, and rho takes the array it returns
PASSES_PER_DIAG_STAGE = 1


@pytest.mark.parametrize("direction", ["fwd", "inv"])
def test_a_diag_stage_makes_one_per_column_pass(direction, monkeypatch):
    # the benchmark's lifespan workload maps its samples through this stage;
    # a per-column loop costs a Python call per sample, so its count is pinned
    import numpy as np

    from kirchhoff_spectral import ConjugatePair, SpectralGrid, random_field, transforms

    grid = SpectralGrid(1, 8)
    x = np.stack([ConjugatePair(random_field(grid, k, 0.05, grid.m0, "free")).doubled
                  for k in range(4)], axis=1)
    passes = []
    real = transforms.per_sample

    def counted(f, value):
        passes.append(f)
        return real(f, value)

    monkeypatch.setattr(transforms, "per_sample", counted)
    for state in (x, x[:, 0]):
        passes.clear()
        transforms.diag_stage(direction, grid, state)
        assert len(passes) == PASSES_PER_DIAG_STAGE

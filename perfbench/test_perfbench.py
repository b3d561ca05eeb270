"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import json

import numpy as np
import pytest

import run

run.load_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT_PARENT, Target, TraceError, Tracer, layer_metrics, self_times  # noqa: E402
from stats import Job, percentile, summarize, tail_percentile, tally  # noqa: E402

from kirchhoff_spectral import coupling, normal_form, suites, transforms  # noqa: E402
from kirchhoff_spectral.errors import DomainError  # noqa: E402
from kirchhoff_spectral.fields import ConjugatePair, random_field  # noqa: E402
from kirchhoff_spectral.grid import SpectralGrid  # noqa: E402


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and c
    # [9, 12] (overhanging the root's end); a has a child [2, 3]
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [ROOT_PARENT, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    # root: 10 - |[1, 6] u [9, 10]| = 4; a: 3 - 1; b, c and the leaf have no children
    assert got == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_self_time_of_nested_and_disjoint_children():
    start = [0.0, 1.0, 1.5, 5.0]
    end = [8.0, 4.0, 2.5, 7.0]
    parent = [ROOT_PARENT, 0, 1, 0]
    got = self_times(start, end, parent)
    # grandchildren count toward their own parent only
    assert got == pytest.approx([8.0 - 3.0 - 2.0, 3.0 - 1.0, 1.0, 2.0])


# -- percentiles and sample counts ----------------------------------------------------


def test_percentile_matches_numpy_linear_rule():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    for p in (0, 25, 50, 90, 100):
        assert percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(9) is None
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_summarize_reports_count_and_tail():
    small = summarize([2.0, 1.0, 3.0])
    assert small == {"n": 3, "min": 1.0, "median": 2.0, "tail_p": None, "tail": None}
    big = summarize([float(i) for i in range(200)])
    assert big["n"] == 200 and big["tail_p"] == 90.0
    assert big["tail"] == pytest.approx(np.percentile(range(200), 90))


# -- fail_ratio counting ---------------------------------------------------------------


def test_tally_counts_failed_jobs():
    jobs = [Job("a", True), Job("b", False, "bad"), Job("c", True), Job("d", True)]
    assert tally(jobs) == (4, 1, 0.25)
    assert tally([Job("a", True)]) == (1, 0, 0.0)


def test_tally_of_nothing_is_a_failure():
    assert tally([]) == (1, 1, 1.0)


def _sweep_row(eps, status="reached-target", ratio=1.0, n_steps=100):
    return {
        "eps": eps, "status": status, "n_steps": n_steps,
        "ratio_s1": ratio, "pass_2x_s1": ratio <= 2.0,
        "ratio_s2": 1.0, "pass_2x_s2": True,
    }


def _sweep_out(row, code=0):
    return {"exit": code, "error": None, "report": {"rows": [row]}}


def test_lifespan_check_fails_rows_individually(tmp_path):
    wl = workloads.Lifespan(1, str(tmp_path))
    rows = [_sweep_row(e) for e in wl.EPS]
    # a transform exit with a full achieved time must still fail its row
    rows[1] = _sweep_row(wl.EPS[1], status="transform_ball_exit")
    rows[2] = _sweep_row(wl.EPS[2], ratio=2.5)
    outs = [_sweep_out(rows[0]), _sweep_out(rows[1], 1), _sweep_out(rows[2], 1)]
    jobs = wl.check(outs)
    assert [j.ok for j in jobs] == [True, False, False]
    assert tally(jobs) == (3, 2, 2 / 3)
    # a failed row's margin is the worst possible value, not room to spare
    assert wl.margins(outs) == {"check.max_norm_ratio": workloads.FAILED_MARGIN}
    assert wl.margins([_sweep_out(r) for r in rows]) == {"check.max_norm_ratio": 2.5}


def test_lifespan_check_fails_a_good_report_with_a_failed_exit(tmp_path):
    wl = workloads.Lifespan(1, str(tmp_path))
    outs = [_sweep_out(_sweep_row(e)) for e in wl.EPS]
    outs[0]["exit"] = 3  # e.g. a numerical error after an earlier report was written
    assert [j.ok for j in wl.check(outs)] == [False, True, True]
    assert wl.margins(outs)["check.max_norm_ratio"] == workloads.FAILED_MARGIN


def test_lifespan_check_counts_missing_rows(tmp_path):
    wl = workloads.Lifespan(1, str(tmp_path))
    outs = [{"exit": None, "error": "RuntimeError: boom", "report": None}] * 3
    assert tally(wl.check(outs)) == (3, 3, 1.0)


def test_stale_report_is_never_read_back(tmp_path, monkeypatch):
    report = tmp_path / "sweep_report.json"
    report.write_text(json.dumps({"rows": [_sweep_row(0.2)]}))

    def failing_main(argv):
        print("numerical error: boom")
        return 3  # exits without writing a new report

    monkeypatch.setattr(workloads.cli, "main", failing_main)
    out = workloads._run_cli(["sweep"], str(report))
    assert out["exit"] == 3 and out["report"] is None
    assert not report.exists()


def test_quartic_check_spread_and_exit(tmp_path):
    wl = workloads.Quartic(1, str(tmp_path))
    runs = [
        {"eps": 0.05, "c_star_m0": 0.4, "exit_reason": "completed"},
        {"eps": 0.1, "c_star_m0": 0.5, "exit_reason": "completed"},
        {"eps": 0.2, "c_star_m0": 0.6, "exit_reason": "ball_exit"},
    ]
    assert [j.ok for j in wl.check(runs)] == [True, True, False]
    runs[2] = {"eps": 0.2, "c_star_m0": 1.3, "exit_reason": "completed"}
    assert [j.ok for j in wl.check(runs)] == [False, False, False]
    assert wl.margins(runs)["check.cstar_spread"] == pytest.approx(1.3 / 0.4)
    runs[0] = {"eps": 0.05, "error": "ConvergenceError: boom"}
    assert wl.margins(runs)["check.cstar_spread"] == workloads.FAILED_MARGIN


def _suite_out(defect, code=0, samples=workloads.Oracle.SAMPLES):
    suite = {"suite": "neumann-vs-dense", "samples": samples, "max_defect": defect,
             "bound": 1e-10, "pass": defect <= 1e-10}
    return {"exit": code, "error": None, "report": {"suites": [suite]}}


def test_oracle_check_counts_each_grid(tmp_path):
    wl = workloads.Oracle(1, str(tmp_path))
    outs = [_suite_out(1e-13), _suite_out(5e-10, 1), _suite_out(1e-13, 1), _suite_out(1e-14)]
    jobs = wl.check(outs)
    assert [j.ok for j in jobs] == [True, False, False, True]
    assert wl.margins(outs)["check.worst_defect_over_bound"] == workloads.FAILED_MARGIN
    good = [_suite_out(2e-13), _suite_out(1e-13), _suite_out(1e-13), _suite_out(1e-14)]
    assert tally(wl.check(good)) == (4, 0, 0.0)
    assert wl.margins(good)["check.worst_defect_over_bound"] == pytest.approx(2e-3)


def test_seeds_derive_from_the_benchmark_seed():
    assert workloads.derived_seed("quartic", 1) == workloads.derived_seed("quartic", 1)
    assert workloads.derived_seed("quartic", 1) != workloads.derived_seed("quartic", 2)
    assert workloads.derived_seed("quartic", 1) != workloads.derived_seed("lifespan", 1)


def test_lifespan_rows_keep_the_seeds_of_one_sweep(tmp_path):
    wl = workloads.Lifespan(1, str(tmp_path))
    configs = [json.loads((tmp_path / "lifespan" / f"row{i}" / "sweep.json").read_text())
               for i in range(len(wl.EPS))]
    # cmd_sweep gives row i of a descending eps list the seed base + 37 i
    assert [c["seed"] - wl.program_seed for c in configs] == [0, 37, 74]
    assert [c["eps_list"] for c in configs] == [[e] for e in sorted(wl.EPS, reverse=True)]


# -- tracer -------------------------------------------------------------------------------


def _nf_state(grid):
    return ConjugatePair(random_field(grid, 5, 0.05, grid.m0, "free"))


def test_tracer_patches_every_importer_and_restores():
    original = coupling.solve_jacobian_arrays
    with Tracer():
        assert coupling.solve_jacobian_arrays is not original
        # normal_form imported the solve by name
        assert normal_form.solve_jacobian_arrays is coupling.solve_jacobian_arrays
        # only the transforms module's mix reference is wrapped
        assert transforms.mix_arrays.__wrapped_by_tracer__
        assert normal_form.mix_arrays is coupling.mix_arrays
    assert coupling.solve_jacobian_arrays is original
    assert normal_form.solve_jacobian_arrays is original
    assert transforms.mix_arrays is coupling.mix_arrays


def test_tracer_patches_the_suite_registry():
    original = suites.suite_neumann_vs_dense
    with Tracer():
        assert suites.REGISTRY["neumann-vs-dense"].__wrapped_by_tracer__
        assert suites.REGISTRY["neumann-vs-dense"] is suites.suite_neumann_vs_dense
    assert suites.REGISTRY["neumann-vs-dense"] is original
    assert suites.suite_neumann_vs_dense is original


def test_traced_dense_solve_is_counted():
    grid = SpectralGrid(1, 4)
    w = _nf_state(grid).w.coeffs
    z = np.conj(w[grid.neg_index])
    rhs = (np.ones(grid.n_modes, complex), np.zeros(grid.n_modes, complex))
    plain = coupling.solve_jacobian_arrays(grid, w, z, rhs, "dense")
    tracer = Tracer()
    with tracer:
        traced = coupling.solve_jacobian_arrays(grid, w, z, rhs, "dense")
    assert np.array_equal(plain[0], traced[0]) and np.array_equal(plain[1], traced[1])
    m = layer_metrics(tracer.spans())
    assert m["coupling.dense.calls"] == 1
    assert m["coupling.dense.ms"] > 0.0
    # 2n basis columns plus the residual check
    assert m["coupling.jac.calls"] == 2 * grid.n_modes + 1


def test_tracer_fails_loudly_on_a_missing_name():
    missing = Target("x", "kirchhoff_spectral.coupling", "no_such_function")
    with pytest.raises(TraceError):
        with Tracer(spans.TARGETS + (missing,)):
            pass
    assert not getattr(coupling.solve_jacobian_arrays, "__wrapped_by_tracer__", False)


def test_traced_normal_form_rhs_counts_its_solves():
    grid = SpectralGrid(1, 4)
    state = _nf_state(grid)
    plain = normal_form.normal_form_rhs(state).total[0].coeffs
    tracer = Tracer()
    with tracer:
        traced = normal_form.normal_form_rhs(state).total[0].coeffs
    assert np.array_equal(plain, traced)
    m = layer_metrics(tracer.spans())
    assert m["coupling.solve.calls"] == 2
    assert m["coupling.solve.per_rhs"] == 2.0
    assert m["coupling.jac.calls"] >= 2 * 2  # a Neumann term and a residual check each
    assert m["normal_form.self_us"] > 0.0


def test_traced_failure_is_counted():
    grid = SpectralGrid(1, 4)
    big = ConjugatePair(random_field(grid, 5, 0.4, grid.m0, "free"))
    tracer = Tracer()
    with tracer:
        with pytest.raises(DomainError):
            transforms.change_of_variables("fwd", big)
    m = layer_metrics(tracer.spans())
    assert m["transforms.cov.calls"] == 1
    assert m["transforms.cov.failed"] == 1


# -- the benchmark definition -----------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert layers == [row[:3] for row in spans.PER_LAYER]
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here and matches the registered property
suites where those are reused. The full module is part of the default test
run (no skips). The lifespan sweep is budgeted at thirty minutes and
measured far below it; since it integrates with DOP853 it is no longer the
heaviest criterion.
"""

import time

import numpy as np
import pytest

from kirchhoff_spectral import ComplexField, ConjugatePair, RealPair, SpectralGrid, random_field
from kirchhoff_spectral.cli import (
    CONJUGACY_BOUND,
    CONJUGACY_DEFAULTS,
    SWEEP_DEFAULTS,
    cmd_sweep,
    conjugacy_defect,
    conjugacy_verdict,
)
from kirchhoff_spectral.dynamics import KirchhoffDynamics
from kirchhoff_spectral.integrate import IntegratorConfig, integrate
from kirchhoff_spectral.kirchhoff import hamiltonian, momenta, random_state
from kirchhoff_spectral.suites import (
    SuiteConfig,
    measure_quartic_constant,
    run_suites,
)
from oracles import single_mode_oracle

GRIDS = ((1, 4), (1, 8), (2, 4), (2, 8))


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_exact_identities():
    t0 = time.time()
    cfg = SuiteConfig(grids=GRIDS, samples=200)
    results = {
        r.suite: r
        for r in run_suites(
            cfg,
            [
                "operator-identities",
                "homological-identity",
                "cubic-energy-cancellation",
                "rank-one-inverse",
            ],
        )
    }
    elapsed = time.time() - t0
    worst_exact = max(
        results["operator-identities"].max_defect,
        results["homological-identity"].max_defect,
        results["cubic-energy-cancellation"].max_defect,
        results["rank-one-inverse"].details["closed_form_residual"],
    )
    dense_defect = results["rank-one-inverse"].details["dense"]
    ok = (
        all(r.passed for r in results.values())
        and worst_exact <= 1e-12
        and dense_defect <= 1e-10
        and elapsed <= 120.0
    )
    _report(
        1,
        "exact identities",
        ok,
        f"max_exact_defect={worst_exact:.3e} (<=1e-12), "
        f"dense_solve_defect={dense_defect:.3e} (<=1e-10), runtime={elapsed:.1f}s (<=120s)",
    )


def test_criterion_2_inequalities():
    cfg = SuiteConfig(grids=GRIDS, samples=200)
    results = {
        r.suite: r
        for r in run_suites(
            cfg, ["coupling-bounds", "mix-jac-bounds", "decomposition", "small-divisor"]
        )
    }
    violations = results["small-divisor"].max_defect
    worst_ratio_excess = max(
        results["coupling-bounds"].max_defect,
        results["mix-jac-bounds"].max_defect,
        results["decomposition"].max_defect,
    )
    ok = all(r.passed for r in results.values()) and violations == 0.0
    _report(
        2,
        "inequality bounds",
        ok,
        f"worst_ratio_excess={worst_ratio_excess:.3e}, "
        f"small_divisor_violations={int(violations)} over "
        f"{results['small-divisor'].samples} class pairs (|j|,|k|<=50, d=2,3)",
    )


def test_criterion_3_round_trips():
    cfg = SuiteConfig(grids=GRIDS, samples=200)
    (r,) = run_suites(cfg, ["stage-round-trips"])
    d = r.details
    ok = (
        r.passed
        and d["linear"] <= 1e-15
        and d["diag"] <= 1e-12
        and d["cubic"] <= 1e-12
        and d["full"] <= 1e-11
        and d["inverse_ball_bound_defect"] <= 1e-12
    )
    _report(
        3,
        "round trips",
        ok,
        f"linear={d['linear']:.2e} (<=1e-15), diag={d['diag']:.2e} (<=1e-12), "
        f"cubic={d['cubic']:.2e} (<=1e-12), full={d['full']:.2e} (<=1e-11), "
        f"inverse-ball bound excess={d['inverse_ball_bound_defect']:.2e}",
    )


def test_criterion_4_field_agreement():
    cfg = SuiteConfig(grids=GRIDS, samples=100)
    (r,) = run_suites(cfg, ["normal-form-agreement"])
    ok = r.passed and r.max_defect <= 1e-10
    _report(
        4,
        "direct vs structured field",
        ok,
        f"max_rel_disagreement={r.max_defect:.3e} (<=1e-10, {r.samples} states)",
    )


def test_criterion_5_conservation():
    t0 = time.time()
    grid = SpectralGrid(1, 8)
    state0 = random_state(grid, 42, 0.1)
    h0 = hamiltonian(state0)
    m0 = momenta(state0)
    monitors = {
        "dh": lambda t, st: abs(hamiltonian(st) - h0) / max(1.0, abs(h0)),
        "dm": lambda t, st: float(np.max(np.abs(momenta(st) - m0))),
    }
    cfg = IntegratorConfig(
        scheme="dop853", rel_tol=1e-12, abs_tol=1e-14, t_end=100.0, store_states=False,
    )
    # 101 fixed times read from the dense output, independent of the step pattern
    rec = integrate(
        KirchhoffDynamics(grid), state0, cfg, monitors=monitors, t_eval=np.linspace(0, 100, 101)
    )
    elapsed = time.time() - t0
    dh = float(rec.channels["dh"].max())
    dm = float(rec.channels["dm"].max())
    ok = (
        rec.exit_reason == "completed"
        and len(rec.times) == 101
        and dh <= 1e-9
        and dm <= 1e-9
        and elapsed <= 60.0
    )
    _report(
        5,
        "conservation",
        ok,
        f"ham_drift_rel={dh:.3e} (<=1e-9), momentum_drift_max={dm:.3e} (<=1e-9), "
        f"T=100, samples={len(rec.times)} (101), runtime={elapsed:.1f}s (<=60s)",
    )


def test_criterion_6_scalar_oracle():
    grid = SpectralGrid(1, 8)
    j, x0, v0 = 3, 0.08 + 0.03j, 0.05 - 0.02j
    cu = np.zeros(grid.n_modes, dtype=np.complex128)
    cv = np.zeros(grid.n_modes, dtype=np.complex128)
    cu[grid.slot(j)] = x0
    cu[grid.slot(-j)] = np.conj(x0)
    cv[grid.slot(j)] = v0
    cv[grid.slot(-j)] = np.conj(v0)
    state0 = RealPair(ComplexField(grid, cu), ComplexField(grid, cv))
    ts = np.linspace(0.0, 10.0, 81)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=10.0)
    rec = integrate(KirchhoffDynamics(grid), state0, cfg, t_eval=ts)
    x_ref, v_ref = single_mode_oracle(j * j, x0, v0, ts)
    sl = grid.slot(j)
    err = max(
        max(abs(st.u.coeffs[sl] - x_ref[i]) for i, st in enumerate(rec.states)),
        max(abs(st.v.coeffs[sl] - v_ref[i]) for i, st in enumerate(rec.states)),
    )
    ok = rec.exit_reason == "completed" and err <= 1e-9
    _report(6, "independent scalar oracle", ok, f"max_state_error={err:.3e} (<=1e-9 at T=10)")


def test_criterion_7_conjugacy():
    grid = SpectralGrid(1, 8)
    w0 = ConjugatePair(
        random_field(grid, CONJUGACY_DEFAULTS["seed"], 0.05, grid.m0, "free")
    )
    defects = []
    for lvl in range(3):
        tol = 4e-12 / (2.0 ** lvl)
        res = conjugacy_defect(grid, w0, t_end=5.0, n_samples=20, rel_tol=tol)
        assert res["status"] == "ok", f"inconclusive at tol={tol}"
        defects.append(res["defect"])
    monotone, final_ok = conjugacy_verdict(defects)
    _report(
        7,
        "flow conjugacy",
        monotone and final_ok,
        f"defects={['%.3e' % d for d in defects]} "
        f"(final <={CONJUGACY_BOUND:g}, monotone under halving)",
    )


def test_criterion_8_energy_estimate():
    grid = SpectralGrid(1, 8)
    measurements = [
        measure_quartic_constant(grid, eps, seed=2001, t_end=20.0)
        for eps in (0.05, 0.1, 0.2)
    ]
    c_values = [m["c_star_m0"] for m in measurements]
    ok_finite = all(np.isfinite(c) and c > 0 for c in c_values)
    # +-50% around the midpoint of the observed range <=> max/min <= 3
    spread = max(c_values) / min(c_values)
    ok = ok_finite and spread <= 3.0 and all(m["exit_reason"] == "completed" for m in measurements)
    detail = ", ".join(
        f"eps={m['eps']:g}: C*={m['c_star_m0']:.4f}" for m in measurements
    )
    _report(
        8,
        "quartic energy estimate",
        ok,
        f"{detail}; max/min={spread:.3f} (<=3, i.e. +-50% around midpoint)",
    )


def test_criterion_9_lifespan_sweep(tmp_path):
    t0 = time.time()
    cfg = dict(SWEEP_DEFAULTS)
    cfg.update(
        {
            "eps_list": [0.2, 0.14, 0.1, 0.07, 0.05],
            "t_cap": 1e9,  # above every target time: no row is cap-censored
            "c1_op": 0.1,
            "workers": 2,
            "out": str(tmp_path),
            "measure_constants": False,
        }
    )
    code = cmd_sweep(cfg)
    elapsed = time.time() - t0
    import json
    import os

    with open(os.path.join(str(tmp_path), "sweep_report.json")) as fh:
        rep = json.load(fh)
    rows = rep["rows"]
    m0 = 1.0
    per_row_ok = []
    for r in rows:
        reached = r["status"] == "reached-target"
        bounded = all(r[f"pass_2x_s{m0 + off:g}"] for off in (0.0, 1.0, 2.0))
        per_row_ok.append(reached and bounded)
    ok = code == 0 and all(per_row_ok) and elapsed <= 1800.0
    detail = "; ".join(
        f"eps={r['eps']:g}: T={r['t_target']:g} ratio_m0={r['ratio_s1']:.6f}"
        for r in rows
    )
    _report(
        9,
        "lifespan surrogate",
        ok,
        f"{detail}; norm bound <=2x holds at s=m0, m0+1, m0+2; "
        f"runtime={elapsed:.0f}s (<=1800s)",
    )

import numpy as np
import pytest

from kirchhoff_spectral import ComplexField, ConjugatePair, RealPair, random_field
from kirchhoff_spectral.dynamics import (
    DiagonalizedDynamics,
    KirchhoffDynamics,
    NormalFormDynamics,
    make_dynamics,
)
from kirchhoff_spectral.integrate import IntegratorConfig, integrate
from kirchhoff_spectral.kirchhoff import hamiltonian, momenta, random_state
from kirchhoff_spectral.normal_form import (
    diagonalized_rhs_arrays,
    energy_derivative_arrays,
    normal_form_rhs_arrays,
)
from oracles import single_mode_oracle


def _single_mode_state(grid, j, x0, v0):
    cu = np.zeros(grid.n_modes, dtype=np.complex128)
    cv = np.zeros(grid.n_modes, dtype=np.complex128)
    cu[grid.slot(j)] = x0
    cu[grid.slot(-j)] = np.conj(x0)
    cv[grid.slot(j)] = v0
    cv[grid.slot(-j)] = np.conj(v0)
    return RealPair(ComplexField(grid, cu), ComplexField(grid, cv))


def test_pack_unpack_round_trip(grid1):
    dyn = KirchhoffDynamics(grid1)
    state = random_state(grid1, 1, 0.3)
    back = dyn.unpack(dyn.pack(state))
    assert np.array_equal(back.u.coeffs, state.u.coeffs)
    assert np.array_equal(back.v.coeffs, state.v.coeffs)


def test_ball_value_is_the_physical_pair_norm(grid1, grid2):
    for grid in (grid1, grid2):
        dyn = KirchhoffDynamics(grid)
        state = random_state(grid, 7, 0.3)
        assert dyn.ball_value(dyn.pack(state)) == state.norm(grid.m0)


def test_conjugate_dynamics_rhs_consistency(grid1):
    w = random_field(grid1, 3, 0.2, 1.0, "free")
    y = w.coeffs
    z = np.conj(y[grid1.neg_index])
    diag = DiagonalizedDynamics(grid1)
    assert np.array_equal(diag.rhs(0.0, y), diagonalized_rhs_arrays(grid1, y, z)[0])
    nf = NormalFormDynamics(grid1)
    assert np.array_equal(nf.rhs(0.0, y), normal_form_rhs_arrays(grid1, y, z)[0])


def test_make_dynamics(grid1):
    assert make_dynamics("original", grid1).name == "original"
    assert make_dynamics("normal_form", grid1).name == "normal_form"
    with pytest.raises(ValueError):
        make_dynamics("spectral", grid1)


def test_single_mode_matches_independent_oracle(grid1):
    """Trajectory of one conjugate mode pair against a scipy DOP853 integration
    of the reduced scalar oscillator (fully independent code path)."""
    j, x0, v0 = 2, 0.12 + 0.05j, -0.03 + 0.08j
    state0 = _single_mode_state(grid1, j, x0, v0)
    ts = np.linspace(0.0, 10.0, 41)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=10.0)
    rec = integrate(KirchhoffDynamics(grid1), state0, cfg, t_eval=ts)
    assert rec.exit_reason == "completed"
    x_ref, v_ref = single_mode_oracle(j * j, x0, v0, ts)
    sl = grid1.slot(j)
    err = 0.0
    for i, st in enumerate(rec.states):
        err = max(err, abs(st.u.coeffs[sl] - x_ref[i]), abs(st.v.coeffs[sl] - v_ref[i]))
    assert err <= 1e-9


def test_hamiltonian_and_momenta_conserved_short(grid1):
    state0 = random_state(grid1, 4, 0.2)
    h0 = hamiltonian(state0)
    m0 = momenta(state0)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, t_end=5.0)
    mon = {
        "dh": lambda t, st: abs(hamiltonian(st) - h0) / max(1.0, abs(h0)),
        "dm": lambda t, st: float(np.max(np.abs(momenta(st) - m0))),
    }
    ts = np.linspace(0.0, 5.0, 51)
    rec = integrate(KirchhoffDynamics(grid1), state0, cfg, monitors=mon, t_eval=ts)
    assert rec.channels["dh"].max() <= 1e-10
    assert rec.channels["dm"].max() <= 1e-10


def test_complexified_field_real_structure_and_physical_equivalence(grid1):
    from kirchhoff_spectral.fields import conjugate_defect
    from oracles import complexified_rhs_arrays
    from kirchhoff_spectral.transforms import complex_stage, scale_stage

    pair = ConjugatePair(random_field(grid1, 6, 0.3, 1.0, "free"))
    arrays = complexified_rhs_arrays(grid1, pair.w.coeffs, pair.z.coeffs)
    f1, f2 = (ComplexField(grid1, c) for c in arrays)
    assert conjugate_defect(f1, f2) <= 1e-14
    # the same dynamics as the physical system: push (f,g) to (u,v), apply the
    # physical field, pull the tangent back, compare
    uv = scale_stage("fwd", complex_stage("fwd", (pair.w, pair.z)))
    state = RealPair(*uv, check_tol=1e-8)
    dyn = KirchhoffDynamics(grid1)
    out = dyn.unpack(dyn.rhs(0.0, dyn.pack(state)))
    back = complex_stage("inv", scale_stage("inv", (out.u, out.v)))
    assert np.max(np.abs(back[0].coeffs - f1.coeffs)) <= 1e-13


def test_partial_composition_conjugates_the_flows(grid1):
    """Integrating the complexified system and pulling samples through the
    diag+cubic inverse matches the normal-form trajectory (the two stages in
    between the physical system and the normal form, checked in isolation)."""
    from oracles import ComplexifiedDynamics
    from kirchhoff_spectral.transforms import cubic_stage, diag_stage

    f0 = ConjugatePair(random_field(grid1, 7, 0.05, grid1.m0, "free"))
    w0_field = cubic_stage("inv", diag_stage("inv", (f0.w, f0.z)))[0]
    w0 = ConjugatePair(w0_field)
    ts = np.linspace(0.0, 2.0, 9)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=2.0)
    rec_f = integrate(ComplexifiedDynamics(grid1), f0, cfg, t_eval=ts)
    rec_w = integrate(NormalFormDynamics(grid1), w0, cfg, t_eval=ts)
    assert rec_f.exit_reason == "completed" and rec_w.exit_reason == "completed"
    defect = 0.0
    for st_f, st_w in zip(rec_f.states, rec_w.states):
        pulled = cubic_stage("inv", diag_stage("inv", (st_f.w, st_f.z)))[0]
        defect = max(defect, grid1.coeff_norm(pulled.coeffs - st_w.w.coeffs, grid1.m0))
    assert defect <= 1e-9


def test_refinement_invariance_for_embedded_data(grid1_small, grid1):
    """Data supported in a coarser grid evolves identically under a finer
    cutoff: all fields are diagonal per mode, so the extra modes stay zero and
    the common modes see the same dynamics (refinement is exact here)."""
    from kirchhoff_spectral import SpectralGrid
    from oracles import embed_field

    grid12 = SpectralGrid(1, 12)
    small = random_state(grid1_small, 1, 0.2)
    cfg = IntegratorConfig(scheme="saba2", dt=0.01, t_end=2.0)
    rec4 = integrate(KirchhoffDynamics(grid1_small), small, cfg)
    results = {}
    for g in (grid1, grid12):
        state = RealPair(embed_field(small.u, g), embed_field(small.v, g))
        rec = integrate(KirchhoffDynamics(g), state, cfg)
        final = rec.states[-1]
        # new modes stayed exactly zero
        supported = {tuple(m) for m in grid1_small.modes.tolist()}
        for i in range(g.n_modes):
            if tuple(g.modes[i]) not in supported:
                assert final.u.coeffs[i] == 0.0 and final.v.coeffs[i] == 0.0
        results[g.n_cutoff] = final
    ref = rec4.states[-1]
    for n, final in results.items():
        for j in (1, -2, 4):
            sl = final.grid.slot(j)
            sl4 = grid1_small.slot(j)
            assert abs(final.u.coeffs[sl] - ref.u.coeffs[sl4]) <= 1e-12
            assert abs(final.v.coeffs[sl] - ref.v.coeffs[sl4]) <= 1e-12


def test_energy_derivative_matches_finite_differences(grid1):
    """d/dt ||w||_s^2 computed spectrally agrees with centered differences of
    the norm along an integrated normal-form trajectory to O(dt^2)."""
    s = grid1.m0
    dyn = NormalFormDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 5, 0.3, grid1.m0, "free"))
    h = 0.005
    ts = np.arange(0.0, 0.5 + h / 2, h)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=float(ts[-1]))
    rec = integrate(dyn, w0, cfg, t_eval=ts)
    norms2 = np.array([st.w.norm(s) ** 2 for st in rec.states])
    eds = np.array(
        [
            energy_derivative_arrays(
                grid1, st.w.coeffs, dyn.rhs(0.0, st.w.coeffs), s
            )
            for st in rec.states
        ]
    )
    fd = (norms2[2:] - norms2[:-2]) / (2 * h)
    mid = eds[1:-1]
    scale = max(np.max(np.abs(mid)), 1e-16)
    assert np.max(np.abs(fd - mid)) <= 0.02 * scale

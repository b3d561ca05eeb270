import numpy as np
import pytest

from kirchhoff_spectral import ComplexField, ConjugatePair, RealPair, random_field
from kirchhoff_spectral.dynamics import (
    DiagonalizedDynamics,
    KirchhoffDynamics,
    NormalFormDynamics,
    make_dynamics,
    reversibility_defect,
)
from kirchhoff_spectral.fields import halves
from kirchhoff_spectral.integrate import IntegratorConfig, integrate
from kirchhoff_spectral.kirchhoff import hamiltonian, momenta, random_state, random_states
from kirchhoff_spectral.normal_form import (
    diagonalized_rhs_arrays,
    energy_derivative_arrays,
    normal_form_rhs_arrays,
)
from oracles import STACKED_DEFECT_ROUNDING, single_mode_oracle


def _single_mode_state(grid, j, x0, v0):
    cu = np.zeros(grid.n_modes, dtype=np.complex128)
    cv = np.zeros(grid.n_modes, dtype=np.complex128)
    cu[grid.slot(j)] = x0
    cu[grid.slot(-j)] = np.conj(x0)
    cv[grid.slot(j)] = v0
    cv[grid.slot(-j)] = np.conj(v0)
    return RealPair(ComplexField(grid, cu), ComplexField(grid, cv))


def test_pack_is_the_doubled_vector_or_w(grid1):
    # a run's samples, which the monitors read, are in this layout
    n = grid1.n_modes
    state = random_state(grid1, 1, 0.3)
    y = KirchhoffDynamics(grid1).pack(state)
    assert np.array_equal(y[:n], state.u.coeffs)
    assert np.array_equal(y[n:], state.v.coeffs)
    pair = ConjugatePair(random_field(grid1, 2, 0.3, 1.0, "free"))
    for dynamics in (DiagonalizedDynamics, NormalFormDynamics):
        assert np.array_equal(dynamics(grid1).pack(pair), pair.w.coeffs)


def test_ball_value_is_the_physical_pair_norm(grid1, grid2):
    for grid in (grid1, grid2):
        dyn = KirchhoffDynamics(grid)
        state = random_state(grid, 7, 0.3)
        assert dyn.ball_value(dyn.pack(state)) == state.norm(grid.m0)


def test_conjugate_dynamics_rhs_consistency(grid1):
    pair = ConjugatePair(random_field(grid1, 3, 0.2, 1.0, "free"))
    y, x, n = pair.w.coeffs, pair.doubled, grid1.n_modes
    diag = DiagonalizedDynamics(grid1)
    assert np.array_equal(diag.rhs(0.0, y), diagonalized_rhs_arrays(grid1, x)[:n])
    nf = NormalFormDynamics(grid1)
    assert np.array_equal(nf.rhs(0.0, y), normal_form_rhs_arrays(grid1, x)[:n])


def test_the_physical_field_takes_a_stack(grid2):
    # each column is that state's field, to the rounding of a stack's sums,
    # and the reversibility defect is the field's, per column
    x = np.concatenate(random_states(grid2, range(5), 0.3))
    dyn = KirchhoffDynamics(grid2)
    out = dyn.rhs(0.0, x)
    for k in range(5):
        one = dyn.rhs(0.0, np.ascontiguousarray(x[:, k]))
        assert np.max(np.abs(out[:, k] - one)) <= STACKED_DEFECT_ROUNDING * np.max(np.abs(one))
    defects = reversibility_defect(grid2, x)
    assert defects.shape == (5,) and np.all(defects <= 1e-14)


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
    err = max(np.max(np.abs(rec.samples[sl] - x_ref)),
              np.max(np.abs(rec.samples[grid1.n_modes + sl] - v_ref)))
    assert err <= 1e-9


def test_hamiltonian_and_momenta_conserved_short(grid1):
    state0 = random_state(grid1, 4, 0.2)
    h0 = hamiltonian(grid1, state0.doubled)
    m0 = momenta(grid1, state0.doubled)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, t_end=5.0)
    mon = {
        "dh": lambda t, y: abs(hamiltonian(grid1, y) - h0) / max(1.0, abs(h0)),
        "dm": lambda t, y: float(np.max(np.abs(momenta(grid1, y) - m0))),
    }
    ts = np.linspace(0.0, 5.0, 51)
    rec = integrate(KirchhoffDynamics(grid1), state0, cfg, monitors=mon, t_eval=ts)
    assert rec.channels["dh"].max() <= 1e-10
    assert rec.channels["dm"].max() <= 1e-10


def test_complexified_field_real_structure_and_physical_equivalence(grid1):
    from kirchhoff_spectral.fields import conjugate_defect
    from oracles import complexified_rhs_arrays
    from kirchhoff_spectral.transforms import complex_stage, scale_stage

    g, n = grid1, grid1.n_modes
    pair = ConjugatePair(random_field(g, 6, 0.3, 1.0, "free"))
    field = complexified_rhs_arrays(g, pair.doubled)
    assert conjugate_defect(g, field) <= 1e-14
    # the same dynamics as the physical system: push (f,g) to (u,v), apply the
    # physical field, pull the tangent back, compare
    uv = scale_stage("fwd", g, complex_stage("fwd", g, pair.doubled))
    dyn = KirchhoffDynamics(g)
    assert dyn.project(uv)[1] <= 1e-8 * max(1.0, np.max(np.abs(uv)))  # a physical state
    back = complex_stage("inv", g, scale_stage("inv", g, dyn.rhs(0.0, uv)))
    assert np.max(np.abs(back[:n] - field[:n])) <= 1e-13


def test_partial_composition_conjugates_the_flows(grid1):
    """Integrating the complexified system and pulling samples through the
    diag+cubic inverse matches the normal-form trajectory (the two stages in
    between the physical system and the normal form, checked in isolation)."""
    from oracles import ComplexifiedDynamics
    from kirchhoff_spectral.transforms import cubic_stage, diag_stage

    def pulled_back(f: ConjugatePair) -> np.ndarray:
        return cubic_stage("inv", grid1, diag_stage("inv", grid1, f.doubled))[: grid1.n_modes]

    f0 = ConjugatePair(random_field(grid1, 7, 0.05, grid1.m0, "free"))
    w0 = ConjugatePair(ComplexField(grid1, pulled_back(f0)))
    ts = np.linspace(0.0, 2.0, 9)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=2.0)
    rec_f = integrate(ComplexifiedDynamics(grid1), f0, cfg, t_eval=ts)
    rec_w = integrate(NormalFormDynamics(grid1), w0, cfg, t_eval=ts)
    assert rec_f.exit_reason == "completed" and rec_w.exit_reason == "completed"
    defect = 0.0
    for f, w in zip(rec_f.samples.T, rec_w.samples.T):
        f = ConjugatePair(ComplexField(grid1, f))
        defect = max(defect, grid1.coeff_norm(pulled_back(f) - w, grid1.m0))
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
        u, v = halves(rec.samples[:, -1])
        # new modes stayed exactly zero
        supported = {tuple(m) for m in grid1_small.modes.tolist()}
        for i in range(g.n_modes):
            if tuple(g.modes[i]) not in supported:
                assert u[i] == 0.0 and v[i] == 0.0
        results[g.n_cutoff] = g, u, v
    ref_u, ref_v = halves(rec4.samples[:, -1])
    for g, u, v in results.values():
        for j in (1, -2, 4):
            sl = g.slot(j)
            sl4 = grid1_small.slot(j)
            assert abs(u[sl] - ref_u[sl4]) <= 1e-12
            assert abs(v[sl] - ref_v[sl4]) <= 1e-12


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
    norms2 = grid1.coeff_norm(rec.samples, s) ** 2
    eds = np.array(
        [energy_derivative_arrays(grid1, w, dyn.rhs(0.0, w), s) for w in rec.samples.T]
    )
    fd = (norms2[2:] - norms2[:-2]) / (2 * h)
    mid = eds[1:-1]
    scale = max(np.max(np.abs(mid)), 1e-16)
    assert np.max(np.abs(fd - mid)) <= 0.02 * scale


@pytest.mark.parametrize("dynamics", [NormalFormDynamics, DiagonalizedDynamics])
def test_declared_rates_are_the_linearization_at_zero(grid1, dynamics):
    # rhs(delta e_j) / delta -> L_j e_j: the rest of the field is cubic and
    # higher, so the gap falls as delta^2
    dyn = dynamics(grid1)
    assert np.array_equal(dyn.rates, -1j * grid1.absj)
    for delta in (1e-4, 1e-5):
        for j in range(grid1.n_modes):
            e = np.zeros(grid1.n_modes, dtype=np.complex128)
            e[j] = 1.0
            gap = dyn.rhs(0.0, delta * e) / delta - dyn.rates * e
            assert np.max(np.abs(gap)) <= 100 * delta**2


def test_only_the_rotating_systems_declare_rates(grid1):
    # every other evaluator is stepped by the plain tableau
    assert not hasattr(KirchhoffDynamics(grid1), "rates")

import numpy as np
import pytest

from kirchhoff_spectral import ComplexField, NumericalError, ParameterError, RealPair
from kirchhoff_spectral.dynamics import KirchhoffDynamics, reversibility_defect
from kirchhoff_spectral.kirchhoff import (
    hamiltonian,
    momenta,
    random_state,
    random_states,
)
from oracles import reference_random_field, same_bits, total_momentum


def _field(state):
    """(du, dv) of the physical field, the one flows integrate."""
    dyn = KirchhoffDynamics(state.grid)
    out = dyn.rhs(0.0, dyn.pack(state))
    n = state.grid.n_modes
    return out[:n], out[n:]


def _wave_speed(state, dv):
    """a in dv_j = -a |j|^2 u_j, read off the field at every mode where u_j != 0;
    the field is diagonal, so all of them must give the same a."""
    c = state.u.coeffs
    live = c != 0.0
    a = -dv[live] / (state.grid.j2f[live] * c[live])
    assert np.allclose(a, a[0].real, rtol=1e-14, atol=0.0)
    return a[0].real


def _two_mode_state(grid, amp=0.5):
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    c[grid.slot(1)] = amp
    c[grid.slot(-1)] = amp
    u = ComplexField(grid, c)
    return RealPair(u, ComplexField.zero(grid))


def test_rhs_zero_state(grid1):
    z = RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1))
    du, dv = _field(z)
    assert np.all(du == 0.0)
    assert np.all(dv == 0.0)


def test_rhs_hand_example(grid1):
    state = _two_mode_state(grid1)
    du, dv = _field(state)
    assert _wave_speed(state, dv) == pytest.approx(1.5, rel=1e-15)
    assert dv[grid1.slot(1)] == pytest.approx(-0.75, rel=1e-15)
    assert np.array_equal(du, state.v.coeffs)


def test_rhs_wave_speed_at_least_one(grid1):
    for seed in range(5):
        st = random_state(grid1, seed, 0.4)
        assert _wave_speed(st, _field(st)[1]) >= 1.0


def test_fourier_support_invariance(grid1):
    # modes that start exactly zero produce exactly zero right-hand side entries
    c = np.zeros(grid1.n_modes, dtype=np.complex128)
    for j in (1, -1, 4, -4):
        c[grid1.slot(j)] = 0.3
    state = RealPair(ComplexField(grid1, c), ComplexField.zero(grid1))
    du, dv = _field(state)
    untouched = [i for i in range(grid1.n_modes) if c[i] == 0.0]
    assert np.all(dv[untouched] == 0.0)
    assert np.all(du[untouched] == 0.0)


def test_parity_invariance(grid1):
    # even real state: u_{-j} = u_j with real coefficients
    rng = np.random.default_rng(0)
    c = np.zeros(grid1.n_modes, dtype=np.complex128)
    for j in range(1, 9):
        val = rng.standard_normal()
        c[grid1.slot(j)] = val
        c[grid1.slot(-j)] = val
    state = RealPair(ComplexField(grid1, c), ComplexField.zero(grid1))
    dv = _field(state)[1]
    for j in range(1, 9):
        assert dv[grid1.slot(j)] == dv[grid1.slot(-j)]


def test_hamiltonian_examples(grid1):
    z = RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1))
    assert hamiltonian(grid1, z.doubled) == 0.0
    assert hamiltonian(grid1, _two_mode_state(grid1).doubled) == pytest.approx(0.3125, rel=1e-14)


def test_hamiltonian_reflection_invariance(grid1):
    state = random_state(grid1, 5, 0.4)
    # u(-x): coefficient at j becomes the coefficient at -j
    refl = RealPair(
        ComplexField(grid1, state.u.coeffs[grid1.neg_index]),
        ComplexField(grid1, state.v.coeffs[grid1.neg_index]),
    )
    h = hamiltonian(grid1, state.doubled)
    assert hamiltonian(grid1, refl.doubled) == pytest.approx(h, rel=1e-14)


def test_momentum_examples(grid1):
    zero = RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1))
    assert np.array_equal(momenta(grid1, zero.doubled), np.zeros((grid1.n_modes, 1)))
    at_rest = _two_mode_state(grid1)  # v = 0
    assert np.array_equal(momenta(grid1, at_rest.doubled), np.zeros((grid1.n_modes, 1)))
    c_u = np.zeros(grid1.n_modes, dtype=np.complex128)
    c_v = np.zeros(grid1.n_modes, dtype=np.complex128)
    c_u[grid1.slot(1)] = 0.1
    c_u[grid1.slot(-1)] = 0.1
    c_v[grid1.slot(1)] = 0.2j
    c_v[grid1.slot(-1)] = -0.2j
    st = RealPair(ComplexField(grid1, c_u), ComplexField(grid1, c_v))
    table = momenta(grid1, st.doubled)
    assert table.shape == (grid1.n_modes, 1)
    assert table[grid1.slot(1)][0] == pytest.approx(0.02, rel=1e-14)
    assert np.array_equal(table[grid1.slot(1)], table[grid1.slot(-1)])


def test_momenta_are_even_in_j(grid1, grid2):
    for g, seed in ((grid1, 4), (grid2, 5)):
        table = momenta(g, random_state(g, seed, 0.5).doubled)
        assert np.any(table != 0.0) and np.array_equal(table, table[g.neg_index])


def test_momenta_of_a_stack_are_each_columns(grid2):
    u, v = random_states(grid2, [1, 2, 3], 0.4)
    x = np.concatenate((u, v))
    table = momenta(grid2, x)
    assert table.shape == (grid2.n_modes, 2, 3)
    for k in range(3):
        assert same_bits(table[..., k], momenta(grid2, x[:, k]))


def test_momenta_refuse_a_corrupted_symmetry(grid1):
    # the complex form (i j / 2)(u_j v_{-j} - u_{-j} v_j) equals the real form
    # only on Hermitian-symmetric states; v_{-1} != conj(v_1) here
    u = np.zeros(grid1.n_modes, dtype=np.complex128)
    v = np.zeros(grid1.n_modes, dtype=np.complex128)
    u[grid1.slot(1)] = u[grid1.slot(-1)] = 0.1
    v[grid1.slot(1)], v[grid1.slot(-1)] = 0.2j, 0.3j
    bent = np.concatenate((u, v))
    with pytest.raises(NumericalError, match="symmetry"):
        momenta(grid1, bent)
    # one corrupted column of a stack is enough
    good = random_state(grid1, 6, 0.3).doubled
    momenta(grid1, np.stack([good, good], axis=1))
    with pytest.raises(NumericalError, match="symmetry"):
        momenta(grid1, np.stack([good, bent], axis=1))


def test_momentum_errors(grid1):
    # a tracked mode is looked up by grid.slot, which refuses a mode off the
    # grid or of the wrong dimension (simulate checks track_modes before its run)
    for mode in (0, 99, (1, 1)):
        with pytest.raises(ParameterError):
            grid1.slot(mode)


def test_momentum_sum_matches_gradient_pairing(grid1, grid2):
    # sum of the per-mode momenta equals the integral of (du/dt) grad u,
    # computed independently from the gradient pairing
    for g, seed in ((grid1, 1), (grid2, 2)):
        state = random_state(g, seed, 0.6)
        total = momenta(g, state.doubled).sum(axis=0)
        oracle = total_momentum(state)
        assert np.max(np.abs(total - oracle)) <= 1e-13 * max(1.0, np.max(np.abs(oracle)))


def test_reversibility(grid1):
    z = RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1))
    assert reversibility_defect(grid1, z.doubled) == 0.0
    state = random_state(grid1, 7, 0.5)
    assert reversibility_defect(grid1, state.doubled) <= 1e-14
    rest = RealPair(state.u, ComplexField.zero(grid1))
    assert reversibility_defect(grid1, rest.doubled) == 0.0


def test_random_state_norm_split(grid2):
    st = random_state(grid2, 11, 0.2)
    m0 = grid2.m0
    assert st.norm(m0) == pytest.approx(0.2, rel=1e-12)
    assert st.norm(m0) == st.u.norm(m0 + 0.5) + st.v.norm(m0 - 0.5)


def test_random_states_draw_u_and_v_from_the_seed_extended_by_0_and_1(grid2):
    # each column is random_state of its seed, and both are the Hermitian
    # fields default_rng draws from seed + [0] and seed + [1], bit for bit
    seeds, eps, m0 = [11, [20260808, 4, 1, 3], (5, 6)], 0.3, grid2.m0
    u, v = random_states(grid2, seeds, eps)
    assert u.shape == v.shape == (grid2.n_modes, len(seeds))
    for k, seed in enumerate(seeds):
        base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
        assert same_bits(u[:, k], reference_random_field(grid2, base + [0], eps / 2, m0 + 0.5, "hermitian"))
        assert same_bits(v[:, k], reference_random_field(grid2, base + [1], eps / 2, m0 - 0.5, "hermitian"))
        state = random_state(grid2, seed, eps)
        assert same_bits(state.u.coeffs, u[:, k]) and same_bits(state.v.coeffs, v[:, k])
    with pytest.raises(ParameterError):
        random_states(grid2, seeds, -0.1)

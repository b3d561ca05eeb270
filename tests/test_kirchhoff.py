import numpy as np
import pytest

from kirchhoff_spectral import ComplexField, ParameterError, RealPair
from kirchhoff_spectral.kirchhoff import (
    hamiltonian,
    involution,
    kirchhoff_rhs,
    mode_momentum,
    momenta,
    random_state,
    reversibility_defect,
)
from oracles import total_momentum


def _two_mode_state(grid, amp=0.5):
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    c[grid.slot(1)] = amp
    c[grid.slot(-1)] = amp
    u = ComplexField(grid, c)
    return RealPair(u, ComplexField.zero(grid))


def test_rhs_zero_state(grid1):
    z = RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1))
    out = kirchhoff_rhs(z)
    assert out.a_coeff == 1.0
    assert np.all(out.du.coeffs == 0.0)
    assert np.all(out.dv.coeffs == 0.0)


def test_rhs_hand_example(grid1):
    state = _two_mode_state(grid1)
    out = kirchhoff_rhs(state)
    assert out.a_coeff == pytest.approx(1.5, rel=1e-15)
    assert out.dv.coeffs[grid1.slot(1)] == pytest.approx(-0.75, rel=1e-15)
    assert np.array_equal(out.du.coeffs, state.v.coeffs)


def test_rhs_wave_speed_at_least_one(grid1):
    for seed in range(5):
        st = random_state(grid1, seed, 0.4)
        assert kirchhoff_rhs(st).a_coeff >= 1.0


def test_fourier_support_invariance(grid1):
    # modes that start exactly zero produce exactly zero right-hand side entries
    c = np.zeros(grid1.n_modes, dtype=np.complex128)
    for j in (1, -1, 4, -4):
        c[grid1.slot(j)] = 0.3
    state = RealPair(ComplexField(grid1, c), ComplexField.zero(grid1))
    out = kirchhoff_rhs(state)
    untouched = [i for i in range(grid1.n_modes) if c[i] == 0.0]
    assert np.all(out.dv.coeffs[untouched] == 0.0)
    assert np.all(out.du.coeffs[untouched] == 0.0)


def test_parity_invariance(grid1):
    # even real state: u_{-j} = u_j with real coefficients
    rng = np.random.default_rng(0)
    c = np.zeros(grid1.n_modes, dtype=np.complex128)
    for j in range(1, 9):
        val = rng.standard_normal()
        c[grid1.slot(j)] = val
        c[grid1.slot(-j)] = val
    state = RealPair(ComplexField(grid1, c), ComplexField.zero(grid1))
    out = kirchhoff_rhs(state)
    for j in range(1, 9):
        assert out.dv.coeffs[grid1.slot(j)] == out.dv.coeffs[grid1.slot(-j)]


def test_hamiltonian_examples(grid1):
    z = RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1))
    assert hamiltonian(z) == 0.0
    assert hamiltonian(_two_mode_state(grid1)) == pytest.approx(0.3125, rel=1e-14)


def test_hamiltonian_reflection_invariance(grid1):
    state = random_state(grid1, 5, 0.4)
    # u(-x): coefficient at j becomes the coefficient at -j
    refl = RealPair(
        ComplexField(grid1, state.u.coeffs[grid1.neg_index]),
        ComplexField(grid1, state.v.coeffs[grid1.neg_index]),
    )
    assert hamiltonian(refl) == pytest.approx(hamiltonian(state), rel=1e-14)


def test_momentum_examples(grid1):
    state = _two_mode_state(grid1)
    assert mode_momentum(state, 1) == pytest.approx(np.zeros(1))
    c_u = np.zeros(grid1.n_modes, dtype=np.complex128)
    c_v = np.zeros(grid1.n_modes, dtype=np.complex128)
    c_u[grid1.slot(1)] = 0.1
    c_u[grid1.slot(-1)] = 0.1
    c_v[grid1.slot(1)] = 0.2j
    c_v[grid1.slot(-1)] = -0.2j
    st = RealPair(ComplexField(grid1, c_u), ComplexField(grid1, c_v))
    assert mode_momentum(st, 1)[0] == pytest.approx(0.02, rel=1e-14)
    assert np.array_equal(mode_momentum(st, 1), mode_momentum(st, -1))


def test_momentum_errors(grid1):
    state = _two_mode_state(grid1)
    with pytest.raises(ParameterError):
        mode_momentum(state, 0)
    with pytest.raises(ParameterError):
        mode_momentum(state, 99)


def test_momentum_sum_matches_gradient_pairing(grid1, grid2):
    # sum of the per-mode momenta equals the integral of (du/dt) grad u,
    # computed independently from the gradient pairing
    for g, seed in ((grid1, 1), (grid2, 2)):
        state = random_state(g, seed, 0.6)
        total = momenta(state).sum(axis=0)
        oracle = total_momentum(state)
        assert np.max(np.abs(total - oracle)) <= 1e-13 * max(1.0, np.max(np.abs(oracle)))


def test_momenta_matches_mode_momentum(grid1):
    state = random_state(grid1, 3, 0.5)
    table = momenta(state)
    for j in (1, -2, 5):
        assert np.allclose(table[grid1.slot(j)], mode_momentum(state, j), atol=1e-16)


def test_reversibility(grid1):
    z = RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1))
    assert reversibility_defect(z) == 0.0
    state = random_state(grid1, 7, 0.5)
    assert reversibility_defect(state) <= 1e-14
    rest = RealPair(state.u, ComplexField.zero(grid1))
    assert reversibility_defect(rest) == 0.0


def test_involution(grid1):
    state = random_state(grid1, 8, 0.5)
    s = involution(state)
    assert np.array_equal(s.u.coeffs, state.u.coeffs)
    assert np.array_equal(s.v.coeffs, -state.v.coeffs)


def test_random_state_norm_split(grid2):
    st = random_state(grid2, 11, 0.2)
    m0 = grid2.m0
    total = st.u.norm(m0 + 0.5) + st.v.norm(m0 - 0.5)
    assert total == pytest.approx(0.2, rel=1e-12)

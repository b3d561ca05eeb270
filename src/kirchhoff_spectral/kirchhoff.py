"""The original Kirchhoff dynamics in spectral form.

Right-hand side, Hamiltonian, per-mode momentum integrals and the
time-reversal symmetry of

    u_tt - (1 + integral |grad u|^2) Laplacian u = 0

on the zero-mean lattice. The nonlinearity is the single scalar
a(t) - 1 = <Lambda u, Lambda u>, so the right-hand side is diagonal per mode
and every quantity here is evaluated exactly at truncation level (pure
spectral sums, no quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .fields import ComplexField, RealPair, lambda_power, pairing
from .grid import SpectralGrid

#: imaginary residue above this relative size in a provably-real spectral sum
#: indicates corrupted state symmetry rather than rounding
REAL_RESIDUE_TOL = 1e-13


@dataclass(frozen=True)
class KirchhoffRhsOutput:
    """du/dt, dv/dt and the instantaneous squared wave speed a(t) >= 1."""

    du: ComplexField
    dv: ComplexField
    a_coeff: float


def gradient_energy(j2f: np.ndarray, c: np.ndarray) -> float:
    """<Lambda u, Lambda u> for Hermitian-symmetric coefficients c of u, given the
    grid's |j|^2 weights j2f: sum of |j|^2 |u_j|^2, exactly real."""
    return float(np.dot(j2f, c.real * c.real + c.imag * c.imag))


def kirchhoff_rhs(state: RealPair) -> KirchhoffRhsOutput:
    """du = v,  dv_j = -(1 + sum_k |k|^2 |u_k|^2) |j|^2 u_j."""
    g = state.grid
    a = 1.0 + gradient_energy(g.j2f, state.u.coeffs)
    dv = ComplexField(g, (-a) * g.j2f * state.u.coeffs)
    return KirchhoffRhsOutput(du=state.v, dv=dv, a_coeff=a)


def hamiltonian(state: RealPair) -> float:
    """H = (1/2)<v,v> + (1/2)<Lambda u, Lambda u> + (1/4)<Lambda u, Lambda u>^2."""
    pv = pairing(state.v, state.v)
    lu = lambda_power(state.u, 1.0)
    pu = pairing(lu, lu)
    for name, val in (("velocity", pv), ("gradient", pu)):
        if abs(val.imag) > REAL_RESIDUE_TOL * max(1.0, abs(val.real)):
            raise NumericalError(f"{name} energy has imaginary residue {val.imag:.3e}")
    return 0.5 * pv.real + 0.5 * pu.real + 0.25 * pu.real ** 2


def mode_momentum(state: RealPair, mode) -> np.ndarray:
    """Conserved per-mode momentum, returned as the real d-vector -j Im(u_j conj(v_j)).

    Each Fourier amplitude obeys the same scalar oscillator equation, so
    (i j / 2)(u_j v_{-j} - u_{-j} v_j) is a constant of motion for every j;
    for Hermitian-symmetric states it equals the returned real form (verified
    here against the complex expression on every call). It is even in j.
    """
    g = state.grid
    i = g.slot(mode)
    j_vec = g.modes[i].astype(np.float64)
    uj = state.u.coeffs[i]
    vj = state.v.coeffs[i]
    real_form = -j_vec * float(np.imag(uj * np.conj(vj)))
    u_neg = state.u.coeffs[g.neg_index[i]]
    v_neg = state.v.coeffs[g.neg_index[i]]
    complex_form = 0.5j * j_vec * (uj * v_neg - u_neg * vj)
    if np.max(np.abs(complex_form - real_form)) > 1e-13 * max(1.0, float(np.max(np.abs(real_form)))):
        raise NumericalError("momentum formulas disagree; state symmetry is corrupted")
    return real_form


def momenta(state: RealPair) -> np.ndarray:
    """All per-mode momenta at once, shape (n_modes, d)."""
    g = state.grid
    m = -np.imag(state.u.coeffs * np.conj(state.v.coeffs))
    return g.modes.astype(np.float64) * m[:, None]


def involution(state: RealPair) -> RealPair:
    """Time-reversal involution S(u, v) = (u, -v)."""
    return RealPair(state.u, ComplexField(state.grid, -state.v.coeffs))


def reversibility_defect(state: RealPair) -> float:
    """Component-wise max L2 norm of (X o S + S o X)(state); zero for this field."""
    xs = kirchhoff_rhs(involution(state))
    sx = kirchhoff_rhs(state)
    du_defect = xs.du + sx.du  # S acts as identity on the first component
    dv_defect = xs.dv - sx.dv  # and as negation on the second
    return max(du_defect.norm(0.0), dv_defect.norm(0.0))


def random_state(grid: SpectralGrid, seed, eps: float) -> RealPair:
    """Hermitian (u, v) with ||u||_{m0+1/2} + ||v||_{m0-1/2} = eps, split evenly."""
    if eps < 0:
        raise ParameterError(f"eps must be >= 0, got {eps}")
    from .fields import random_field

    base = list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]
    m0 = grid.m0
    u = random_field(grid, base + [0], 0.5 * eps, m0 + 0.5, symmetry="hermitian")
    v = random_field(grid, base + [1], 0.5 * eps, m0 - 0.5, symmetry="hermitian")
    return RealPair(u, v)

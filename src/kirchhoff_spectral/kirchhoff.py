"""The original Kirchhoff dynamics in spectral form.

Wave-speed functional, Hamiltonian and per-mode momentum integrals of

    u_tt - (1 + integral |grad u|^2) Laplacian u = 0

on the zero-mean lattice. The nonlinearity is the single scalar
a(t) - 1 = <Lambda u, Lambda u>, so the right-hand side is diagonal per mode
and every quantity here is evaluated exactly at truncation level (pure
spectral sums, no quadrature), on the doubled vector x = [u; v] that a run's
samples hold. The right-hand side itself is
:meth:`~kirchhoff_spectral.dynamics.KirchhoffDynamics.rhs`, the one field
every flow integrates; its reversibility check lives beside it.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ParameterError
from .fields import ComplexField, RealPair, halves, random_fields
from .grid import SpectralGrid

#: imaginary residue above this relative size in a provably-real spectral sum
#: indicates corrupted state symmetry rather than rounding
REAL_RESIDUE_TOL = 1e-13


def gradient_energy(j2f: np.ndarray, c: np.ndarray):
    """<Lambda u, Lambda u> for Hermitian-symmetric coefficients c of u, given the
    grid's |j|^2 weights j2f: sum of |j|^2 |u_j|^2, exactly real; per column
    of a mode-first stack c, as a length-m array."""
    energy = np.dot(j2f, c.real * c.real + c.imag * c.imag)
    return energy if c.ndim > 1 else float(energy)


def hamiltonian(grid: SpectralGrid, x: np.ndarray):
    """H = (1/2)<v,v> + (1/2)<Lambda u, Lambda u> + (1/4)<Lambda u, Lambda u>^2
    at the physical state x = [u; v], or per column of a mode-first stack."""
    u, v = halves(x)
    pv, pu = grid.pairing(v, v), grid.pairing(u, u, 1.0)
    for name, val in (("velocity", pv), ("gradient", pu)):
        bad = np.flatnonzero(abs(val.imag) > REAL_RESIDUE_TOL * np.maximum(1.0, abs(val.real)))
        if len(bad):
            residue = np.ravel(val.imag)[bad[0]]
            raise NumericalError(f"{name} energy has imaginary residue {residue:.3e}")
    return 0.5 * pv.real + 0.5 * pu.real + 0.25 * pu.real ** 2


def mode_momentum(grid: SpectralGrid, x: np.ndarray, mode) -> np.ndarray:
    """Conserved per-mode momentum at x = [u; v], as the real d-vector -j Im(u_j conj(v_j)).

    Each Fourier amplitude obeys the same scalar oscillator equation, so
    (i j / 2)(u_j v_{-j} - u_{-j} v_j) is a constant of motion for every j;
    for Hermitian-symmetric states it equals the returned real form (verified
    here against the complex expression on every call). It is even in j.
    """
    i = grid.slot(mode)
    j_vec = grid.modes[i].astype(np.float64)
    u, v = halves(x)
    uj, vj = u[i], v[i]
    real_form = -j_vec * float(np.imag(uj * np.conj(vj)))
    u_neg, v_neg = u[grid.neg_index[i]], v[grid.neg_index[i]]
    complex_form = 0.5j * j_vec * (uj * v_neg - u_neg * vj)
    if np.max(np.abs(complex_form - real_form)) > 1e-13 * max(1.0, float(np.max(np.abs(real_form)))):
        raise NumericalError("momentum formulas disagree; state symmetry is corrupted")
    return real_form


def momenta(grid: SpectralGrid, x: np.ndarray) -> np.ndarray:
    """All per-mode momenta of the physical state x = [u; v] at once, shape (n_modes, d)."""
    u, v = halves(x)
    m = -np.imag(u * np.conj(v))
    return grid.modes.astype(np.float64) * m[:, None]


def random_states(grid: SpectralGrid, seeds, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian (u, v) with ||u||_{m0+1/2} + ||v||_{m0-1/2} = eps, split evenly,
    for each seed: two mode-first stacks (n, m). The u of ``seed`` is drawn
    from ``seed + [0]`` and its v from ``seed + [1]``."""
    if eps < 0:
        raise ParameterError(f"eps must be >= 0, got {eps}")
    bases = [list(seed) if isinstance(seed, (list, tuple)) else [int(seed)] for seed in seeds]
    m0 = grid.m0
    u = random_fields(grid, [base + [0] for base in bases], 0.5 * eps, m0 + 0.5, "hermitian")
    v = random_fields(grid, [base + [1] for base in bases], 0.5 * eps, m0 - 0.5, "hermitian")
    return u, v


def random_state(grid: SpectralGrid, seed, eps: float) -> RealPair:
    """The one column of :func:`random_states` for ``[seed]``."""
    u, v = random_states(grid, [seed], eps)
    return RealPair(ComplexField(grid, u[:, 0]), ComplexField(grid, v[:, 0]))

"""Field evaluators: pack states into flat arrays and expose right-hand sides.

Each evaluator owns a grid and adapts one vector field to the integrator
protocol (pack / unpack / rhs / project / ball_value). The physical system
integrates the pair (u, v) with Hermitian re-projection each step; the
complex-coordinate systems integrate only the first component, since the
second is its conjugate by construction and needs no projection at all.

:meth:`KirchhoffDynamics.rhs` is the one definition of the physical field,
and :func:`reversibility_defect` checks that field. The physical evaluator
also exposes the field's two exact sub-flows (``rotation``/``rotate`` and
``kick``), which the integrator's ``saba2`` scheme composes.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .fields import ComplexField, ConjugatePair, RealPair, pair_norm
from .grid import SpectralGrid
from .kirchhoff import gradient_energy, involution
from .normal_form import diagonalized_rhs_arrays, normal_form_rhs_arrays


class KirchhoffDynamics:
    """Original dynamics: du = v, dv = -(1 + sum |k|^2 |u_k|^2) Lambda^2 u."""

    name = "original"

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        self._n = grid.n_modes
        self._j2f = grid.j2f
        self.max_frequency = float(np.max(grid.absj))  # the fastest rotation, max |j|

    def pack(self, state: RealPair) -> np.ndarray:
        return np.concatenate([state.u.coeffs, state.v.coeffs])

    def unpack(self, y: np.ndarray) -> RealPair:
        g = self.grid
        return RealPair(
            ComplexField(g, y[: self._n]), ComplexField(g, y[self._n:]), check_tol=None
        )

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        n = self._n
        u = y[:n]
        v = y[n:]
        a = 1.0 + gradient_energy(self._j2f, u)
        return np.concatenate([v, (-a) * self._j2f * u])

    # The field splits into two exactly solvable parts, whose flows the
    # integrator's splitting scheme composes: the linear oscillator
    # (1/2) sum(|v_j|^2 + |j|^2 |u_j|^2) and the quartic (1/4) G(u)^2 with
    # G = sum |j|^2 |u_j|^2. Both act per mode with real factors even in j,
    # so each keeps every per-mode momentum and the Hermitian symmetry.

    def rotation(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """Factors of the oscillator's flow over ``tau`` for :meth:`rotate`:
        ``u' = cos u + (sin / |j|) v`` and ``v' = -|j| sin u + cos v`` with the
        angle ``tau |j|``. They are stored as complex numbers with a zero
        imaginary part, which multiply a complex state without a cast and give
        the values a real factor gives."""
        w = self.grid.absj
        c, s = np.cos(tau * w), np.sin(tau * w)
        diagonal = np.concatenate([c, c]).astype(np.complex128)
        off_diagonal = np.concatenate([s / w, -w * s]).astype(np.complex128)
        return diagonal, off_diagonal

    def rotate(self, y: np.ndarray, factors, out: np.ndarray | None = None) -> np.ndarray:
        """The oscillator's flow applied to a packed state, with the factors of
        :meth:`rotation`; ``out`` may be ``y`` itself."""
        diagonal, off_diagonal = factors
        n = self._n
        swapped = np.concatenate([y[n:], y[:n]])  # (v, u)
        swapped *= off_diagonal
        rotated = np.multiply(y, diagonal, out=out)
        rotated += swapped
        return rotated

    def kick(self, y: np.ndarray, tau: float) -> None:
        """The quartic's flow over ``tau``, in place: G is constant along it,
        so it is ``v -= tau G(u) |j|^2 u``."""
        n = self._n
        u = y[:n]
        y[n:] -= (tau * gradient_energy(self._j2f, u)) * self._j2f * u

    def project(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        n = self._n
        neg = self.grid.neg_index
        u, v = y[:n], y[n:]
        u_m = np.conj(u[neg])
        v_m = np.conj(v[neg])
        defect = max(float(np.max(np.abs(u - u_m))), float(np.max(np.abs(v - v_m))))
        if defect == 0.0:
            return y, 0.0
        return np.concatenate([0.5 * (u + u_m), 0.5 * (v + v_m)]), defect

    def ball_value(self, y: np.ndarray) -> float:
        """||u||_{m0+1/2} + ||v||_{m0-1/2}, the norm whose ball the inverse
        change of variables requires."""
        n = self._n
        return pair_norm(self.grid, y[:n], y[n:], self.grid.m0)


def reversibility_defect(state: RealPair) -> float:
    """Component-wise max L2 norm of (X o S + S o X)(state) for the physical
    field X and the involution S; zero for this field."""
    g = state.grid
    dyn = KirchhoffDynamics(g)
    n = g.n_modes
    xs = dyn.rhs(0.0, dyn.pack(involution(state)))
    sx = dyn.rhs(0.0, dyn.pack(state))
    du_defect = xs[:n] + sx[:n]  # S acts as identity on the first component
    dv_defect = xs[n:] - sx[n:]  # and as negation on the second
    return max(g.coeff_norm(du_defect, 0.0), g.coeff_norm(dv_defect, 0.0))


class _ConjugateDynamics:
    """Common plumbing for systems whose state is a single complex field w."""

    def __init__(self, grid: SpectralGrid):
        self.grid = grid

    def pack(self, state: ConjugatePair) -> np.ndarray:
        return state.w.coeffs.copy()

    def unpack(self, y: np.ndarray) -> ConjugatePair:
        return ConjugatePair(ComplexField(self.grid, y))

    def project(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        return y, 0.0  # the conjugate component is derived, nothing can drift

    def ball_value(self, y: np.ndarray) -> float:
        return self.grid.coeff_norm(y, self.grid.m0)

    def _z(self, y: np.ndarray) -> np.ndarray:
        return np.conj(y[self.grid.neg_index])


class DiagonalizedDynamics(_ConjugateDynamics):
    """The order-one-diagonalized system (state after the diag stage)."""

    name = "diagonalized"

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        return diagonalized_rhs_arrays(self.grid, y, self._z(y))[0]


class NormalFormDynamics(_ConjugateDynamics):
    """The normal-form system, in its structured evaluation."""

    name = "normal_form"

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        return normal_form_rhs_arrays(self.grid, y, self._z(y))[0]


def make_dynamics(representation: str, grid: SpectralGrid):
    if representation == "original":
        return KirchhoffDynamics(grid)
    if representation == "diagonalized":
        return DiagonalizedDynamics(grid)
    if representation == "normal_form":
        return NormalFormDynamics(grid)
    raise ParameterError(f"unknown representation {representation!r}")

"""Field evaluators: pack a run's start into a flat array and expose right-hand sides.

Each evaluator owns a grid and adapts one vector field to the integrator
protocol (pack / rhs / project / ball_value); past ``pack`` a state is its
packed array, [u; v] for the physical system and w for the others, which
integrates the pair (u, v) with Hermitian re-projection each step; the
complex-coordinate systems integrate only the first component, since the
second is its conjugate by construction and needs no projection at all.

:meth:`KirchhoffDynamics.rhs` is the one definition of the physical field,
and :func:`reversibility_defect` checks that field. The physical evaluator
also advances the integrator's ``saba2`` scheme: the field splits into a
rotation and a kick whose flows are exact, and their SABA2 composition is one
per-mode 2x2 map per step, blended from four fixed factors in one product
(:meth:`KirchhoffDynamics.saba2_steps`); the factors of every step size of a
run are built in one pass (:meth:`KirchhoffDynamics.saba2_factors`). The
diagonalized and normal-form evaluators declare the rates -i|j| of their
exact linear rotation, and DOP853 steps them in that rotation's frame.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .fields import ConjugatePair, RealPair, conjugate_doubled, halves, pair_norm
from .grid import SpectralGrid
from .kirchhoff import gradient_energy
from .normal_form import diagonalized_rhs_arrays, normal_form_rhs_arrays

#: SABA2's rotation fractions of a step, c1 at both ends and c2 in between
_SABA2_C1 = 0.5 - math.sqrt(3.0) / 6.0
_SABA2_C2 = 1.0 - 2.0 * _SABA2_C1
#: the rotation angles of a SABA2 step, as fractions of h: the whole step, the
#: first rotation, the first two together, the second
_SABA2_FRACTIONS = np.array((1.0, _SABA2_C1, _SABA2_C1 + _SABA2_C2, _SABA2_C2))[:, None]


def _outer(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per size and mode, the outer products of two (size, 2, mode) rows."""
    return left[:, :, None] * right[:, None]


class KirchhoffDynamics:
    """Original dynamics: du = v, dv = -(1 + sum |k|^2 |u_k|^2) Lambda^2 u."""

    name = "original"

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        self._n = grid.n_modes
        self._j2f = grid.j2f
        self.max_frequency = float(np.max(grid.absj))  # the fastest rotation, max |j|

    def pack(self, state: RealPair) -> np.ndarray:
        return state.doubled

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """The field at the packed state ``y``, or per column of a mode-first stack."""
        n = self._n
        u = y[:n]
        v = y[n:]
        a = 1.0 + gradient_energy(self._j2f, u)
        j2f = self._j2f if y.ndim == 1 else self._j2f[:, None]
        return np.concatenate([v, (-a) * j2f * u])

    # SABA2 in closed form. The field splits into two exactly solvable parts,
    # each acting on a mode's pair x = (u_j, v_j) as a real 2x2 matrix even in
    # j: the linear oscillator (1/2) sum(|v_j|^2 + |j|^2 |u_j|^2), whose flow
    # over tau is the rotation R(tau) = [[cos, sin / |j|], [-|j| sin, cos]] by
    # the angle tau |j|, and the quartic (1/4) G(u)^2 with G = sum |j|^2 |u_j|^2,
    # whose flow is the kick I + tau G K with K = [[0, 0], [-|j|^2, 0]], since G
    # is constant along it. The step R(c1 h) K(h/2) R(c2 h) K(h/2) R(c1 h) is
    # then, per mode,
    #
    #     M = A0 + G1 A1 + G2 A2 + G1 G2 A3,
    #
    # with G1 the G after the first rotation and G2 the G before the second
    # kick. A0 = R(h), and since (h/2) K = k e2 e1^T with k = -h |j|^2 / 2, the
    # other three are rank one: with r(tau) = (cos, sin / |j|) the first row of
    # R(tau) and its reverse the second column,
    #
    #     A1 = k rev(r((c1 + c2) h)) r(c1 h),  A2 = k rev(r(c1 h)) r((c1 + c2) h),
    #     A3 = k kappa rev(r(c1 h)) r(c1 h),   kappa = k sin(c2 h |j|) / |j|.
    #
    # With U = r(c1 h) x and P = r((c1 + c2) h) x, G1 = sum |j|^2 |U|^2 and
    # G2 = sum |j|^2 |P + G1 kappa U|^2 = b0 + G1 (b1 + G1 b2): G1, b0, b1 and
    # b2 are quadratic forms of the state at the start of the step, which one
    # product of a weight matrix with the state's per-mode products gives.
    # Every factor is real and even in j, and M is one product of the
    # coefficients (1, G1, G2, G1 G2) with the stacked A0..A3, which sums the
    # equal factors of j and -j alike (the tests pin this bit for bit), so a
    # step keeps every per-mode momentum and the Hermitian symmetry bit for bit.

    def saba2_factors(self, hs) -> tuple[np.ndarray, np.ndarray]:
        """The factors of SABA2 steps of each size in ``hs``, built in one pass
        with the size as the leading axis; entry ``i`` of each is the factors
        of a step of size ``hs[i]`` for :meth:`saba2_steps`: A0..A3 as a
        (4, 2, 2, 1, n) array, and the (4, 8n) weights that turn the per-mode
        products of a state into G1, b0, b1 and b2."""
        w, w2, n = self.grid.absj, self._j2f, self._n
        hs = np.asarray(hs, dtype=np.float64)[:, None]
        theta = _SABA2_FRACTIONS * (hs * w)[:, None]
        rows = np.empty((len(hs), 4, 2, n))  # r over h, c1 h, (c1 + c2) h and c2 h
        np.cos(theta, out=rows[:, :, 0])
        np.sin(theta, out=rows[:, :, 1])
        rows[:, :, 1] /= w
        cos, sin_j, sin_j2 = rows[:, 0, 0], rows[:, 0, 1], rows[:, 3, 1]  # sin_j is sin / |j|
        r1, r12 = rows[:, 1], rows[:, 2]
        k = -0.5 * hs * w2
        kappa = k * sin_j2
        a = np.empty((len(hs), 4, 2, 2, 1, n))
        a[:, 0, 0, 0, 0] = a[:, 0, 1, 1, 0] = cos
        a[:, 0, 0, 1, 0] = sin_j
        a[:, 0, 1, 0, 0] = -w2 * sin_j
        a[:, 1, :, :, 0] = k[:, None, None] * _outer(r12[:, ::-1], r1)
        a[:, 2, :, :, 0] = k[:, None, None] * _outer(r1[:, ::-1], r12)
        a[:, 3, :, :, 0] = (k * kappa)[:, None, None] * _outer(r1[:, ::-1], r1)
        # the form sum |j|^2 s Re((l x) conj(r x)) of a state x is the sum of
        # the products x_a x_b of its parts a, b in (u, v), weighted
        # |j|^2 s l_a r_b for the real and the imaginary parts alike
        weights = np.empty((len(hs), 4, 2, 2, 2, n))
        form_u = w2 * _outer(r1, r1)
        weights[:, 0] = form_u[:, :, :, None]
        weights[:, 1] = (w2 * _outer(r12, r12))[:, :, :, None]
        weights[:, 2] = ((2.0 * w2 * kappa)[:, None, None] * _outer(r12, r1))[:, :, :, None]
        weights[:, 3] = ((kappa * kappa)[:, None, None] * form_u)[:, :, :, None]
        return a, weights.reshape(len(hs), 4, -1)

    def saba2_steps(self, y: np.ndarray, factors, m: int) -> tuple[np.ndarray, int]:
        """``m`` SABA2 steps from the packed state ``y`` with one size's entry
        of :meth:`saba2_factors`; returns the last finite state, packed, and the
        number of steps that reached it, ``m`` unless the state overflowed."""
        a, weights = factors
        a = a.reshape(4, -1)
        # the rows (Re u, Im u, Re v, Im v), viewed as (u or v, Re or Im, mode)
        x = y.view(np.float64).reshape(2, self._n, 2).transpose(0, 2, 1).copy()
        step = np.empty((2, 2, 1, self._n))  # M, filled in place by each step
        blend = step.reshape(-1)
        last, taken = x, 0
        for _ in range(m):
            g1, b0, b1, b2 = (weights @ (x[:, None] * x).ravel()).tolist()
            g2 = b0 + g1 * (b1 + g1 * b2)
            if not math.isfinite(g1 * g2):  # the state, or a kick, overflowed
                break
            np.dot((1.0, g1, g2, g1 * g2), a, out=blend)
            last, x = x, np.add.reduce(step * x, axis=1)
            taken += 1
        if taken and not np.isfinite(x).all():  # the last step overflowed
            x, taken = last, taken - 1
        return x.transpose(0, 2, 1).ravel().view(np.complex128), taken

    def project(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        y_m = np.conj(y[self.grid.pair_neg])
        defect = float(np.max(np.abs(y - y_m)))
        if defect == 0.0:
            return y, 0.0
        return 0.5 * (y + y_m), defect

    def ball_value(self, y: np.ndarray) -> float:
        """||u||_{m0+1/2} + ||v||_{m0-1/2}, the norm whose ball the inverse
        change of variables requires."""
        return pair_norm(self.grid, y, self.grid.m0)


def reversibility_defect(grid: SpectralGrid, x: np.ndarray):
    """Component-wise max L2 norm of (X o S + S o X)(x) at the physical state
    x = [u; v], for the physical field X and the time-reversal involution
    S(u, v) = (u, -v); zero for this field, NaN if it is NaN. Per column of a
    mode-first stack, as a length-m array."""
    dyn = KirchhoffDynamics(grid)
    u, v = halves(x)
    xs = dyn.rhs(0.0, np.concatenate((u, -v)))
    sx = dyn.rhs(0.0, x)
    sx[grid.n_modes:] *= -1.0
    return grid.doubled_norm(xs + sx, 0.0)


class _ConjugateDynamics:
    """Common plumbing for systems whose state is a single complex field w."""

    def __init__(self, grid: SpectralGrid):
        self.grid = grid

    def pack(self, state: ConjugatePair) -> np.ndarray:
        return state.w.coeffs.copy()

    def project(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        return y, 0.0  # the conjugate component is derived, nothing can drift

    def ball_value(self, y: np.ndarray) -> float:
        return self.grid.coeff_norm(y, self.grid.m0)


class _RotatingDynamics(_ConjugateDynamics):
    """A conjugate system whose linear part is the rotation -i |j| w: it
    declares those ``rates``, so DOP853 steps it in the rotation's frame."""

    def __init__(self, grid: SpectralGrid):
        super().__init__(grid)
        self.rates = grid.rotation[: grid.n_modes]


class DiagonalizedDynamics(_RotatingDynamics):
    """The order-one-diagonalized system (state after the diag stage)."""

    name = "diagonalized"

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        return diagonalized_rhs_arrays(self.grid, conjugate_doubled(self.grid, y))[: len(y)]


class NormalFormDynamics(_RotatingDynamics):
    """The normal-form system, in its structured evaluation."""

    name = "normal_form"

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        return normal_form_rhs_arrays(self.grid, conjugate_doubled(self.grid, y))[: len(y)]


def make_dynamics(representation: str, grid: SpectralGrid):
    if representation == "original":
        return KirchhoffDynamics(grid)
    if representation == "diagonalized":
        return DiagonalizedDynamics(grid)
    if representation == "normal_form":
        return NormalFormDynamics(grid)
    raise ParameterError(f"unknown representation {representation!r}")

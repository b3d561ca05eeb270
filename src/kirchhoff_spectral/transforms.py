"""The four-stage change of variables and its scalar machinery.

The composed map sends a conjugate pair (w, conj w) to a physical state
(u, v) through four stages, each invertible on its stated domain:

* cubic stage   -- identity plus the off-diagonal mix operator (removes the
  nonresonant cubic coupling between a field and its conjugate);
* diag stage    -- state-dependent 2x2 mixing that diagonalizes the order-one
  part of the system, with mixing ratio rho evaluated at the scalar P;
* complex stage -- complex-conjugate coordinates (f, g) <-> real (q, p);
* scale stage   -- half-order scaling |j|^{-1/2} / |j|^{+1/2} that balances
  the two components of the wave system.

Scalar maps: rho(x) = -x / (1 + x + sqrt(1+2x)) is the mixing ratio of the
diagonalization. The wave speed sigma = sqrt(1 + 2P), where P sqrt(1 + 2P) = Q,
is the root >= 1 of the cubic sigma^3 - sigma - 2Q, which :func:`wave_speed`
takes in Viete's closed form; phi_inv, the inverse of x -> x sqrt(1+2x), is
then Q / sigma.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import linearize, mix_arrays
from .errors import ConvergenceError, DomainError, ParameterError
from .fields import (
    ArrayPair,
    ComplexField,
    ConjugatePair,
    FieldPair,
    RealPair,
    _same_grid,
    conjugate_defect,
    field_pair,
)
from .grid import DEFAULT_BALL_RADIUS, SpectralGrid

CUBIC_INV_BALL = 0.25
CUBIC_INV_TOL = 1e-13
CUBIC_INV_MAX_ITER = 200


def _check_direction(direction: str) -> None:
    if direction not in ("fwd", "inv"):
        raise ParameterError(f"direction must be 'fwd' or 'inv', got {direction!r}")


# -- scalar maps -------------------------------------------------------------


def rho(x: float) -> float:
    """Mixing ratio of the order-one diagonalization; maps [0, inf) into (-1, 0]."""
    if x < 0:
        raise DomainError(f"rho is defined for x >= 0, got {x}")
    return -x / (1.0 + x + math.sqrt(1.0 + 2.0 * x))


def wave_speed(q: float) -> float:
    """The root >= 1 of s^3 - s - 2q, which is sqrt(1 + 2P) at Q = q.

    Viete's form of the cubic's largest root (Nickalls, Math. Gazette 77,
    1993): trigonometric while the cubic has three real roots (3 sqrt3 q <= 1),
    hyperbolic above; both are well conditioned at the switch.
    """
    if q < 0:
        raise DomainError(f"wave_speed is defined for q >= 0, got {q}")
    if q == 0.0:
        return 1.0
    c = 3.0 * math.sqrt(3.0) * q
    if c <= 1.0:
        return 2.0 / math.sqrt(3.0) * math.cos(math.acos(c) / 3.0)
    return 2.0 / math.sqrt(3.0) * math.cosh(math.acosh(c) / 3.0)


def phi_inv(y: float) -> float:
    """Inverse of x -> x sqrt(1+2x) on [0, inf): y / sqrt(1 + 2x) = y / wave_speed(y)."""
    return y / wave_speed(y)


def _q_value_arrays(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Q of an array pair; rejects a pair whose Q is not real and >= 0 (not conjugate)."""
    c = a + b
    val = 0.25 * grid.pairing(c, c, grid.absj)
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e-10 * scale or val.real < -1e-12 * scale:
        raise DomainError(
            f"quadratic functional {val!r} is not real and >= 0; pair is not conjugate"
        )
    return max(val.real, 0.0)


def _speed_scalars_arrays(grid: SpectralGrid, a: np.ndarray, b: np.ndarray):
    """Q, P = Q / sigma and the wave speed sigma = wave_speed(Q) of a conjugate array pair."""
    q = _q_value_arrays(grid, a, b)  # also rejects non-conjugate pairs
    sigma = wave_speed(q)
    return q, q / sigma, sigma


def _pair_arrays(f, g) -> tuple[SpectralGrid, np.ndarray, np.ndarray]:
    """The grid and coefficient vectors of a ConjugatePair, or of two fields."""
    if isinstance(f, ConjugatePair):
        f, g = f.w, f.z
    elif g is None:
        raise ParameterError("q_value and p_value need a ConjugatePair or two fields")
    _same_grid(f, g)
    return f.grid, f.coeffs, g.coeffs


def q_value(f: ComplexField | ConjugatePair, g: ComplexField | None = None) -> float:
    """Quadratic functional Q = (1/4) <Lambda(f+g), f+g>.

    For a conjugate pair this is the integral of (Lambda^{1/2} Re f)^2, hence
    real and >= 0; the instantaneous squared wave speed of the system in the
    complexified coordinates is 1 + 2Q.
    """
    return _q_value_arrays(*_pair_arrays(f, g))


def p_value(f: ComplexField | ConjugatePair, g: ComplexField | None = None) -> float:
    """P = phi_inv(Q): the same functional expressed through the diagonalized pair."""
    return _speed_scalars_arrays(*_pair_arrays(f, g))[1]


# -- individual stages --------------------------------------------------------


def _stage_input(direction: str, pair: FieldPair) -> tuple[SpectralGrid, np.ndarray, np.ndarray]:
    """Check a stage call; the grid and the two coefficient vectors of the pair."""
    _check_direction(direction)
    a, b = pair
    _same_grid(a, b)
    return a.grid, a.coeffs, b.coeffs


def scale_stage(direction: str, pair: FieldPair) -> FieldPair:
    """fwd: (q, p) -> (|j|^{-1/2} q, |j|^{1/2} p); inv undoes it."""
    g, a, b = _stage_input(direction, pair)
    sgn = -0.5 if direction == "fwd" else 0.5
    return field_pair(g, (a * g.absj ** sgn, b * g.absj ** (-sgn)))


def complex_stage(direction: str, pair: FieldPair) -> FieldPair:
    """fwd: (f, g) -> (q, p) = ((f+g)/sqrt2, (f-g)/(i sqrt2)); inv: f,g = (q +- i p)/sqrt2."""
    g, a, b = _stage_input(direction, pair)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if direction == "fwd":
        return field_pair(g, ((a + b) * inv_sqrt2, -1j * (a - b) * inv_sqrt2))
    return field_pair(g, ((a + 1j * b) * inv_sqrt2, (a - 1j * b) * inv_sqrt2))


def diag_stage(direction: str, pair: FieldPair) -> FieldPair:
    """Order-one diagonalization; global (no smallness needed), closed-form inverse.

    fwd maps the diagonalized pair (eta, psi) to (f, g) through the mixing
    matrix with ratio rho(P(eta, psi)); inv recovers (eta, psi) using that
    the same ratio equals rho(Q(f, g)), with the sign of the ratio flipped.
    """
    g, a, b = _stage_input(direction, pair)
    q = _q_value_arrays(g, a, b)
    r = rho(phi_inv(q)) if direction == "fwd" else -rho(q)
    den = 1.0 / math.sqrt(1.0 - r * r)
    return field_pair(g, ((a + r * b) * den, (r * a + b) * den))


def cubic_stage(direction: str, pair: FieldPair) -> FieldPair:
    """fwd: (w, z) -> (w, z) + mix(w, z)(w, z); inv by contraction in the 1/4 ball."""
    g, a, b = _stage_input(direction, pair)
    if direction == "fwd":
        ma, mb = mix_arrays(linearize(g, a, b), a, b)
        return field_pair(g, (a + ma, b + mb))
    return field_pair(g, cubic_stage_inverse_arrays(g, a, b))


def cubic_stage_inverse_arrays(grid: SpectralGrid, eta: np.ndarray, psi: np.ndarray) -> ArrayPair:
    """Fixed point of (w, z) = (eta, psi) - mix(w, z)(w, z), from (0, 0).

    The map is a contraction for ||eta||_{m0} <= CUBIC_INV_BALL = 1/4, where
    the inverse is unique and satisfies ||w||_s <= 2 ||eta||_s.
    """
    m0 = grid.m0
    eta_norm = grid.coeff_norm(eta, m0)
    if eta_norm > CUBIC_INV_BALL:
        raise DomainError(
            f"cubic stage inverse needs ||eta||_m0 <= {CUBIC_INV_BALL}, got {eta_norm:.4f}"
        )
    w = np.zeros_like(eta)
    z = np.zeros_like(psi)
    for _ in range(CUBIC_INV_MAX_ITER):
        ma, mb = mix_arrays(linearize(grid, w, z), w, z)
        w_new = eta - ma
        z_new = psi - mb
        delta = max(grid.coeff_norm(w_new - w, m0), grid.coeff_norm(z_new - z, m0))
        w, z = w_new, z_new
        if delta <= CUBIC_INV_TOL:
            return w, z
    raise ConvergenceError("cubic stage inversion hit the iteration cap")


# -- rank-one correction of the diag stage ------------------------------------
#
# Differentiating the diag stage along the flow produces a rank-one operator
# acting on pairs: (alpha, beta) -> (psi, eta) * F * <Lambda(eta+psi), alpha+beta>,
# with the scalar factor F below. (I + that operator) has the closed-form
# inverse implemented here; the dense solve is the independent oracle for it.


def rank_one_factor(eta: ComplexField, psi: ComplexField) -> float:
    """F = -1 / (4 (1 + 3P) sigma)."""
    _, p, sigma = _speed_scalars_arrays(*_pair_arrays(eta, psi))
    return -1.0 / (4.0 * (1.0 + 3.0 * p) * sigma)


def rank_one_apply(eta: ComplexField, psi: ComplexField, vec: FieldPair) -> FieldPair:
    g = eta.grid
    f = rank_one_factor(eta, psi)
    ell = g.pairing(eta.coeffs + psi.coeffs, vec[0].coeffs + vec[1].coeffs, g.absj)
    return field_pair(g, (psi.coeffs * (f * ell), eta.coeffs * (f * ell)))


def rank_one_solve_closed(eta: ComplexField, psi: ComplexField, rhs: FieldPair) -> FieldPair:
    """Closed form: rhs + (psi, eta) <Lambda(eta+psi), rhs_1+rhs_2> / (4 sigma^3)."""
    g = eta.grid
    sigma = _speed_scalars_arrays(*_pair_arrays(eta, psi))[2]
    ell = g.pairing(eta.coeffs + psi.coeffs, rhs[0].coeffs + rhs[1].coeffs, g.absj)
    c = ell / (4.0 * sigma ** 3)
    return field_pair(g, (rhs[0].coeffs + c * psi.coeffs, rhs[1].coeffs + c * eta.coeffs))


def rank_one_solve_dense(eta: ComplexField, psi: ComplexField, rhs: FieldPair) -> FieldPair:
    g = eta.grid
    n = g.n_modes
    f = rank_one_factor(eta, psi)
    c = eta.coeffs + psi.coeffs
    row = (g.absj * c)[g.neg_index]  # functional l(alpha,beta) = row . alpha + row . beta
    col = np.concatenate([psi.coeffs, eta.coeffs])
    mat = np.eye(2 * n, dtype=np.complex128) + f * np.outer(col, np.concatenate([row, row]))
    sol = np.linalg.solve(mat, np.concatenate([rhs[0].coeffs, rhs[1].coeffs]))
    return field_pair(g, (sol[:n], sol[n:]))


# -- full composition ----------------------------------------------------------


#: the stages from (w, z) to (u, v); inv runs them backwards
_STAGES = (cubic_stage, diag_stage, complex_stage, scale_stage)


def change_of_variables(
    direction: str,
    state: ConjugatePair | RealPair,
    ball_radius: float | None = DEFAULT_BALL_RADIUS,
) -> RealPair | ConjugatePair:
    """Composition of all four stages.

    fwd maps a :class:`ConjugatePair` (w, conj w) with ||w||_{m0} inside the
    operational ball to the physical :class:`RealPair` (u, v); inv goes back,
    requiring ||u||_{m0+1/2} + ||v||_{m0-1/2} inside the same ball. Pass
    ``ball_radius=None`` to disable the precondition (diagnostics only).
    """
    _check_direction(direction)
    fwd = direction == "fwd"
    if fwd:
        if not isinstance(state, ConjugatePair):
            raise ParameterError("fwd composition expects a ConjugatePair")
        m0 = state.grid.m0
        if ball_radius is not None and state.w.norm(m0) > ball_radius:
            raise DomainError(
                f"||w||_m0 = {state.w.norm(m0):.4f} outside the ball {ball_radius}"
            )
        pair = (state.w, state.z)
    else:
        if not isinstance(state, RealPair):
            raise ParameterError("inv composition expects a RealPair")
        m0 = state.grid.m0
        size = state.norm(m0)
        if ball_radius is not None and size > ball_radius:
            raise DomainError(f"||u|| + ||v|| = {size:.4f} outside the ball {ball_radius}")
        pair = (state.u, state.v)
    for stage in _STAGES if fwd else _STAGES[::-1]:
        pair = stage(direction, pair)
    if fwd:
        return RealPair(*pair)
    w, z = pair
    scale = max(1.0, float(np.max(np.abs(w.coeffs))))
    if conjugate_defect(w, z) > 1e-9 * scale:
        raise DomainError("inverse composition lost the conjugate-pair structure")
    return ConjugatePair(w)


def equivalence_ratios(state: ConjugatePair, s: float) -> dict:
    """Measured two-sided norm-equivalence constants of the composition at one
    state, with the ball precondition off."""
    uv = change_of_variables("fwd", state, ball_radius=None)
    w_norm = state.w.norm(s)
    uv_norm = uv.norm(s)
    return {
        "s": s,
        "uv_over_w": uv_norm / w_norm if w_norm > 0 else 0.0,
        "w_over_uv": w_norm / uv_norm if uv_norm > 0 else 0.0,
    }

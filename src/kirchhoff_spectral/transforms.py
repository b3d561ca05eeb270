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
diagonalization, and phi_inv is the inverse of x -> x sqrt(1+2x), computed by
Newton iteration on the squared form 2x^3 + x^2 - y^2 (monotone convex for
x >= 0, so the iteration from x0 = y converges unconditionally).
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import mix_arrays
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


def phi_inv(y: float, tol: float = 1e-15, max_iter: int = 100) -> float:
    """Inverse of x -> x sqrt(1+2x) on [0, inf), by Newton on 2x^3 + x^2 - y^2."""
    if y < 0:
        raise DomainError(f"phi_inv is defined for y >= 0, got {y}")
    if y == 0.0:
        return 0.0
    x = y
    for _ in range(max_iter):
        r = 2.0 * x ** 3 + x ** 2 - y * y
        dr = 6.0 * x ** 2 + 2.0 * x
        dx = r / dr
        x -= dx
        if abs(dx) <= tol * max(1.0, x):
            return max(x, 0.0)
    raise ConvergenceError(f"phi_inv Newton iteration did not converge for y={y}")


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


def q_value(f: ComplexField | ConjugatePair, g: ComplexField | None = None) -> float:
    """Quadratic functional Q = (1/4) <Lambda(f+g), f+g>.

    For a conjugate pair this is the integral of (Lambda^{1/2} Re f)^2, hence
    real and >= 0; the instantaneous squared wave speed of the system in the
    complexified coordinates is 1 + 2Q.
    """
    if isinstance(f, ConjugatePair):
        f, g = f.w, f.z
    elif g is None:
        raise ParameterError("q_value needs a ConjugatePair or two fields")
    _same_grid(f, g)
    return _q_value_arrays(f.grid, f.coeffs, g.coeffs)


def p_value(f: ComplexField | ConjugatePair, g: ComplexField | None = None) -> float:
    """P = phi_inv(Q): the same functional expressed through the diagonalized pair."""
    return phi_inv(q_value(f, g))


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
        ma, mb = mix_arrays(g, a, b, a, b)
        return field_pair(g, (a + ma, b + mb))
    return field_pair(g, cubic_stage_inverse_arrays(g, a, b))


def cubic_stage_inverse_arrays(
    grid: SpectralGrid,
    eta: np.ndarray,
    psi: np.ndarray,
    ball: float = CUBIC_INV_BALL,
    tol: float = CUBIC_INV_TOL,
    max_iter: int = CUBIC_INV_MAX_ITER,
) -> ArrayPair:
    """Fixed point of (w, z) = (eta, psi) - mix(w, z)(w, z), from (0, 0).

    The map is a contraction for ||eta||_{m0} <= 1/4, where the inverse is
    unique and satisfies ||w||_s <= 2 ||eta||_s.
    """
    m0 = grid.m0
    eta_norm = grid.coeff_norm(eta, m0)
    if eta_norm > ball:
        raise DomainError(
            f"cubic stage inverse needs ||eta||_m0 <= {ball}, got {eta_norm:.4f}"
        )
    w = np.zeros_like(eta)
    z = np.zeros_like(psi)
    prev = math.inf
    grow = 0
    for _ in range(max_iter):
        ma, mb = mix_arrays(grid, w, z, w, z)
        w_new = eta - ma
        z_new = psi - mb
        delta = max(grid.coeff_norm(w_new - w, m0), grid.coeff_norm(z_new - z, m0))
        w, z = w_new, z_new
        if delta <= tol:
            return w, z
        if delta >= prev:
            grow += 1
            if grow >= 5:
                raise ConvergenceError(
                    f"cubic stage inversion is not contracting (step {delta:.3e})"
                )
        else:
            grow = 0
        prev = delta
    raise ConvergenceError("cubic stage inversion hit the iteration cap")


# -- rank-one correction of the diag stage ------------------------------------
#
# Differentiating the diag stage along the flow produces a rank-one operator
# acting on pairs: (alpha, beta) -> (psi, eta) * F * <Lambda(eta+psi), alpha+beta>,
# with the scalar factor F below. (I + that operator) has the closed-form
# inverse implemented here; the dense solve is the independent oracle for it.


def rank_one_factor(eta: ComplexField, psi: ComplexField) -> float:
    p = p_value(eta, psi)
    return -1.0 / (4.0 * (1.0 + 3.0 * p) * math.sqrt(1.0 + 2.0 * p))


def rank_one_apply(eta: ComplexField, psi: ComplexField, vec: FieldPair) -> FieldPair:
    g = eta.grid
    f = rank_one_factor(eta, psi)
    ell = g.pairing(eta.coeffs + psi.coeffs, vec[0].coeffs + vec[1].coeffs, g.absj)
    return field_pair(g, (psi.coeffs * (f * ell), eta.coeffs * (f * ell)))


def rank_one_solve_closed(eta: ComplexField, psi: ComplexField, rhs: FieldPair) -> FieldPair:
    """Closed form: rhs + (psi, eta) <Lambda(eta+psi), rhs_1+rhs_2> / (4 (1+2P)^{3/2})."""
    g = eta.grid
    p = p_value(eta, psi)
    ell = g.pairing(eta.coeffs + psi.coeffs, rhs[0].coeffs + rhs[1].coeffs, g.absj)
    c = ell / (4.0 * (1.0 + 2.0 * p) ** 1.5)
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
        size = state.u.norm(m0 + 0.5) + state.v.norm(m0 - 0.5)
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


def equivalence_ratios(state: ConjugatePair, s: float, ball_radius: float | None = None) -> dict:
    """Measured two-sided norm-equivalence constants of the composition at one state."""
    uv = change_of_variables("fwd", state, ball_radius=ball_radius)
    w_norm = state.w.norm(s)
    uv_norm = uv.u.norm(s + 0.5) + uv.v.norm(s - 0.5)
    return {
        "s": s,
        "uv_over_w": uv_norm / w_norm if w_norm > 0 else 0.0,
        "w_over_uv": w_norm / uv_norm if uv_norm > 0 else 0.0,
    }

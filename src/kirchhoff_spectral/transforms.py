"""The four-stage change of variables and its scalar machinery.

The composed map sends a conjugate pair (w, conj w) to a physical state
(u, v) through four stages, each invertible on its stated domain. Every stage
is a map ``stage(direction, grid, x) -> x`` on the doubled vector [a; b] of
a pair, the format of the coupling layer; :func:`change_of_variables` packs
its state once, runs the four stages and unpacks once.

* cubic stage   -- identity plus the off-diagonal mix operator (removes the
  nonresonant cubic coupling between a field and its conjugate);
* diag stage    -- state-dependent 2x2 mixing that diagonalizes the order-one
  part of the system, with mixing ratio rho evaluated at the scalar P;
* complex stage -- complex-conjugate coordinates (f, g) <-> real (q, p);
* scale stage   -- half-order scaling |j|^{-1/2} / |j|^{+1/2} that balances
  the two components of the wave system.

The scalars Q and P of a pair, and the rank-one correction of the diag
stage, read the same doubled vector.

Every stage, Q and P also act on a mode-first stack of doubled vectors, shape
(2n, m) with one sample per column. Mode-first keeps gathers as x[idx],
halves as x[:n] and class sums along axis 0, so one vector and a stack run the
same code, and the one-vector path that the normal-form field takes on every
evaluation keeps its gathers and reductions as they were; a sample-first
stack would need x[..., idx] gathers, several times dearer on one 32-slot
vector. Per-sample scalars come back as length-m arrays.
:func:`change_of_variables` maps a whole
:class:`~kirchhoff_spectral.fields.PairStack` in one pass and checks each
column as it checks one state.

Scalar maps: rho(x) = -x / (1 + x + sqrt(1+2x)) is the mixing ratio of the
diagonalization, numpy code on one scalar or a length-m array. The wave
speed sigma = sqrt(1 + 2P), where P sqrt(1 + 2P) = Q, is the root >= 1 of the
cubic sigma^3 - sigma - 2Q, which :func:`wave_speed` takes in Viete's closed
form; P, the inverse of x -> x sqrt(1+2x) at Q, is then Q / sigma. The check
of Q and the wave speed are ``math`` code on one scalar, run per column of a
stack by :func:`per_sample`; the diag stage makes one such pass per call.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import linearize, mix_arrays
from .errors import ConvergenceError, DomainError, ParameterError
from .fields import (
    ComplexField,
    ConjugatePair,
    PairStack,
    RealPair,
    conjugate_defect,
    halves,
    pair_norm,
)
from .grid import DEFAULT_BALL_RADIUS, SpectralGrid

CUBIC_INV_BALL = 0.25
CUBIC_INV_TOL = 1e-13
CUBIC_INV_MAX_ITER = 200


def _check_direction(direction: str) -> None:
    if direction not in ("fwd", "inv"):
        raise ParameterError(f"direction must be 'fwd' or 'inv', got {direction!r}")


def _refuse(bad, value, message: str) -> None:
    """Raise a :class:`DomainError` for the first column k of a stack where ``bad``
    holds, or for one state where it holds: ``message`` formatted with k's
    ``value``, and ``column`` set to k."""
    if bad.any():
        k = int(np.argmax(bad))
        exc = DomainError(message.format(np.ravel(value)[k]))
        exc.column = k
        raise exc


def per_sample(f, value):
    """``f`` of one sample's scalar, or of each column's scalar of a stack (a
    length-m array) as an array, one array per entry where ``f`` returns a
    tuple; a :class:`DomainError` for a column carries its index as ``column``."""
    if not isinstance(value, np.ndarray):
        return f(value)
    out = []
    try:
        for v in value.tolist():
            out.append(f(v))
    except DomainError as exc:
        exc.column = len(out)
        raise
    return np.array(out, dtype=np.float64).T


# -- scalar maps -------------------------------------------------------------


def rho(x):
    """Mixing ratio of the order-one diagonalization; maps [0, inf) into (-1, 0].

    Of a length-m array, the ratio of each entry; the first negative entry
    raises, with its index as ``column``, and a NaN stays NaN.
    """
    _refuse(np.asarray(x) < 0, x, "rho is defined for x >= 0, got {}")
    return -x / (1.0 + x + np.sqrt(1.0 + 2.0 * x))


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


def q_value(grid: SpectralGrid, x: np.ndarray):
    """Quadratic functional Q = (1/4) <Lambda(a+b), a+b> of the pair [a; b], or per column.

    For a conjugate pair this is the integral of (Lambda^{1/2} Re a)^2, hence
    real and >= 0; the instantaneous squared wave speed of the system in the
    complexified coordinates is 1 + 2Q. A pair whose Q is not real and >= 0
    is not conjugate, and is rejected.
    """
    return per_sample(_real_q, _q_pairing(grid, x))


def _q_pairing(grid: SpectralGrid, x: np.ndarray):
    """<Lambda(a+b), a+b> = 4Q of the pair [a; b], or per column."""
    a, b = halves(x)
    c = a + b
    return grid.pairing(c, c, 0.5)


def _real_q(pairing) -> float:
    """Q from its pairing <Lambda(a+b), a+b>, which is real and >= 0 on a conjugate pair."""
    val = 0.25 * complex(pairing)
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e-10 * scale or val.real < -1e-12 * scale:
        raise DomainError(
            f"quadratic functional {val!r} is not real and >= 0; pair is not conjugate"
        )
    return max(val.real, 0.0)


def _speed_scalars(grid: SpectralGrid, x: np.ndarray):
    """Q, P = Q / sigma and the wave speed sigma = wave_speed(Q) of a conjugate pair, or per column."""
    return per_sample(_speeds, _q_pairing(grid, x))


def _speeds(pairing) -> tuple[float, float, float]:
    q = _real_q(pairing)  # also rejects non-conjugate pairs
    sigma = wave_speed(q)
    return q, q / sigma, sigma


def p_value(grid: SpectralGrid, x: np.ndarray):
    """P = Q / sigma, the inverse of x -> x sqrt(1+2x) at Q: the same functional
    expressed through the diagonalized pair."""
    return _speed_scalars(grid, x)[1]


# -- individual stages: (direction, grid, [a; b]) -> [a'; b'], per column of a stack --


def scale_stage(direction: str, grid: SpectralGrid, x: np.ndarray) -> np.ndarray:
    """fwd: [q; p] -> [|j|^{-1/2} q; |j|^{1/2} p]; inv undoes it."""
    _check_direction(direction)
    sgn = -0.5 if direction == "fwd" else 0.5
    factor = np.concatenate((grid.absj ** sgn, grid.absj ** (-sgn)))
    return (x.T * factor).T  # the factor runs along the mode axis


def complex_stage(direction: str, grid: SpectralGrid, x: np.ndarray) -> np.ndarray:
    """fwd: [f; g] -> [q; p] = [(f+g)/sqrt2; (f-g)/(i sqrt2)]; inv: f,g = (q +- i p)/sqrt2."""
    _check_direction(direction)
    a, b = halves(x)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if direction == "fwd":
        return np.concatenate(((a + b) * inv_sqrt2, -1j * (a - b) * inv_sqrt2))
    return np.concatenate(((a + 1j * b) * inv_sqrt2, (a - 1j * b) * inv_sqrt2))


def diag_stage(direction: str, grid: SpectralGrid, x: np.ndarray) -> np.ndarray:
    """Order-one diagonalization; global (no smallness needed), closed-form inverse.

    fwd maps the diagonalized pair [eta; psi] to [f; g] through the mixing
    matrix with ratio rho(P(eta, psi)); inv recovers [eta; psi] using that
    the same ratio equals rho(Q(f, g)), with the sign of the ratio flipped.
    """
    _check_direction(direction)
    r = rho(p_value(grid, x)) if direction == "fwd" else -rho(q_value(grid, x))
    return (x + r * x[grid.pair_swap]) * (1.0 / np.sqrt(1.0 - r * r))


def cubic_stage(direction: str, grid: SpectralGrid, x: np.ndarray) -> np.ndarray:
    """fwd: [w; z] -> [w; z] + mix(w, z)[w; z]; inv by contraction in the 1/4 ball."""
    _check_direction(direction)
    if direction == "fwd":
        return x + mix_arrays(linearize(grid, x), x)
    return cubic_stage_inverse_arrays(grid, x)


def cubic_stage_inverse_arrays(grid: SpectralGrid, image: np.ndarray) -> np.ndarray:
    """Fixed point of x = [eta; psi] - mix(x) x for the doubled image [eta; psi],
    as a doubled vector [w; z], or per column of a stack.

    The map is a contraction for ||eta||_{m0} <= CUBIC_INV_BALL = 1/4, where
    the inverse is unique and satisfies ||w||_s <= 2 ||eta||_s. The iteration
    starts at the image, the first iterate from x = 0 (mix(0) 0 = 0). A column
    stops at the first step within CUBIC_INV_TOL and is frozen there while the
    others go on. The first column outside the ball, or still moving at the
    iteration cap, raises.
    """
    m0, n = grid.m0, grid.n_modes
    eta_norm = grid.coeff_norm(image[:n], m0)
    _refuse(eta_norm > CUBIC_INV_BALL, eta_norm,
            f"cubic stage inverse needs ||eta||_m0 <= {CUBIC_INV_BALL}, got {{:.4f}}")
    x, moving = image, np.ones(np.shape(eta_norm), dtype=bool)  # one flag per column
    for _ in range(CUBIC_INV_MAX_ITER - 1):  # the image was the first iterate
        x_new = image - mix_arrays(linearize(grid, x), x)
        # an array even for one vector, whose norm is a float; a NaN step is not done
        done = np.asarray(grid.doubled_norm(x_new - x, m0) <= CUBIC_INV_TOL)
        x = np.where(moving, x_new, x)
        moving &= ~done
        if not moving.any():
            return x
    exc = ConvergenceError("cubic stage inversion hit the iteration cap")
    exc.column = int(np.argmax(moving))
    raise exc


# -- rank-one correction of the diag stage ------------------------------------
#
# Differentiating the diag stage along the flow produces a rank-one operator
# acting on pairs: [alpha; beta] -> [psi; eta] * F * <Lambda(eta+psi), alpha+beta>
# at the state x = [eta; psi], with the scalar factor F below. (I + that
# operator) has the closed-form inverse implemented here; its oracle, the
# Sherman-Morrison solve of the same matrix, is the ``rank-one-inverse``
# suite's.


def rank_one_factor(grid: SpectralGrid, x: np.ndarray):
    """F = -1 / (4 (1 + 3P) sigma), or per column of a stack."""
    _, p, sigma = _speed_scalars(grid, x)
    return -1.0 / (4.0 * (1.0 + 3.0 * p) * sigma)


def _rank_one_functional(grid: SpectralGrid, x: np.ndarray, y: np.ndarray) -> complex:
    """<Lambda(eta+psi), alpha+beta> at x = [eta; psi] and y = [alpha; beta]."""
    (eta, psi), (alpha, beta) = halves(x), halves(y)
    return grid.pairing(eta + psi, alpha + beta, 0.5)


def rank_one_apply(grid: SpectralGrid, x: np.ndarray, vec: np.ndarray) -> np.ndarray:
    scale = rank_one_factor(grid, x) * _rank_one_functional(grid, x, vec)
    return x[grid.pair_swap] * scale


def rank_one_solve_closed(grid: SpectralGrid, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Closed form: rhs + [psi; eta] <Lambda(eta+psi), rhs_1+rhs_2> / (4 sigma^3)."""
    sigma = _speed_scalars(grid, x)[2]
    c = _rank_one_functional(grid, x, rhs) / (4.0 * sigma ** 3)
    return rhs + c * x[grid.pair_swap]


# -- full composition ----------------------------------------------------------


#: the stages from (w, z) to (u, v); inv runs them backwards
_STAGES = (cubic_stage, diag_stage, complex_stage, scale_stage)


def change_of_variables(
    direction: str,
    state: ConjugatePair | RealPair | PairStack,
    ball_radius: float | None = DEFAULT_BALL_RADIUS,
):
    """Composition of all four stages, on one state or on a stack of samples.

    fwd maps a :class:`ConjugatePair` (w, conj w) with ||w||_{m0} inside the
    operational ball to the physical :class:`RealPair` (u, v); inv goes back,
    requiring ||u||_{m0+1/2} + ||v||_{m0-1/2} inside the same ball and a
    conjugate pair as the result. Pass ``ball_radius=None`` to disable the
    precondition (diagnostics only).

    A :class:`PairStack` of the direction's input is mapped in one pass, each
    column checked as one state is: the ball precondition, Q real and >= 0,
    the ball of the cubic-stage inverse and its convergence, and, for inv,
    the conjugate defect. The call returns the stack of the columns before
    the first failing one, and that column's :class:`DomainError`, or None if
    every column maps. A one-state call runs the same code as a stack of one
    and raises that error instead. A :class:`ConvergenceError` of the first
    failing column is raised by both.
    """
    _check_direction(direction)
    fwd = direction == "fwd"
    kind = ConjugatePair if fwd else RealPair
    stacked = isinstance(state, PairStack)
    if not (stacked or isinstance(state, kind)):
        raise ParameterError(f"{direction} composition expects a {kind.__name__} or a PairStack")
    g = state.grid
    x = state.doubled
    failure = None

    def apply(step, *args) -> None:
        """x = step(*args, x). On a stack, a failing column and those after it
        are dropped and the step runs again on the columns before it."""
        nonlocal x, failure
        while x.shape[-1]:  # one state always has its 2n slots
            try:
                x = step(*args, x)
                return
            except (DomainError, ConvergenceError) as exc:
                if not stacked:
                    raise
                failure, x = exc, x[:, : exc.column]  # keep the columns before it

    if ball_radius is not None:
        apply(_check_ball, g, fwd, ball_radius)
    for stage in _STAGES if fwd else _STAGES[::-1]:
        apply(stage, direction, g)
    if not fwd:
        apply(_check_conjugate, g)
    if stacked:
        if isinstance(failure, ConvergenceError):
            raise failure
        return PairStack(g, x), failure
    a, b = halves(x)
    if fwd:
        return RealPair(ComplexField(g, a), ComplexField(g, b))
    return ConjugatePair(ComplexField(g, a))


def _check_ball(g: SpectralGrid, fwd: bool, radius: float, x: np.ndarray) -> np.ndarray:
    """The precondition of the composition: each column inside the operational ball."""
    size = g.coeff_norm(x[: g.n_modes], g.m0) if fwd else pair_norm(g, x, g.m0)
    name = "||w||_m0" if fwd else "||u|| + ||v||"
    _refuse(size > radius, size, f"{name} = {{:.4f}} outside the ball {radius}")
    return x


def _check_conjugate(g: SpectralGrid, x: np.ndarray) -> np.ndarray:
    """The postcondition of the inverse: each column a conjugate pair."""
    scale = np.maximum(1.0, np.max(np.abs(x[: g.n_modes]), axis=0))
    defect = conjugate_defect(g, x)
    _refuse(defect > 1e-9 * scale, defect, "inverse composition lost the conjugate-pair structure")
    return x


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

"""Vector fields of the diagonalized and normal-form systems.

After the diag stage the dynamics of a conjugate pair (a, b) is

    da/dt = -i sigma Lambda a + i (<Lb,Lb> - <La,La>) / (4 sigma^2) * b
    db/dt = the conjugate equation,

with the wave speed sigma = sqrt(1+2P). Every field here takes and returns
the pair as one doubled vector [a; b], the format of the change of variables
and of the coupling layer; a flow integrates the first half. One helper,
:func:`_diag_scalars`, reads P, sigma and the off-diagonal coefficient off a
conjugate pair for every field below. The field splits into four parts: the
linear diagonal rotation, its scalar tail (sigma - 1 times the rotation), the
cubic off-diagonal term, and a quintic-order off-diagonal remainder. The cubic stage then conjugates
this field to the normal-form field, available in two algebraically
equivalent evaluations:

* direct:     (I + jac)^{-1} applied to the diagonalized field at the
              cubic-stage image of (w, z), :func:`normal_form_direct_arrays`;
* structured: (1 + speed_shift) * linear  +  resonant cubic  +  explicit
              quintic remainder, :func:`normal_form_rhs_arrays`.

Each makes one (I + jac) solve: the solve is linear, so the structured form
adds its two terms under (I + jac)^{-1} before solving. Every flow and
:func:`normal_form_rhs` run the structured form; the direct form is its
reference, which only the ``normal-form-agreement`` suite calls. The
structured form never evaluates the diagonalized field at the image, so the
agreement of the two to rounding is the strongest regression check of the
whole operator algebra and is part of the acceptance suite. The resonant cubic
couples modes only within a resonance class and cancels identically in the
derivative of every Sobolev norm, which is what makes the norm growth of the
normal-form flow quartically small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import Linearization, linearize, mix_arrays, solve_jacobian_arrays
from .errors import DomainError
from .fields import halves
from .grid import SpectralGrid
from .transforms import _refuse, _speed_scalars

#: operational ball of the normal-form field: a state with ||w||_m0 at or
#: above it is rejected with DomainError before (I + jac) is solved
JACOBIAN_BALL = 0.5


# -- array layer --------------------------------------------------------------


def diag_linear_arrays(grid: SpectralGrid, x: np.ndarray) -> np.ndarray:
    """The linear rotation [-i Lambda a; +i Lambda b] of a doubled vector [a; b], or per column."""
    return grid.rotation.reshape((-1,) + (1,) * (x.ndim - 1)) * x


def _diag_scalars(grid, x) -> tuple[float, float, float]:
    """P, the wave speed sigma = sqrt(1+2P) and the off-diagonal coefficient
    s = (i/4)(<Lb,Lb> - <La,La>) / sigma^2 of the diagonalized field at the
    conjugate pair [a; b], where <La, Lb> = sum |j|^2 a_j b_{-j}. There
    <Lb,Lb> = conj <La,La>, so s is real and takes one pairing."""
    _, p, sigma = _speed_scalars(grid, x)
    a = x[: grid.n_modes]
    s = 0.5 * grid.pairing(a, a, 1.0).imag / (sigma * sigma)
    return p, sigma, s


def offdiag_cubic_arrays(lin: Linearization) -> np.ndarray:
    """Cubic off-diagonal part: (i/4)(<Lb,Lb> - <La,La>) [b; a] at the state
    [a; b] of ``lin``. Valid on any pair."""
    grid, (a, b) = lin.grid, halves(lin.state)
    s = 0.25j * (grid.pairing(b, b, 1.0) - grid.pairing(a, a, 1.0))
    return s * lin.state_swap


def diagonalized_rhs_arrays(grid, x) -> np.ndarray:
    """The diagonalized field at the conjugate pair [a; b], doubled."""
    _, sigma, s = _diag_scalars(grid, x)
    return sigma * diag_linear_arrays(grid, x) + s * x[grid.pair_swap]


def resonant_cubic_arrays(lin: Linearization) -> np.ndarray:
    """Residual cubic field at the state [a; b] of ``lin``: class-local sums
    sum_{|j|=|k|} a_j a_{-j} |j|^2 acting on b, and conversely; per column of a stack."""
    grid, sums = lin.grid, lin.sums
    j2f = grid.class_j2f.reshape((-1,) + (1,) * (sums.ndim - 1))
    sa, sb = j2f * sums.reshape((2, grid.n_classes) + sums.shape[1:])
    return np.concatenate(((-0.25j) * sa, (0.25j) * sb))[grid.pair_class_of] * lin.state_swap


@dataclass(frozen=True)
class RhsParts:
    """Decomposition of the diagonalized field into four doubled vectors that
    sum to the field."""

    diag_linear: np.ndarray
    diag_tail: np.ndarray
    offdiag_cubic: np.ndarray
    offdiag_tail: np.ndarray
    p_value: float


def decompose_rhs(g: SpectralGrid, x: np.ndarray) -> RhsParts:
    """The four parts at the conjugate pair [a; b], or per column of a stack of them."""
    p, sigma, _ = _diag_scalars(g, x)
    d1 = diag_linear_arrays(g, x)
    tail_factor = 2.0 * p / (1.0 + sigma)  # sigma - 1, without the cancellation
    # the cubic coefficient from a pairing of its own, so that the split also
    # checks the field's coefficient s = cubic / sigma^2 = cubic + tail
    a = x[: g.n_modes]
    cubic = 0.5 * g.pairing(a, a, 1.0).imag
    tail = -2.0 * p / (sigma * sigma) * cubic
    swap = x[g.pair_swap]
    return RhsParts(d1, tail_factor * d1, cubic * swap, tail * swap, p)


_BALL_MESSAGE = f"normal-form field needs ||w||_m0 < {JACOBIAN_BALL} for invertibility"


def _check_ball(grid, w) -> None:
    """Refuse a state at or above the ball, or the first such column of a stack."""
    norm = grid.coeff_norm(w, grid.m0)
    if w.ndim > 1:
        _refuse(norm >= JACOBIAN_BALL, norm, _BALL_MESSAGE + ", got {:.4f}")
    elif norm >= JACOBIAN_BALL:  # one state keeps its one comparison
        raise DomainError(_BALL_MESSAGE)


@dataclass(frozen=True)
class NormalFormRhs:
    """The normal-form field at one state, split as total = linear + cubic +
    quintic, where linear is the rotation scaled by the wave speed
    1 + speed_shift; each part is the (first, second) halves of its doubled
    vector, as views."""

    total: tuple[np.ndarray, np.ndarray]
    linear: tuple[np.ndarray, np.ndarray]
    cubic: tuple[np.ndarray, np.ndarray]
    quintic: tuple[np.ndarray, np.ndarray]
    speed_shift: float


def _normal_form_field(grid, x):
    """The doubled parts sigma * rotation, resonant cubic, solved term at [w; z]; P, sigma."""
    _check_ball(grid, x[: grid.n_modes])
    lin = linearize(grid, x)  # mix, the cubic terms and the solve all read it
    image = x + mix_arrays(lin, x)  # [eta; psi]
    # the diagonalized field's scalars at the transformed pair
    p, sigma, s = _diag_scalars(grid, image)
    cubic = resonant_cubic_arrays(lin)
    # with r = b3 - cubic, jac (I+jac)^{-1} r = r - (I+jac)^{-1} r; the
    # solve is linear, so that term, scaled by the wave speed, and the full
    # off-diagonal term s [psi; eta] take one solve together
    y = solve_jacobian_arrays(
        lin, s * image[grid.pair_swap] - sigma * (offdiag_cubic_arrays(lin) - cubic)
    )
    return sigma * diag_linear_arrays(grid, x), cubic, y, p, sigma


def normal_form_rhs_arrays(grid, x) -> np.ndarray:
    """The normal-form field at the conjugate pair [w; z], doubled, in its
    structured evaluation, the one every flow integrates."""
    linear, _, y, _, _ = _normal_form_field(grid, x)
    return linear + y


def normal_form_direct_arrays(grid, x) -> np.ndarray:
    """The normal-form field at [w; z], doubled, in its direct evaluation, the reference
    of :func:`normal_form_rhs_arrays`: (I + jac)^{-1} applied to the
    diagonalized field at the cubic-stage image [w; z] + mix(w, z)[w; z]."""
    _check_ball(grid, x[: grid.n_modes])
    lin = linearize(grid, x)
    return solve_jacobian_arrays(lin, diagonalized_rhs_arrays(grid, x + mix_arrays(lin, x)))


def energy_derivative_arrays(grid, w, field_first: np.ndarray, s: float):
    """d/dt of ||w||_s^2 for a real-structure field: 2 Re sum |j|^{2s} F_j conj(w_j);
    per column of mode-first stacks w and F, as a length-m array."""
    if w.ndim > 1:
        return 2.0 * np.dot(grid.weight(s), np.real(field_first * np.conj(w)))
    return 2.0 * float(np.real(np.dot(grid.weight(s) * field_first, np.conj(w))))


def normal_form_rhs(grid: SpectralGrid, x: np.ndarray) -> NormalFormRhs:
    """The normal-form field at the conjugate pair [w; z], with its parts."""
    linear, cubic, y, p, sigma = _normal_form_field(grid, x)
    return NormalFormRhs(
        total=halves(linear + y),
        linear=halves(linear),
        cubic=halves(cubic),
        quintic=halves(y - cubic),
        speed_shift=2.0 * p / (1.0 + sigma),  # sigma - 1, without the cancellation
    )

"""Vector fields of the diagonalized and normal-form systems.

After the diag stage the dynamics of a conjugate pair (a, b) is

    da/dt = -i sigma Lambda a + i (<Lb,Lb> - <La,La>) / (4 sigma^2) * b
    db/dt = the conjugate equation,

with the wave speed sigma = sqrt(1+2P). One helper, :func:`_diag_scalars`,
reads P, sigma and the off-diagonal coefficient off a conjugate pair for every
field below. The field splits into four parts: the linear diagonal rotation,
its scalar tail (sigma - 1 times the rotation), the cubic off-diagonal term,
and a quintic-order off-diagonal remainder. The cubic stage then conjugates
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
from .fields import ArrayPair, ConjugatePair, FieldPair, field_pair
from .grid import SpectralGrid
from .transforms import _speed_scalars_arrays

#: operational ball of the normal-form field: a state with ||w||_m0 at or
#: above it is rejected with DomainError before (I + jac) is solved
JACOBIAN_BALL = 0.5


# -- array layer --------------------------------------------------------------


def diag_linear_arrays(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> ArrayPair:
    """The linear rotation (-i Lambda a, +i Lambda b)."""
    return -1j * grid.absj * a, 1j * grid.absj * b


def _diag_scalars(grid, a, b) -> tuple[float, float, float]:
    """P, the wave speed sigma = sqrt(1+2P) and the off-diagonal coefficient
    s = (i/4)(<Lb,Lb> - <La,La>) / sigma^2 of the diagonalized field at the
    conjugate pair (a, b), where <La, Lb> = sum |j|^2 a_j b_{-j}. There
    <Lb,Lb> = conj <La,La>, so s is real and takes one pairing."""
    _, p, sigma = _speed_scalars_arrays(grid, a, b)
    s = 0.5 * grid.pairing(a, a, grid.j2f).imag / (sigma * sigma)
    return p, sigma, s


def offdiag_cubic_arrays(lin: Linearization) -> ArrayPair:
    """Cubic off-diagonal part: (i/4)(<Lb,Lb> - <La,La>) (b, a) at the state
    (a, b) of ``lin``. Valid on any pair."""
    grid, a, b = lin.grid, lin.w, lin.z
    s = 0.25j * (grid.pairing(b, b, grid.j2f) - grid.pairing(a, a, grid.j2f))
    return s * b, s * a


def diagonalized_rhs_arrays(grid, a, b) -> ArrayPair:
    _, sigma, s = _diag_scalars(grid, a, b)
    return (-1j * sigma) * (grid.absj * a) + s * b, (1j * sigma) * (grid.absj * b) + s * a


def resonant_cubic_arrays(lin: Linearization) -> ArrayPair:
    """Residual cubic field at the state (a, b) of ``lin``: class-local sums
    sum_{|j|=|k|} a_j a_{-j} |j|^2 acting on b, and conversely."""
    grid, a, b = lin.grid, lin.w, lin.z
    sa = grid.class_j2f * lin.sww
    sb = grid.class_j2f * lin.szz
    cls = grid.class_of
    return (-0.25j) * sa[cls] * b, (0.25j) * sb[cls] * a


@dataclass(frozen=True)
class RhsParts:
    """Decomposition of the diagonalized field; the four parts sum to the field."""

    diag_linear: FieldPair
    diag_tail: FieldPair
    offdiag_cubic: FieldPair
    offdiag_tail: FieldPair
    p_value: float


def decompose_rhs(pair: ConjugatePair) -> RhsParts:
    g = pair.grid
    a, b = pair.w.coeffs, pair.z.coeffs
    p, sigma, _ = _diag_scalars(g, a, b)
    d1 = diag_linear_arrays(g, a, b)
    tail_factor = 2.0 * p / (1.0 + sigma)  # sigma - 1, without the cancellation
    # the cubic coefficient from a pairing of its own, so that the split also
    # checks the field's coefficient s = cubic / sigma^2 = cubic + tail
    cubic = 0.5 * g.pairing(a, a, g.j2f).imag
    tail = -2.0 * p / (sigma * sigma) * cubic

    return RhsParts(
        diag_linear=field_pair(g, d1),
        diag_tail=field_pair(g, (tail_factor * d1[0], tail_factor * d1[1])),
        offdiag_cubic=field_pair(g, (cubic * b, cubic * a)),
        offdiag_tail=field_pair(g, (tail * b, tail * a)),
        p_value=p,
    )


def _check_ball(grid, w) -> None:
    if grid.coeff_norm(w, grid.m0) >= JACOBIAN_BALL:
        raise DomainError(
            f"normal-form field needs ||w||_m0 < {JACOBIAN_BALL} for invertibility"
        )


@dataclass(frozen=True)
class NormalFormRhs:
    """The normal-form field at one state as coefficient-array pairs, split
    as total = linear + cubic + quintic, where linear is the rotation scaled
    by the wave speed 1 + speed_shift."""

    total: ArrayPair
    linear: ArrayPair
    cubic: ArrayPair
    quintic: ArrayPair
    speed_shift: float


def _normal_form_parts(grid, w, z) -> NormalFormRhs:
    _check_ball(grid, w)
    lin = linearize(grid, w, z)  # mix, the cubic terms and the solve all read it
    ma, mb = mix_arrays(lin, w, z)
    eta, psi = w + ma, z + mb
    # the diagonalized field's scalars at the transformed pair
    p, sigma, s = _diag_scalars(grid, eta, psi)

    d1 = diag_linear_arrays(grid, w, z)
    linear = sigma * d1[0], sigma * d1[1]
    cubic = resonant_cubic_arrays(lin)

    b3a, b3b = offdiag_cubic_arrays(lin)
    # with r = b3 - cubic, jac (I+jac)^{-1} r = r - (I+jac)^{-1} r; the
    # solve is linear, so that term, scaled by the wave speed, and the full
    # off-diagonal term s (psi, eta) take one solve together
    xa, xb = solve_jacobian_arrays(lin, (
        s * psi - sigma * (b3a - cubic[0]),
        s * eta - sigma * (b3b - cubic[1]),
    ))
    return NormalFormRhs(
        total=(linear[0] + xa, linear[1] + xb),
        linear=linear,
        cubic=cubic,
        quintic=(xa - cubic[0], xb - cubic[1]),
        speed_shift=2.0 * p / (1.0 + sigma),  # sigma - 1, without the cancellation
    )


def normal_form_rhs_arrays(grid, w, z) -> ArrayPair:
    """The normal-form field at (w, z) in its structured evaluation, the one
    every flow integrates."""
    return _normal_form_parts(grid, w, z).total


def normal_form_direct_arrays(grid, w, z) -> ArrayPair:
    """The normal-form field at (w, z) in its direct evaluation, the reference
    of :func:`normal_form_rhs_arrays`: (I + jac)^{-1} applied to the
    diagonalized field at the cubic-stage image (w, z) + mix(w, z)."""
    _check_ball(grid, w)
    lin = linearize(grid, w, z)
    ma, mb = mix_arrays(lin, w, z)
    return solve_jacobian_arrays(lin, diagonalized_rhs_arrays(grid, w + ma, z + mb))


def energy_derivative_arrays(grid, w, field_first: np.ndarray, s: float) -> float:
    """d/dt of ||w||_s^2 for a real-structure field: 2 Re sum |j|^{2s} F_j conj(w_j)."""
    return 2.0 * float(np.real(np.dot(grid.weight(s) * field_first, np.conj(w))))


def normal_form_rhs(pair: ConjugatePair) -> NormalFormRhs:
    """The normal-form field at a conjugate pair, with its parts."""
    return _normal_form_parts(pair.grid, pair.w.coeffs, pair.z.coeffs)

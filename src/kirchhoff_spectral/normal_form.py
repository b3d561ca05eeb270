"""Vector fields of the diagonalized and normal-form systems.

After the diag stage the dynamics of a conjugate pair (a, b) is

    da/dt = -i sqrt(1+2P) Lambda a + i (<Lb,Lb> - <La,La>) / (4(1+2P)) * b
    db/dt = the conjugate equation,

which splits into four parts: the linear diagonal rotation, its scalar tail
(sqrt(1+2P) - 1 times the rotation), the cubic off-diagonal term, and a
quintic-order off-diagonal remainder. The cubic stage then conjugates this
field to the normal-form field, available in two algebraically equivalent
evaluations:

* direct:     (I + jac)^{-1} applied to the diagonalized field at the
              cubic-stage image of (w, z);
* structured: (1 + speed_shift) * linear  +  resonant cubic  +  explicit
              quintic remainder.

Their agreement to rounding is the strongest regression check of the whole
operator algebra and is part of the acceptance suite. The resonant cubic
couples modes only within a resonance class and cancels identically in the
derivative of every Sobolev norm, which is what makes the norm growth of the
normal-form flow quartically small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import mix_arrays, solve_jacobian_arrays
from .errors import DomainError, ParameterError
from .fields import ArrayPair, ConjugatePair, FieldPair, field_pair
from .grid import SpectralGrid
from .transforms import _q_value_arrays, phi_inv

#: operational ball of the normal-form field: a state with ||w||_m0 at or
#: above it is rejected with DomainError before (I + jac) is solved
JACOBIAN_BALL = 0.5
#: the two evaluations of the normal-form field
METHODS = ("structured", "direct")


# -- array layer --------------------------------------------------------------


def diag_linear_arrays(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> ArrayPair:
    """The linear rotation (-i Lambda a, +i Lambda b)."""
    return -1j * grid.absj * a, 1j * grid.absj * b


def _offdiag_scalar(grid, a, b) -> complex:
    """<Lb, Lb> - <La, La>, where <La, Lb> = sum |j|^2 a_j b_{-j}; purely imaginary
    on conjugate pairs."""
    return grid.pairing(b, b, grid.j2f) - grid.pairing(a, a, grid.j2f)


def _offdiag_scalar_conj(grid, a) -> complex:
    """The same scalar on a conjugate pair (b = conj of a), where
    <Lb, Lb> = conj(<La, La>) exactly: one pairing, exactly imaginary result."""
    return -2j * grid.pairing(a, a, grid.j2f).imag


def offdiag_cubic_arrays(grid, a, b) -> ArrayPair:
    """Cubic off-diagonal part: (i/4)(<Lb,Lb> - <La,La>) (b, a). Valid on any pair."""
    s = 0.25j * _offdiag_scalar(grid, a, b)
    return s * b, s * a


def complexified_rhs_arrays(grid, a, b) -> ArrayPair:
    """The system in complex-conjugate coordinates, before the diag stage:

        da/dt = -i Lambda a - (i/4) <Lambda(a+b), a+b> Lambda(a+b)

    and the mirrored equation for b. Polynomial in (a, b), so valid on any
    pair; on the conjugate subspace it is the physical system itself.
    """
    c = a + b
    q = 0.25 * grid.pairing(c, c, grid.absj)
    lam_c = grid.absj * c
    return -1j * (grid.absj * a) - (1j * q) * lam_c, 1j * (grid.absj * b) + (1j * q) * lam_c


def diagonalized_rhs_arrays(grid, a, b) -> ArrayPair:
    p = phi_inv(_q_value_arrays(grid, a, b))  # also rejects non-conjugate pairs
    sq = math.sqrt(1.0 + 2.0 * p)
    s = 0.25j * _offdiag_scalar_conj(grid, a) / (1.0 + 2.0 * p)
    return (-1j * sq) * (grid.absj * a) + s * b, (1j * sq) * (grid.absj * b) + s * a


def resonant_cubic_arrays(grid, a, b) -> ArrayPair:
    """Residual cubic field: class-local sums sum_{|j|=|k|} a_j a_{-j} |j|^2 acting on b, and conversely."""
    sa = grid.class_j2f * grid.class_sums(a * a[grid.neg_index])
    sb = grid.class_j2f * grid.class_sums(b * b[grid.neg_index])
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
    p = phi_inv(_q_value_arrays(g, a, b))
    d1 = diag_linear_arrays(g, a, b)
    tail_factor = math.sqrt(1.0 + 2.0 * p) - 1.0
    # shared by the cubic and quintic off-diagonal parts; exactly imaginary
    scal = _offdiag_scalar_conj(g, a)
    b3 = (0.25j * scal) * b, (0.25j * scal) * a
    r5_factor = -0.5j * p / (1.0 + 2.0 * p) * scal
    r5 = r5_factor * b, r5_factor * a

    return RhsParts(
        diag_linear=field_pair(g, d1),
        diag_tail=field_pair(g, (tail_factor * d1[0], tail_factor * d1[1])),
        offdiag_cubic=field_pair(g, b3),
        offdiag_tail=field_pair(g, r5),
        p_value=p,
    )


def _normal_form_parts(grid, w, z, method: str) -> dict:
    if grid.coeff_norm(w, grid.m0) >= JACOBIAN_BALL:
        raise DomainError(
            f"normal-form field needs ||w||_m0 < {JACOBIAN_BALL} for invertibility"
        )
    ma, mb = mix_arrays(grid, w, z, w, z)
    eta, psi = w + ma, z + mb
    p4 = phi_inv(_q_value_arrays(grid, eta, psi))
    speed_shift = math.sqrt(1.0 + 2.0 * p4) - 1.0

    d1 = diag_linear_arrays(grid, w, z)
    linear = (1.0 + speed_shift) * d1[0], (1.0 + speed_shift) * d1[1]
    cubic = resonant_cubic_arrays(grid, w, z)

    if method == "direct":
        xa, xb = diagonalized_rhs_arrays(grid, eta, psi)
        ta, tb = solve_jacobian_arrays(grid, w, z, (xa, xb))
        quintic = ta - linear[0] - cubic[0], tb - linear[1] - cubic[1]
        total = ta, tb
    elif method == "structured":
        b3a, b3b = offdiag_cubic_arrays(grid, w, z)
        sa, sb = b3a - cubic[0], b3b - cubic[1]
        ya, yb = solve_jacobian_arrays(grid, w, z, (sa, sb))
        # jac (I+jac)^{-1} s = s - y;  the speed-shift term reuses the same solve
        qa = (sa - ya) - speed_shift * ya
        qb = (sb - yb) - speed_shift * yb
        # full off-diagonal term at the transformed pair, cubic plus quintic tail
        s_phi = 0.25j * _offdiag_scalar(grid, eta, psi) / (1.0 + 2.0 * p4)
        ua, ub = solve_jacobian_arrays(grid, w, z, (s_phi * psi, s_phi * eta))
        qa = qa + ua - b3a
        qb = qb + ub - b3b
        quintic = qa, qb
        total = linear[0] + cubic[0] + qa, linear[1] + cubic[1] + qb
    else:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")

    return {
        "total": total,
        "linear": linear,
        "cubic": cubic,
        "quintic": quintic,
        "speed_shift": speed_shift,
    }


def normal_form_rhs_arrays(grid, w, z, method: str = "structured") -> ArrayPair:
    parts = _normal_form_parts(grid, w, z, method)
    return parts["total"]


def energy_derivative_arrays(grid, w, field_first: np.ndarray, s: float) -> float:
    """d/dt of ||w||_s^2 for a real-structure field: 2 Re sum |j|^{2s} F_j conj(w_j)."""
    return 2.0 * float(np.real(np.dot(grid.weight(s) * field_first, np.conj(w))))


# -- field layer ---------------------------------------------------------------


@dataclass(frozen=True)
class NormalFormRhs:
    """Normal-form field split as (1 + speed_shift) * linear + cubic + quintic."""

    total: FieldPair
    linear_part: FieldPair
    cubic_part: FieldPair
    quintic_part: FieldPair
    speed_shift: float


def normal_form_rhs(pair: ConjugatePair, method: str = "structured") -> NormalFormRhs:
    g = pair.grid
    parts = _normal_form_parts(g, pair.w.coeffs, pair.z.coeffs, method)

    return NormalFormRhs(
        total=field_pair(g, parts["total"]),
        linear_part=field_pair(g, parts["linear"]),
        cubic_part=field_pair(g, parts["cubic"]),
        quintic_part=field_pair(g, parts["quintic"]),
        speed_shift=parts["speed_shift"],
    )


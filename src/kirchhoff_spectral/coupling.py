"""Bilinear coupling operators of the cubic normal-form stage.

The cubic stage corrects the identity by an off-diagonal operator built from
two families of bilinear maps. For coefficient vectors u, v, h the action is

    out_k = ( sum_j u_j v_{-j} c(j, k) ) h_k

with c(j, k) = |j|^2 / (8(|j| -+ |k|)): the "diff" family divides by the
eigenvalue difference (and vanishes on resonant pairs |j| = |k|), the "sum"
family by the eigenvalue sum. The scalar multiplying h_k depends on k only
through |k|, so everything reduces to per-resonance-class sums and a small
class-by-class table lookup (O(n_modes + n_classes^2) per application).

Operators defined here:

* ``mix``  -- the block off-diagonal operator whose action on (alpha, beta) is
  (diff[w,w] beta + sum[z,z] beta,  sum[w,w] alpha + diff[z,z] alpha);
* ``jac``  -- mix plus the chain-rule correction coming from differentiating
  the state-dependent coefficients along the flow, i.e. (I + jac) is the
  differential of the cubic stage;
* Neumann and dense solvers for (I + jac) x = rhs, kept as two independent
  routes so one can serve as the oracle for the other.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NumericalError, ParameterError
from .fields import ArrayPair, ComplexField, _same_grid
from .grid import SpectralGrid

NEUMANN_TERM_TOL = 1e-15
NEUMANN_MAX_TERMS = 400
SOLVE_RESIDUAL_TOL = 1e-12


def coupling_coefficient(kind: str, j, k) -> float:
    """Coefficient c(j, k) for raw lattice points (grid-free scalar form).

    The "diff" denominator is evaluated through the exact integer
    |j|^2 - |k|^2 to stay accurate near |j| ~ |k| in d >= 2.
    """
    j = np.atleast_1d(np.asarray(j, dtype=np.int64))
    k = np.atleast_1d(np.asarray(k, dtype=np.int64))
    j2 = int(np.dot(j, j))
    k2 = int(np.dot(k, k))
    if j2 == 0 or k2 == 0:
        raise ParameterError("coupling coefficients are defined for nonzero modes only")
    if kind == "diff":
        if j2 == k2:
            return 0.0
        return j2 * (np.sqrt(j2) + np.sqrt(k2)) / (8.0 * (j2 - k2))
    if kind == "sum":
        return j2 / (8.0 * (np.sqrt(j2) + np.sqrt(k2)))
    raise ParameterError(f"kind must be 'diff' or 'sum', got {kind!r}")


# -- array layer (used by the field evaluators in hot loops) ----------------


def class_multiplier(grid: SpectralGrid, kind: str, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-class scalar sum_j u_j v_{-j} c(j, class); the |j|^2 lives in the table."""
    if kind == "diff":
        table = grid.diff_table
    elif kind == "sum":
        table = grid.sum_table
    else:
        raise ParameterError(f"kind must be 'diff' or 'sum', got {kind!r}")
    sums = grid.class_sums(u * v[grid.neg_index])
    return sums @ table


def coupling_arrays(grid, kind: str, u, v, h) -> np.ndarray:
    return class_multiplier(grid, kind, u, v)[grid.class_of] * h


def mix_multipliers(grid, w, z) -> ArrayPair:
    """Diagonal (per-class) symbols of the two blocks of the mix operator."""
    sw = grid.class_sums(w * w[grid.neg_index])
    sz = grid.class_sums(z * z[grid.neg_index])
    m12 = sw @ grid.diff_table + sz @ grid.sum_table
    m21 = sw @ grid.sum_table + sz @ grid.diff_table
    return m12, m21


def mix_arrays(grid, w, z, alpha, beta) -> ArrayPair:
    m12, m21 = mix_multipliers(grid, w, z)
    return m12[grid.class_of] * beta, m21[grid.class_of] * alpha


def jac_arrays(grid, w, z, alpha, beta) -> ArrayPair:
    """mix(w,z)(alpha,beta) plus the coefficient-derivative terms.

    First component:  diff[w,w] b + sum[z,z] b + 2 diff[w,a] z + 2 sum[z,b] z
    Second component: sum[w,w] a + diff[z,z] a + 2 sum[w,a] w + 2 diff[z,b] w
    """
    first, second = mix_arrays(grid, w, z, alpha, beta)
    cls = grid.class_of
    mwa_diff = class_multiplier(grid, "diff", w, alpha)
    mwa_sum = class_multiplier(grid, "sum", w, alpha)
    mzb_diff = class_multiplier(grid, "diff", z, beta)
    mzb_sum = class_multiplier(grid, "sum", z, beta)
    first = first + 2.0 * (mwa_diff[cls] * z) + 2.0 * (mzb_sum[cls] * z)
    second = second + 2.0 * (mwa_sum[cls] * w) + 2.0 * (mzb_diff[cls] * w)
    return first, second


def _pair_norm(grid: SpectralGrid, pair: ArrayPair) -> float:
    m0 = grid.m0
    return max(grid.coeff_norm(pair[0], m0), grid.coeff_norm(pair[1], m0))


def solve_jacobian_arrays(grid, w, z, rhs: ArrayPair, method: str = "neumann") -> ArrayPair:
    """Solve (I + jac(w, z)) x = rhs.

    "neumann" iterates the alternating series sum (-jac)^n rhs and stops when
    a term drops below ``NEUMANN_TERM_TOL``; five consecutive non-decreasing
    term norms abort with :class:`ConvergenceError`. "dense" assembles the
    2n x 2n matrix of the operator and solves directly (the oracle route).
    Every solve verifies its residual to ``SOLVE_RESIDUAL_TOL`` relative.
    """
    ra, rb = np.asarray(rhs[0]), np.asarray(rhs[1])
    if method == "neumann":
        xa, xb = ra.copy(), rb.copy()
        ta, tb = ra, rb
        prev = np.inf
        bad = 0
        for _ in range(NEUMANN_MAX_TERMS):
            ka, kb = jac_arrays(grid, w, z, ta, tb)
            ta, tb = -ka, -kb
            xa = xa + ta
            xb = xb + tb
            size = _pair_norm(grid, (ta, tb))
            if size < NEUMANN_TERM_TOL:
                break
            if size >= prev:
                bad += 1
                if bad >= 5:
                    raise ConvergenceError(
                        f"Neumann series not contracting (term norm {size:.3e}); "
                        "state is outside the invertibility ball"
                    )
            else:
                bad = 0
            prev = size
        else:
            raise ConvergenceError("Neumann series did not reach the term tolerance")
    elif method == "dense":
        mat = dense_jacobian_matrix(grid, w, z)
        n = grid.n_modes
        try:
            sol = np.linalg.solve(mat, np.concatenate([ra, rb]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense jacobian solve failed ({exc}); state too large") from exc
        xa, xb = sol[:n], sol[n:]
    else:
        raise ParameterError(f"method must be 'neumann' or 'dense', got {method!r}")

    ka, kb = jac_arrays(grid, w, z, xa, xb)
    res = _pair_norm(grid, (xa + ka - ra, xb + kb - rb))
    scale = max(1.0, _pair_norm(grid, (ra, rb)))
    if res > SOLVE_RESIDUAL_TOL * scale:
        raise NumericalError(f"jacobian solve residual {res:.3e} exceeds tolerance")
    return xa, xb


def dense_jacobian_matrix(grid, w, z) -> np.ndarray:
    """Matrix of (I + jac(w, z)) on the doubled coefficient basis."""
    n = grid.n_modes
    mat = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    zero = np.zeros(n, dtype=np.complex128)
    basis = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        basis[i] = 1.0
        ka, kb = jac_arrays(grid, w, z, basis, zero)
        mat[:n, i] = ka
        mat[n:, i] = kb
        ka, kb = jac_arrays(grid, w, z, zero, basis)
        mat[:n, n + i] = ka
        mat[n:, n + i] = kb
        basis[i] = 0.0
    mat[np.diag_indices(2 * n)] += 1.0
    return mat


# -- field layer -------------------------------------------------------------


def apply_coupling(kind: str, u: ComplexField, v: ComplexField, h: ComplexField) -> ComplexField:
    _same_grid(u, v)
    _same_grid(u, h)
    return ComplexField(u.grid, coupling_arrays(u.grid, kind, u.coeffs, v.coeffs, h.coeffs))


# -- small divisors ----------------------------------------------------------


def representable_square_norms(d: int, radius: int) -> np.ndarray:
    """All integers in [1, radius^2] that are |j|^2 for some j in Z^d."""
    r2 = radius * radius
    if d == 1:
        return np.arange(1, radius + 1, dtype=np.int64) ** 2
    q = np.arange(0, radius + 1, dtype=np.int64) ** 2
    if d == 2:
        vals = (q[:, None] + q[None, :]).ravel()
    elif d == 3:
        vals = (q[:, None, None] + q[None, :, None] + q[None, None, :]).ravel()
    else:
        raise ParameterError(f"dimension must be 1, 2 or 3, got {d}")
    vals = np.unique(vals)
    return vals[(vals >= 1) & (vals <= r2)]


def small_divisor_check(d: int, radius: int = 50) -> dict:
    """Exhaustive check of 1/||j|-|k|| <= 3|j| over all nonresonant lattice pairs.

    Both sides depend on (j, k) only through the squared norms, so checking
    every ordered pair of representable squared norms up to radius^2 covers
    every lattice pair with |j|, |k| <= radius exactly.
    """
    vals = representable_square_norms(d, radius)
    roots = np.sqrt(vals.astype(np.float64))
    n1 = vals[:, None].astype(np.float64)
    n2 = vals[None, :].astype(np.float64)
    r1 = roots[:, None]
    r2 = roots[None, :]
    # margin = 3|j| * ||j|-|k|| = 3 sqrt(n1) |n1-n2| / (sqrt(n1)+sqrt(n2)), needs >= 1
    margin = 3.0 * r1 * np.abs(n1 - n2) / (r1 + r2)
    off = ~np.eye(len(vals), dtype=bool)
    worst = float(np.min(margin[off]))
    violations = int(np.count_nonzero(margin[off] < 1.0))
    return {
        "d": d,
        "radius": radius,
        "class_pairs": int(off.sum()),
        "worst_margin": worst,
        "violations": violations,
    }

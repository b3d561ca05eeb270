"""Bilinear coupling operators of the cubic normal-form stage.

The cubic stage corrects the identity by an off-diagonal operator built from
two families of bilinear maps. For coefficient vectors u, v, h the action is

    out_k = ( sum_j u_j v_{-j} c(j, k) ) h_k

with c(j, k) = |j|^2 / (8(|j| -+ |k|)): the "diff" family divides by the
eigenvalue difference (and vanishes on resonant pairs |j| = |k|), the "sum"
family by the eigenvalue sum. The scalar multiplying h_k depends on k only
through |k|, so everything reduces to per-resonance-class sums and a small
class-by-class table lookup (O(n_modes + n_classes^2) per vector).

The array layer takes a leading batch axis: the operands (u, v, h, alpha,
beta) may be (m, n_modes) blocks, one vector per row, while the state (w, z)
stays one vector. ``neg_index`` and ``class_of`` index the last axis and the
class sums reduce along it, so a 1-D operand gives the same operations, and
the same bits, as one row of a block.

Operators defined here:

* ``mix``  -- the block off-diagonal operator whose action on (alpha, beta) is
  (diff[w,w] beta + sum[z,z] beta,  sum[w,w] alpha + diff[z,z] alpha);
* ``jac``  -- mix plus the chain-rule correction coming from differentiating
  the state-dependent coefficients along the flow, i.e. (I + jac) is the
  differential of the cubic stage;
* the class-space solve of (I + jac) x = rhs, and its oracle: the matrix of
  (I + jac) assembled pairwise, without the class sums and tables.

The class-space solve is exact. (I + jac) is a per-mode 2x2 block
M = [[1, m12], [m21, 1]] (the identity plus mix, m12 and m21 its symbols)
plus a correction L T R of rank at most 2 * n_classes:
R takes a pair to its class sums (sum w alpha_{-j}, sum z beta_{-j}),
T = [[D^T, S^T], [S^T, D^T]] holds the diff and sum tables, and
L(g1, g2) = (2 z g1[class], 2 w g2[class]). The Woodbury identity (Hager,
SIAM Review 1989) reduces the solve to one system of size 2 * n_classes.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ParameterError
from .fields import ArrayPair, ComplexField, _same_grid
from .grid import SpectralGrid, coupling_tables

SOLVE_RESIDUAL_TOL = 1e-12


# -- array layer (used by the field evaluators in hot loops) ----------------


def _pair_sums(grid: SpectralGrid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-class sums of u_j v_{-j}; v may carry a leading batch axis."""
    return grid.class_sums(u * v.take(grid.neg_index, axis=-1))


def _times_table(sums: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sums @ table as one vector-matrix product per row, so that each row of a
    batch rounds exactly as it would alone (a matrix-matrix product may not)."""
    return (sums[..., None, :] @ table)[..., 0, :]


def class_multiplier(grid: SpectralGrid, kind: str, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-class scalar sum_j u_j v_{-j} c(j, class); the |j|^2 lives in the table."""
    if kind == "diff":
        table = grid.diff_table
    elif kind == "sum":
        table = grid.sum_table
    else:
        raise ParameterError(f"kind must be 'diff' or 'sum', got {kind!r}")
    return _times_table(_pair_sums(grid, u, v), table)


def coupling_arrays(grid, kind: str, u, v, h) -> np.ndarray:
    return class_multiplier(grid, kind, u, v).take(grid.class_of, axis=-1) * h


def _table_action(grid, p, q) -> ArrayPair:
    """T (p, q) = (D^T p + S^T q, S^T p + D^T q) on a pair of per-class vectors."""
    dt, st = grid.diff_table, grid.sum_table
    return p @ dt + q @ st, p @ st + q @ dt


def mix_arrays(grid, w, z, alpha, beta) -> ArrayPair:
    # m12, m21: the diagonal (per-class) symbols of the two blocks
    neg = grid.neg_index
    m12, m21 = _table_action(grid, grid.class_sums(w * w[neg]), grid.class_sums(z * z[neg]))
    return m12[grid.class_of] * beta, m21[grid.class_of] * alpha


def jac_arrays(grid, w, z, alpha, beta) -> ArrayPair:
    """mix(w,z)(alpha,beta) plus the coefficient-derivative terms.

    First component:  diff[w,w] b + sum[z,z] b + 2 diff[w,a] z + 2 sum[z,b] z
    Second component: sum[w,w] a + diff[z,z] a + 2 sum[w,a] w + 2 diff[z,b] w

    alpha and beta may be (m, n_modes) blocks, one vector per row.
    """
    first, second = mix_arrays(grid, w, z, alpha, beta)
    swa, szb = _pair_sums(grid, w, alpha), _pair_sums(grid, z, beta)
    cls, dt, st = grid.class_of, grid.diff_table, grid.sum_table
    first = (
        first
        + 2.0 * (_times_table(swa, dt).take(cls, axis=-1) * z)
        + 2.0 * (_times_table(szb, st).take(cls, axis=-1) * z)
    )
    second = (
        second
        + 2.0 * (_times_table(swa, st).take(cls, axis=-1) * w)
        + 2.0 * (_times_table(szb, dt).take(cls, axis=-1) * w)
    )
    return first, second


def _pair_norm(grid: SpectralGrid, pair: ArrayPair) -> float:
    m0 = grid.m0
    return max(grid.coeff_norm(pair[0], m0), grid.coeff_norm(pair[1], m0))


def _class_solve(grid, w, z, ra, rb) -> ArrayPair:
    """Woodbury solve of (M + L T R) x = r over the resonance classes.

    With g = T R x the system splits into (I + T K) g = T R M^{-1} r and
    x = M^{-1} (r - L g), where K = R M^{-1} L is one 2x2 block per class:
    (2 / det) [[swz, -m12 sww], [-m21 szz, swz]] with the class sums
    sww, szz, swz of w w_{-j}, z z_{-j}, w z_{-j} and det = 1 - m12 m21.
    """
    neg, cls = grid.neg_index, grid.class_of
    sww = grid.class_sums(w * w[neg])
    szz = grid.class_sums(z * z[neg])
    swz = grid.class_sums(w * z[neg])
    m12, m21 = _table_action(grid, sww, szz)
    det = 1.0 - m12 * m21
    if not (np.isfinite(det).all() and det.all()):
        raise NumericalError("class-space solve: a per-mode block determinant is zero or not finite")
    f = 2.0 / det
    k_diag, k12, k21 = f * swz, -f * m12 * sww, -f * m21 * szz

    # capacitance I + T K: the table blocks of T with their columns scaled by K
    nc = grid.n_classes
    d_t, s_t = grid.diff_table.T, grid.sum_table.T
    cap = np.empty((2 * nc, 2 * nc), dtype=np.complex128)
    cap[:nc, :nc] = d_t * k_diag + s_t * k21
    cap[:nc, nc:] = d_t * k12 + s_t * k_diag
    cap[nc:, :nc] = s_t * k_diag + d_t * k21
    cap[nc:, nc:] = s_t * k12 + d_t * k_diag
    cap.flat[:: 2 * nc + 1] += 1.0

    e12, e21, e_det = m12[cls], m21[cls], det[cls]
    ya = (ra - e12 * rb) / e_det
    yb = (rb - e21 * ra) / e_det
    p = grid.class_sums(w * ya[neg])
    q = grid.class_sums(z * yb[neg])
    try:
        g = np.linalg.solve(cap, np.concatenate(_table_action(grid, p, q)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"class-space capacitance solve failed ({exc})") from exc
    ta = ra - 2.0 * (g[:nc][cls] * z)
    tb = rb - 2.0 * (g[nc:][cls] * w)
    return (ta - e12 * tb) / e_det, (tb - e21 * ta) / e_det


def solve_jacobian_arrays(grid, w, z, rhs: ArrayPair, method: str = "class") -> ArrayPair:
    """Solve (I + jac(w, z)) x = rhs.

    "class" is the exact Woodbury solve over the resonance classes (see the
    module docstring): one LU solve of size 2 * n_classes plus O(n_modes)
    work. "dense" solves directly with ``dense_jacobian_matrix``, which reads
    no class table (the oracle route). Every solve verifies its residual through
    ``jac_arrays`` to ``SOLVE_RESIDUAL_TOL`` relative; a singular block,
    a failed factorization or a residual that is large or not finite raises
    :class:`NumericalError`.
    """
    ra, rb = np.asarray(rhs[0]), np.asarray(rhs[1])
    if method == "class":
        xa, xb = _class_solve(grid, w, z, ra, rb)
    elif method == "dense":
        mat = dense_jacobian_matrix(grid, w, z)
        n = grid.n_modes
        try:
            sol = np.linalg.solve(mat, np.concatenate([ra, rb]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense jacobian solve failed ({exc}); state too large") from exc
        xa, xb = sol[:n], sol[n:]
    else:
        raise ParameterError(f"method must be 'class' or 'dense', got {method!r}")

    ka, kb = jac_arrays(grid, w, z, xa, xb)
    res = _pair_norm(grid, (xa + ka - ra, xb + kb - rb))
    scale = max(1.0, _pair_norm(grid, (ra, rb)))
    if not res <= SOLVE_RESIDUAL_TOL * scale:  # also catches a NaN residual
        raise NumericalError(f"jacobian solve residual {res:.3e} exceeds tolerance")
    return xa, xb


def dense_jacobian_matrix(grid, w, z) -> np.ndarray:
    """Matrix of (I + jac(w, z)) on the doubled coefficient basis: the oracle route.

    It reads the ``jac_arrays`` formula entry by entry over the pairs of modes,
    with the pair tables Dp[j, k] and Sp[j, k] of :func:`coupling_tables` taken
    from the squared norms of ``grid.modes``: the alpha-alpha block is
    2 z_k w_{-i} Dp[i, k], and m12 = (w w_-) Dp + (z z_-) Sp adds to the
    alpha-beta block's diagonal. No class sum or class table is read.
    """
    n = grid.n_modes
    j2 = np.sum(grid.modes * grid.modes, axis=1).astype(np.float64)
    diff, sum_ = coupling_tables(j2[None, :], j2[:, None])  # [k, j]: row k is the image
    wn, zn = w[grid.neg_index], z[grid.neg_index]
    mat = np.empty((2 * n, 2 * n), dtype=np.complex128)
    blocks = ((0, 0, diff, wn, z), (0, n, sum_, zn, z), (n, 0, sum_, wn, w), (n, n, diff, zn, w))
    for row, col, table, right, left in blocks:
        block = mat[row : row + n, col : col + n]
        np.multiply(table, right, out=block)
        block *= 2.0 * left[:, None]
    ww, zz, diag = w * wn, z * zn, np.arange(n)
    mat[diag, n + diag] += diff @ ww + sum_ @ zz
    mat[n + diag, diag] += sum_ @ ww + diff @ zz
    mat.flat[:: 2 * n + 1] += 1.0
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

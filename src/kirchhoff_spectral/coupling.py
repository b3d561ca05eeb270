"""Bilinear coupling operators of the cubic normal-form stage.

The cubic stage corrects the identity by an off-diagonal operator built from
two families of bilinear maps. For coefficient vectors u, v, h the action is

    out_k = ( sum_j u_j v_{-j} c(j, k) ) h_k

with c(j, k) = |j|^2 / (8(|j| -+ |k|)): the "diff" family divides by the
eigenvalue difference (and vanishes on resonant pairs |j| = |k|), the "sum"
family by the eigenvalue sum. The scalar multiplying h_k depends on k only
through |k|, so everything reduces to per-resonance-class sums and a small
class-by-class table lookup (O(n_modes + n_classes^2) per vector). The
grid's ``class_table`` T = [[D, S], [S, D]] stacks the diff table D and the
sum table S, so one product [p, q] @ T = (p D + q S, p S + q D) applies both
families to a pair of per-class vectors.

Operators defined here, each linear in its operand (alpha, beta):

* ``mix``  -- the block off-diagonal operator whose action on (alpha, beta) is
  (diff[w,w] beta + sum[z,z] beta,  sum[w,w] alpha + diff[z,z] alpha);
* ``jac``  -- mix plus the chain-rule correction coming from differentiating
  the state-dependent coefficients along the flow, i.e. (I + jac) is the
  differential of the cubic stage;
* the class-space solve of (I + jac) x = rhs, the one solve there is, and
  its oracle: the matrix of (I + jac) assembled pairwise, without the class
  sums and tables, through which the ``neumann-vs-dense`` suite checks the
  solve's residual.

They read the state (w, z) through a :class:`Linearization`, which
:func:`linearize` builds once per state: the class sums sww, szz of
w_j w_{-j} and z_j z_{-j} (one class reduction of the stacked products) and
the class symbols (m12, m21) = [sww, szz] @ T (one table product). mix is
then one multiplication per block, and the caller that needs several of
these operators at one state, as the normal-form field does, pays for the
state's class sums once.

The class-space solve is exact. (I + jac) is a per-mode 2x2 block
M = [[1, m12], [m21, 1]] (the identity plus mix) plus a correction L T' R of
rank at most 2 * n_classes: R takes a pair to its class sums
(sum w alpha_{-j}, sum z beta_{-j}), T' = T^T acts as (p, q) -> [p, q] @ T,
and L(g1, g2) = (2 z g1[class], 2 w g2[class]). The Woodbury identity (Hager,
SIAM Review 1989) reduces the solve to one system of size 2 * n_classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .fields import ArrayPair, ComplexField, _same_grid
from .grid import SpectralGrid, coupling_tables

SOLVE_RESIDUAL_TOL = 1e-12


# -- array layer (used by the field evaluators in hot loops) ----------------


@dataclass(frozen=True)
class Linearization:
    """What the coupling operators read of a state (w, z); see :func:`linearize`.

    sww, szz are the per-class sums of w_j w_{-j} and z_j z_{-j}; m12, m21 the
    per-class symbols of mix's two blocks, and m12_modes, m21_modes the same
    at each mode.
    """

    grid: SpectralGrid
    w: np.ndarray
    z: np.ndarray
    sww: np.ndarray
    szz: np.ndarray
    m12: np.ndarray
    m21: np.ndarray
    m12_modes: np.ndarray
    m21_modes: np.ndarray


def linearize(grid: SpectralGrid, w: np.ndarray, z: np.ndarray) -> Linearization:
    """The state (w, z) as the coupling operators read it: one class reduction
    of the stacked products w w_-, z z_- and one product with the class table."""
    neg, cls, nc = grid.neg_index, grid.class_of, grid.n_classes
    sums = grid.class_sums(np.array((w * w[neg], z * z[neg])))
    symbols = sums.reshape(-1) @ grid.class_table
    m12, m21 = symbols[:nc], symbols[nc:]
    return Linearization(grid, w, z, sums[0], sums[1], m12, m21, m12[cls], m21[cls])


def mix_arrays(lin: Linearization, alpha, beta) -> ArrayPair:
    return lin.m12_modes * beta, lin.m21_modes * alpha


def jac_arrays(lin: Linearization, alpha, beta) -> ArrayPair:
    """mix(w,z)(alpha,beta) plus the coefficient-derivative terms.

    First component:  diff[w,w] b + sum[z,z] b + 2 diff[w,a] z + 2 sum[z,b] z
    Second component: sum[w,w] a + diff[z,z] a + 2 sum[w,a] w + 2 diff[z,b] w

    The four new terms are one table action on the class sums
    (sum w a_{-j}, sum z b_{-j}).
    """
    grid, w, z = lin.grid, lin.w, lin.z
    neg, cls, nc = grid.neg_index, grid.class_of, grid.n_classes
    sums = grid.class_sums(np.array((w * alpha[neg], z * beta[neg])))
    g = sums.reshape(-1) @ grid.class_table
    first, second = mix_arrays(lin, alpha, beta)
    return first + 2.0 * (g[:nc][cls] * z), second + 2.0 * (g[nc:][cls] * w)


def _pair_norm(grid: SpectralGrid, pair: ArrayPair) -> float:
    m0 = grid.m0
    return max(grid.coeff_norm(pair[0], m0), grid.coeff_norm(pair[1], m0))


def _class_solve(lin: Linearization, ra, rb) -> ArrayPair:
    """Woodbury solve of (M + L T' R) x = r over the resonance classes.

    With g = T' R x the system splits into (I + T' K) g = T' R M^{-1} r and
    x = M^{-1} (r - L g), where K = R M^{-1} L is one 2x2 block per class:
    (2 / det) [[swz, -m12 sww], [-m21 szz, swz]] with the class sums
    sww, szz, swz of w w_{-j}, z z_{-j}, w z_{-j} and det = 1 - m12 m21.
    """
    grid, w, z = lin.grid, lin.w, lin.z
    neg, cls, nc = grid.neg_index, grid.class_of, grid.n_classes
    m12, m21 = lin.m12, lin.m21
    det = 1.0 - m12 * m21
    if not (np.isfinite(det).all() and det.all()):
        raise NumericalError("class-space solve: a per-mode block determinant is zero or not finite")
    f = 2.0 / det
    k_diag = f * grid.class_sums(w * z[neg])
    k12, k21 = -f * m12 * lin.sww, -f * m21 * lin.szz

    # the capacitance I + T' K, transposed: K^T T scales the table's rows,
    # the top half [D, S] by (k_diag, k12) and the bottom half [S, D] by (k21, k_diag)
    top, bottom = grid.class_table.reshape(2, nc, 2 * nc)
    cap_t = np.array((k_diag, k12))[:, :, None] * top + np.array((k21, k_diag))[:, :, None] * bottom
    cap_t = cap_t.reshape(2 * nc, 2 * nc)
    cap_t.flat[:: 2 * nc + 1] += 1.0

    e12, e21, e_det = lin.m12_modes, lin.m21_modes, det[cls]
    ya = (ra - e12 * rb) / e_det
    yb = (rb - e21 * ra) / e_det
    pq = grid.class_sums(np.array((w * ya[neg], z * yb[neg])))
    try:
        g = np.linalg.solve(cap_t.T, pq.reshape(-1) @ grid.class_table)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"class-space capacitance solve failed ({exc})") from exc
    ta = ra - 2.0 * (g[:nc][cls] * z)
    tb = rb - 2.0 * (g[nc:][cls] * w)
    return (ta - e12 * tb) / e_det, (tb - e21 * ta) / e_det


def solve_jacobian_arrays(lin: Linearization, rhs: ArrayPair) -> ArrayPair:
    """Solve (I + jac(w, z)) x = rhs at the state of ``lin``.

    The exact Woodbury solve over the resonance classes (see the module
    docstring): one LU solve of size 2 * n_classes plus O(n_modes) work. It
    verifies its residual through ``jac_arrays`` to ``SOLVE_RESIDUAL_TOL``
    relative; a singular block, a failed factorization or a residual that is
    large or not finite raises :class:`NumericalError`.
    """
    grid = lin.grid
    ra, rb = np.asarray(rhs[0]), np.asarray(rhs[1])
    xa, xb = _class_solve(lin, ra, rb)
    ka, kb = jac_arrays(lin, xa, xb)
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
    """One coupling family, "diff" or "sum", applied to h with the per-class
    scalars sum_j u_j v_{-j} c(j, class); the |j|^2 lives in the table."""
    _same_grid(u, v)
    _same_grid(u, h)
    g = u.grid
    if kind == "diff":
        table = g.diff_table
    elif kind == "sum":
        table = g.sum_table
    else:
        raise ParameterError(f"kind must be 'diff' or 'sum', got {kind!r}")
    scalars = g.class_sums(u.coeffs * v.coeffs[g.neg_index]) @ table
    return ComplexField(g, scalars[g.class_of] * h.coeffs)


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

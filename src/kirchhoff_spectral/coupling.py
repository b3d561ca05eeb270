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

That product is the one coupling kernel, :func:`class_symbols`. Every operator
below reaches the table through it, and so do the ``operator-identities`` and
``coupling-bounds`` suites, which check the two families of (u, v) as the
halves of the symbols of [u; 0] and [v; 0].

Operators defined here, each linear in its operand (alpha, beta), which the
array layer holds as one doubled vector [alpha; beta] of length 2n (the basis
of ``dense_jacobian_matrix``):

* ``mix``  -- the block off-diagonal operator whose action on (alpha, beta) is
  (diff[w,w] beta + sum[z,z] beta,  sum[w,w] alpha + diff[z,z] alpha);
* ``jac``  -- mix plus the chain-rule correction coming from differentiating
  the state-dependent coefficients along the flow, i.e. (I + jac) is the
  differential of the cubic stage;
* the class-space solve of (I + jac) x = rhs, the one solve there is, and
  its oracle: (I + jac) applied pairwise from the grid's mode-by-mode pair
  tables, without the class sums and tables. The ``neumann-vs-dense`` suite
  takes the solve's residual through that action, and checks the action
  once per grid against the matrix of (I + jac) assembled from the same
  pair tables.

Like :func:`linearize` and :func:`class_symbols`, the solve and the pairwise
action take a mode-first stack (2n, m) of samples, one per column, as well
as one vector, on the same code path: the suite solves a grid's samples in
one call, with one capacitance per column and one batched LU solve, and its
residual guard judges each column against that column's scale.

Each operation on a pair is one numpy call on the doubled vector, through
the grid's index maps. The operators read the state [w; z] through a
:class:`Linearization`, which :func:`linearize` builds once per state: its
negated and swapped copies, the class sums [sww; szz] of w_j w_{-j} and
z_j z_{-j} and the class symbols [m12; m21] = [sww; szz] @ T. mix is then one
multiplication, and the caller that needs several of these operators at one
state, as the normal-form field does, pays for the state's class sums once.

The class-space solve is exact. (I + jac) is a per-mode 2x2 block
M = [[1, m12], [m21, 1]] (the identity plus mix) plus a correction L T' R of
rank at most 2 * n_classes: R takes a pair to its class sums
(sum w alpha_{-j}, sum z beta_{-j}), T' = T^T acts as (p, q) -> [p, q] @ T,
and L(g1, g2) = (2 z g1[class], 2 w g2[class]). The Woodbury identity (Hager,
SIAM Review 1989) reduces the solve to one system of size 2 * n_classes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ParameterError
from .fields import halves
from .grid import SpectralGrid

SOLVE_RESIDUAL_TOL = 1e-12


# -- array layer (used by the field evaluators in hot loops) ----------------


class Linearization(NamedTuple):
    """What the coupling operators read of a state [w; z] (see :func:`linearize`); ``state_neg``
    is [w_-; z_-], ``state_swap`` [z; w], ``slot_symbols`` the symbols [m12; m21] per slot."""

    grid: SpectralGrid
    state: np.ndarray
    state_neg: np.ndarray
    state_swap: np.ndarray
    sums: np.ndarray
    symbols: np.ndarray
    slot_symbols: np.ndarray


def class_symbols(grid: SpectralGrid, x: np.ndarray, y: np.ndarray):
    """The coupling kernel: the class sums [p; q] of the doubled product x y_-
    and the symbols [p, q] @ T, as (sums, symbols), per column of a mode-first
    stack. Of x = [u; 0] and y = [v; 0] the symbols are [p D; p S], the diff
    and the sum family of (u, v), one scalar per class."""
    # a named gather: numpy multiplies a large unnamed one in place, as neg * x,
    # which rounds otherwise than x * neg
    neg = y[grid.pair_neg]
    sums = grid.class_sums(x * neg)
    return sums, np.dot(grid.class_table.T, sums)  # sums @ T, column by column


def linearize(grid: SpectralGrid, state: np.ndarray) -> Linearization:
    """The doubled state [w; z] as the coupling operators read it: the kernel of
    the state with itself. A mode-first stack (2n, m) of states gives the
    record of each column."""
    sums, symbols = class_symbols(grid, state, state)
    return Linearization(
        grid, state, state[grid.pair_neg], state[grid.pair_swap], sums, symbols,
        symbols[grid.pair_class_of],
    )


def mix_arrays(lin: Linearization, x: np.ndarray) -> np.ndarray:
    """mix(w, z) [alpha; beta] = [m12 beta; m21 alpha]; of the state, [m12 z; m21 w]."""
    return lin.slot_symbols * (lin.state_swap if x is lin.state else x[lin.grid.pair_swap])


def jac_arrays(lin: Linearization, x: np.ndarray) -> np.ndarray:
    """mix(w,z)[alpha; beta] plus the coefficient-derivative terms.

    First half:  diff[w,w] b + sum[z,z] b + 2 diff[w,a] z + 2 sum[z,b] z
    Second half: sum[w,w] a + diff[z,z] a + 2 sum[w,a] w + 2 diff[z,b] w

    The four new terms are the kernel of the state and x, the class sums
    [sum w a_{-j}; sum z b_{-j}] through the table, scattered onto [z; w].
    """
    grid = lin.grid
    _, g = class_symbols(grid, lin.state, x)
    return mix_arrays(lin, x) + 2.0 * (g[grid.pair_class_of] * lin.state_swap)


def _class_solve(lin: Linearization, r: np.ndarray) -> np.ndarray:
    """Woodbury solve of (M + L T' R) x = r over the resonance classes.

    With g = T' R x the system splits into (I + T' K) g = T' R M^{-1} r and
    x = M^{-1} (r - L g), where K = R M^{-1} L is one 2x2 block per class:
    (2 / det) [[swz, -m12 sww], [-m21 szz, swz]] with the class sums
    sww, szz, swz of w w_{-j}, z z_{-j}, w z_{-j} and det = 1 - m12 m21.
    A stack of m columns has one capacitance I + T' K per column.
    """
    grid = lin.grid
    n, nc, swap = grid.n_modes, grid.n_classes, grid.pair_swap
    m12, m21 = lin.symbols[:nc], lin.symbols[nc:]
    det = 1.0 - m12 * m21
    if not (np.isfinite(det).all() and det.all()):
        raise NumericalError("class-space solve: a per-mode block determinant is zero or not finite")
    f = 2.0 / det
    k_diag = f * grid.class_sums(lin.state[:n] * lin.state_neg[n:])
    minus_f = -f
    k = np.concatenate((minus_f, minus_f)) * lin.symbols * lin.sums  # [k12; k21]

    # the capacitance I + T' K, transposed: K^T T scales the table's rows,
    # the top half [D, S] by (k_diag, k12) and the bottom half [S, D] by (k21, k_diag)
    top, bottom = grid.class_table.reshape(2, nc, 2 * nc)
    u = np.concatenate((k_diag, k[:nc]))
    v = np.concatenate((k[nc:], k_diag))

    m, e_det = lin.slot_symbols, np.concatenate((det, det))[grid.pair_class_of]
    y = (r - m * r[swap]) / e_det
    _, t_r = class_symbols(grid, lin.state, y)  # T' R M^{-1} r
    try:
        if r.ndim == 1:
            cap_t = u.reshape(2, nc, 1) * top + v.reshape(2, nc, 1) * bottom
            cap_t = cap_t.reshape(2 * nc, 2 * nc)
            cap_t.reshape(-1)[:: 2 * nc + 1] += 1.0
            g = np.linalg.solve(cap_t.T, t_r)
        else:  # (m, 2nc, 2nc), one batched solve; the product's layout follows u's, so the
            # identity is added out of place rather than through a reshaped view
            cap_t = u.T.reshape(-1, 2, nc, 1) * top + v.T.reshape(-1, 2, nc, 1) * bottom
            cap_t = cap_t.reshape(-1, 2 * nc, 2 * nc) + np.eye(2 * nc)
            g = np.linalg.solve(cap_t.transpose(0, 2, 1), t_r.T[..., None])[..., 0].T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"class-space capacitance solve failed ({exc})") from exc
    t = r - 2.0 * (g[grid.pair_class_of] * lin.state_swap)
    return (t - m * t[swap]) / e_det


def solve_jacobian_arrays(lin: Linearization, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + jac(w, z)) x = rhs at the state of ``lin``, on doubled vectors,
    or column by column on a mode-first stack (2n, m) of states and right-hand sides.

    The exact Woodbury solve over the resonance classes (see the module
    docstring): one LU solve of size 2 * n_classes per column, batched on a
    stack, plus O(n_modes) work. It verifies each column's residual through
    ``jac_arrays`` to ``SOLVE_RESIDUAL_TOL`` relative to that column's scale; a
    singular block, a failed factorization or a residual that is large or not
    finite raises :class:`NumericalError`; on a stack, a residual names its
    column, the first that fails.
    """
    grid = lin.grid
    x = _class_solve(lin, rhs)
    res = grid.doubled_norm(x + jac_arrays(lin, x) - rhs, grid.m0)
    if rhs.ndim == 1:
        scale = max(1.0, grid.doubled_norm(rhs, grid.m0))
        if not res <= SOLVE_RESIDUAL_TOL * scale:  # also catches a NaN residual
            raise NumericalError(f"jacobian solve residual {res:.3e} exceeds tolerance")
        return x
    # a stack: each column against its own scale
    failing = ~(res <= SOLVE_RESIDUAL_TOL * np.maximum(1.0, grid.doubled_norm(rhs, grid.m0)))
    if failing.any():
        k = int(np.argmax(failing))
        exc = NumericalError(f"jacobian solve residual {res[k]:.3e} exceeds tolerance "
                             f"in column {k}")
        exc.column = k
        raise exc
    return x


def pairwise_jacobian_action(grid: SpectralGrid, w, z, x: np.ndarray) -> np.ndarray:
    """(I + jac(w, z)) x, doubled, from the pair tables without the matrix: the oracle's action.

    With V = (w w_-, z z_-, w_- x_a, z_- x_b) stacked as n x 4 columns,
    P = Dp V and Q = Sp V (two real products on the interleaved real and
    imaginary parts), the action is

        a = x_a + (P0 + Q1) x_b + 2 z (P2 + Q3)
        b = x_b + (Q0 + P1) x_a + 2 w (Q2 + P3),

    the ``dense_jacobian_matrix`` entries summed over the modes. On mode-first
    stacks of w, z (n, m) and x (2n, m) the two products take all m columns
    at once. It reads ``grid.pair_tables()`` and no class sum or class table.
    """
    xa, xb = halves(x)
    dp, sp = grid.pair_tables()
    wn, zn = w[grid.neg_index], z[grid.neg_index]
    v = np.stack((w * wn, z * zn, wn * xa, zn * xb), axis=1)  # (n, 4) or (n, 4, m)
    shape, v = v.shape, v.reshape(len(v), -1).view(np.float64)
    p = (dp @ v).view(np.complex128).reshape(shape)
    q = (sp @ v).view(np.complex128).reshape(shape)
    a = xa + (p[:, 0] + q[:, 1]) * xb + 2.0 * z * (p[:, 2] + q[:, 3])
    b = xb + (q[:, 0] + p[:, 1]) * xa + 2.0 * w * (q[:, 2] + p[:, 3])
    return np.concatenate((a, b))


def dense_jacobian_matrix(grid, w, z) -> np.ndarray:
    """Matrix of (I + jac(w, z)) on the doubled coefficient basis: the reference
    that :func:`pairwise_jacobian_action` is checked against.

    It reads the ``jac_arrays`` formula entry by entry over the pairs of modes,
    with the pair tables Dp[k, j] and Sp[k, j] of ``grid.pair_tables()``: the
    alpha-alpha block is 2 z_k w_{-i} Dp[k, i], and m12 = Dp (w w_-) + Sp (z z_-)
    adds to the alpha-beta block's diagonal. No class sum or class table is read.
    """
    n = grid.n_modes
    diff, sum_ = grid.pair_tables()
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

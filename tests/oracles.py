"""Independent reference computations used to cross-check the package.

These deliberately avoid the package's own integrator and operator code:
the oscillator oracle goes through scipy's DOP853, the brute-force helpers
are plain double loops over the lattice, the scalar coupling coefficient
works on raw lattice points, and the total momentum comes from the gradient
pairing instead of the per-mode momenta. The one exception is the dense
column loop, which applies the package's ``jac_arrays`` to one doubled unit
vector at a time. It goes through the class sums and class tables, so it and the
package's pairwise dense assembly, which reads neither, are two independent
builds of the same matrix that must agree to rounding. The dense solve of
(I + jac) x = rhs, a LAPACK solve with that pairwise matrix, is the
solution-level oracle of the package's class-space solve at d <= 2, and the
LAPACK solve of the assembled rank-one matrix is the dense reference of the
diag stage's closed-form rank-one inverse, beside the Sherman-Morrison solve
the ``rank-one-inverse`` suite takes. Beyond
that the matrix is too large to assemble in a test (284 MB at d=3 N=8), and
the tests take the class solve's residual through the package's pairwise
action, which reads the same pair tables as the matrix and is checked
against it.

The test-only fields and helpers live here too, since the package itself
has no use for them: the complexified system and the linear rotation as
integrable evaluators, a unit-mode field, the embedding of a field into a
finer grid, and the diff and sum blocks of the class table, from which the
tests build their table mutants.

The wave speed's reference is Newton's iteration on its cubic in 60-digit
decimal arithmetic, where the package takes the cubic's closed-form root in
floating point.

The grid's lattice reference enumerates the cube with ``itertools`` and sorts
the points by a Python key, where the package sorts index arrays. The SABA2
reference composes the step's five sub-flows one at a time, the rotation and
the kick on the packed complex state, where the package applies the step as
one closed-form per-mode matrix.

The small-divisor reference forms the margin of every ordered pair of
representable squared norms (the package's list of them), where the package
reads only the adjacent pairs and a window around each norm.
"""

import itertools
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import solve_ivp

from kirchhoff_spectral import ComplexField, GridMismatchError, ParameterError
from kirchhoff_spectral import coupling
from kirchhoff_spectral.coupling import jac_arrays, linearize
from kirchhoff_spectral.dynamics import _ConjugateDynamics
from kirchhoff_spectral.errors import NumericalError
from kirchhoff_spectral.fields import conjugate_doubled, halves
from kirchhoff_spectral.kirchhoff import REAL_RESIDUE_TOL
from kirchhoff_spectral.transforms import rank_one_factor


def wave_speed_minus_one(q: float) -> Decimal:
    """sigma - 1 for the root sigma >= 1 of sigma^3 - sigma - 2q, to 50 digits.

    In terms of t = sigma - 1 the cubic is t^3 + 3t^2 + 2t - 2q, which has no
    cancellation at small q; Newton from t = q (above the root) decreases
    monotonically to it."""
    with localcontext() as ctx:
        ctx.prec = 60
        q = Decimal(q)
        t = q
        for _ in range(500):
            step = (((t + 3) * t + 2) * t - 2 * q) / ((3 * t + 6) * t + 2)
            t -= step
            if abs(step) <= abs(t) * Decimal(10) ** -55:
                return +t
    raise AssertionError(f"reference Newton did not converge for q={q}")


def single_mode_oracle(j_sq: int, x0: complex, v0: complex, t_eval):
    """High-accuracy trajectory of x'' + j^2 x (1 + 2 j^2 |x|^2) = 0.

    This is the exact reduction of the full system to a single conjugate
    mode pair +-j with u_j = x and u_{-j} = conj(x).
    """
    j2 = float(j_sq)

    def rhs(t, y):
        xr, xi, vr, vi = y
        amp2 = xr * xr + xi * xi
        f = -j2 * (1.0 + 2.0 * j2 * amp2)
        return [vr, vi, f * xr, f * xi]

    sol = solve_ivp(
        rhs,
        (0.0, float(t_eval[-1])),
        [x0.real, x0.imag, v0.real, v0.imag],
        method="DOP853",
        rtol=1e-13,
        atol=1e-14,
        t_eval=t_eval,
        dense_output=False,
    )
    assert sol.success
    x = sol.y[0] + 1j * sol.y[1]
    v = sol.y[2] + 1j * sol.y[3]
    return x, v


def brute_force_small_divisor_margin(d: int, radius: int) -> float:
    """Worst 3|j| ||j|-|k|| over actual lattice pairs, by direct enumeration."""
    pts = []
    rng = range(-radius, radius + 1)
    if d == 2:
        pts = [(a, b) for a in rng for b in rng if 0 < a * a + b * b <= radius * radius]
    elif d == 3:
        pts = [
            (a, b, c)
            for a in rng
            for b in rng
            for c in rng
            if 0 < a * a + b * b + c * c <= radius * radius
        ]
    else:
        raise ValueError(d)
    norms = sorted({sum(c * c for c in p) for p in pts})
    worst = np.inf
    for n1 in norms:
        for n2 in norms:
            if n1 == n2:
                continue
            worst = min(worst, 3.0 * np.sqrt(n1) * abs(np.sqrt(n1) - np.sqrt(n2)))
    return float(worst)


def small_divisor_matrix_check(d: int, radius: int) -> dict:
    """``coupling.small_divisor_check`` over the full V x V matrix of margins
    3|j| |n1 - n2| / (|j| + |k|) of the V representable squared norms: every
    ordered pair formed, where the package reads only the adjacent pairs and
    a window around each norm."""
    vals = coupling.representable_square_norms(d, radius)
    roots = np.sqrt(vals.astype(np.float64))
    n1 = vals[:, None].astype(np.float64)
    n2 = vals[None, :].astype(np.float64)
    r1 = roots[:, None]
    r2 = roots[None, :]
    margin = 3.0 * r1 * np.abs(n1 - n2) / (r1 + r2)
    off = ~np.eye(len(vals), dtype=bool)
    return {
        "d": d,
        "radius": radius,
        "class_pairs": int(off.sum()),
        "worst_margin": float(np.min(margin[off])),
        "violations": int(np.count_nonzero(margin[off] < 1.0)),
    }


def brute_force_coupling(kind: str, grid, u, v, h):
    """O(n^2) direct evaluation of the coupling operator from its definition."""
    n = grid.n_modes
    out = np.zeros(n, dtype=np.complex128)
    for kk in range(n):
        acc = 0.0 + 0.0j
        k2 = grid.j2[kk]
        ka = np.sqrt(float(k2))
        for jj in range(n):
            j2 = grid.j2[jj]
            ja = np.sqrt(float(j2))
            if kind == "diff":
                if j2 == k2:
                    continue
                c = j2 / (8.0 * (ja - ka))
            else:
                c = j2 / (8.0 * (ja + ka))
            acc += u[jj] * v[grid.neg_index[jj]] * c
        out[kk] = acc * h[kk]
    return out


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


def total_momentum(state) -> np.ndarray:
    """Integral of (du/dt) grad u, computed from the gradient pairing directly.

    Independent of :func:`kirchhoff_spectral.kirchhoff.momenta`; their
    agreement (total = sum of per-mode values) is a spectral identity.
    """
    g = state.grid
    out = np.empty(g.d)
    v = state.v.coeffs
    for axis in range(g.d):
        grad_u = 1j * g.modes[:, axis].astype(np.float64) * state.u.coeffs
        val = g.pairing(v, grad_u)
        if abs(val.imag) > REAL_RESIDUE_TOL * max(1.0, abs(val.real)):
            raise NumericalError(f"momentum component {axis} not real: {val!r}")
        out[axis] = val.real
    return out


def dense_jacobian_columns(grid, w, z) -> np.ndarray:
    """Matrix of (I + jac(w, z)) on the doubled basis, built one column, one
    ``jac_arrays`` call on a doubled unit vector, at a time."""
    n = grid.n_modes
    lin = linearize(grid, np.concatenate((w, z)))
    mat = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    basis = np.zeros(2 * n, dtype=np.complex128)
    for i in range(2 * n):
        basis[i] = 1.0
        mat[:, i] = jac_arrays(lin, basis)
        basis[i] = 0.0
    mat[np.diag_indices(2 * n)] += 1.0
    return mat


def dense_jacobian_solve(lin, rhs):
    """(I + jac) x = rhs at the state of ``lin``, for a doubled rhs, solved by
    LAPACK with the pairwise ``dense_jacobian_matrix`` (looked up on the module
    at each call, so that a tracer patched onto it sees this call)."""
    n = lin.grid.n_modes
    w, z = lin.state[:n], lin.state[n:]
    return np.linalg.solve(coupling.dense_jacobian_matrix(lin.grid, w, z), rhs)


def rank_one_solve_dense(grid, x, rhs):
    """(I + F u v^T) y = rhs by LAPACK on the assembled 2n x 2n matrix, with
    u = [psi; eta] and v = [row; row] the rank-one correction's vectors at
    x = [eta; psi]: the dense reference of the closed-form inverse."""
    f = rank_one_factor(grid, x)
    eta, psi = halves(x)
    row = (grid.absj * (eta + psi))[grid.neg_index]  # l(alpha,beta) = row . alpha + row . beta
    mat = np.eye(len(x), dtype=np.complex128) + f * np.outer(
        x[grid.pair_swap], np.concatenate([row, row])
    )
    return np.linalg.solve(mat, rhs)


#: how far a sampled check's defect may move between a sample checked in a
#: stack and the same sample checked alone, relative to max(1, |defect|): a
#: stack's class-table products and norms go to BLAS gemm where one sample's
#: go to gemv, and the two sum in different orders; measured at most 4.4e-16
#: over every sampled suite at 5 and at 50 samples per default grid
STACKED_DEFECT_ROUNDING = 1e-15


def reference_random_field(grid, seed, target_norm, s, symmetry="free"):
    """The coefficients of a random field drawn as the package drew them
    before its stacked draw: ``np.random.default_rng(seed)`` on the seed as
    given, real parts then imaginary parts, shaped, projected and scaled."""
    rng = np.random.default_rng(seed)
    c = grid.absj ** (-(float(s) + 1.0)) * (
        rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes))
    if symmetry == "hermitian":
        c = 0.5 * (c + np.conj(c[grid.neg_index]))
    return c * (target_norm / grid.coeff_norm(c, s))


def lattice(d: int, n_cutoff: int):
    """The grid's points 1 <= |j|^2 <= N^2, sorted by (|j|^2, j_1, ..., j_d), and
    the slot of -j for each, from a dict of the points."""
    pts = [
        p for p in itertools.product(range(-n_cutoff, n_cutoff + 1), repeat=d)
        if 0 < sum(c * c for c in p) <= n_cutoff ** 2
    ]
    pts.sort(key=lambda p: (sum(c * c for c in p),) + p)
    slot = {p: i for i, p in enumerate(pts)}
    modes = np.array(pts, dtype=np.int64).reshape(len(pts), d)
    return modes, np.array([slot[tuple(-c for c in p)] for p in pts], dtype=np.int64), slot


def saba2_subflows(grid, y, h: float, m: int, c1: float, c2: float) -> np.ndarray:
    """``m`` SABA2 steps R(c1 h) K(h/2) R(c2 h) K(h/2) R(c1 h) of the physical
    field from the packed state ``y = [u; v]``: the rotation R(tau) turns each
    pair by the angle tau |j|, and the kick K(tau) is v -= tau G(u) |j|^2 u with
    G = sum |j|^2 |u_j|^2."""
    n, w, w2 = grid.n_modes, grid.absj, grid.j2f

    def rotate(y, tau):
        c, s = np.cos(tau * w), np.sin(tau * w)
        u, v = y[:n], y[n:]
        return np.concatenate((c * u + (s / w) * v, -w * s * u + c * v))

    def kick(y, tau):
        u = y[:n]
        g = np.dot(w2, u.real * u.real + u.imag * u.imag)
        return np.concatenate((u, y[n:] - (tau * g) * w2 * u))

    for _ in range(m):
        y = rotate(kick(rotate(kick(rotate(y, c1 * h), 0.5 * h), c2 * h), 0.5 * h), c1 * h)
    return y


# -- test-only fields and helpers ------------------------------------------------


def class_blocks(grid):
    """The diff table D and the sum table S, the real blocks of the grid's class
    table [[D, S], [S, D]]; the tests build their table mutants from them."""
    nc = grid.n_classes
    return grid.class_table[:nc, :nc].real, grid.class_table[:nc, nc:].real


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: equal values with equal signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def complexified_rhs_arrays(grid, x):
    """The system in complex-conjugate coordinates, before the diag stage, at
    the doubled pair x = [a; b], doubled:

        da/dt = -i Lambda a - (i/4) <Lambda(a+b), a+b> Lambda(a+b)

    and the mirrored equation for b. Polynomial in (a, b), so valid on any
    pair; on the conjugate subspace it is the physical system itself.
    """
    a, b = halves(x)
    c = a + b
    q = 0.25 * grid.pairing(c, c, 0.5)
    lam_c = grid.absj * c
    return np.concatenate(
        (-1j * (grid.absj * a) - (1j * q) * lam_c, 1j * (grid.absj * b) + (1j * q) * lam_c)
    )


class ComplexifiedDynamics(_ConjugateDynamics):
    """The physical system in complex-conjugate coordinates (before the diag stage)."""

    name = "complexified"

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        return complexified_rhs_arrays(self.grid, conjugate_doubled(self.grid, y))[: len(y)]


class LinearDiagonalDynamics(_ConjugateDynamics):
    """dw/dt = -i Lambda w; each mode rotates as exp(-i |j| t). Exact-flow test field."""

    name = "linear"

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        return -1j * self.grid.absj * y

    def exact(self, w0: np.ndarray, t: float) -> np.ndarray:
        return w0 * np.exp(-1j * self.grid.absj * t)


def unit_mode(grid, mode, value: complex = 1.0) -> ComplexField:
    """The field with ``value`` at ``mode`` and zero elsewhere."""
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    c[grid.slot(mode)] = value
    return ComplexField(grid, c)


def embed_field(field: ComplexField, target) -> ComplexField:
    """Copy a field into a finer grid (same d, larger cutoff), zero-padding
    the new modes. Because every implemented right-hand side is diagonal per
    mode (the nonlinearity enters only through scalar functionals), modes
    that start at zero stay at zero, so trajectories of embedded data do not
    depend on the cutoff; this makes refinement checks exact at desk scale.
    """
    g = field.grid
    if target.d != g.d:
        raise GridMismatchError(f"cannot embed d={g.d} field into d={target.d} grid")
    if target.n_cutoff < g.n_cutoff:
        raise GridMismatchError("target grid must be at least as fine")
    c = np.zeros(target.n_modes, dtype=np.complex128)
    for i in range(g.n_modes):
        c[target.slot(g.modes[i])] = field.coeffs[i]
    return ComplexField(target, c)

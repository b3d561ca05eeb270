"""Independent reference computations used to cross-check the package.

These deliberately avoid the package's own integrator and operator code:
the oscillator oracle goes through scipy's DOP853, the brute-force helpers
are plain double loops over the lattice, the scalar coupling coefficient
works on raw lattice points, and the total momentum comes from the gradient
pairing instead of the per-mode momenta. The one exception is the dense
column loop, which applies the package's ``jac_arrays`` to one unit vector
at a time. It goes through the class sums and class tables, so it and the
package's pairwise dense assembly, which reads neither, are two independent
builds of the same matrix that must agree to rounding. The dense solve of
(I + jac) x = rhs, a LAPACK solve with that pairwise matrix, is the
solution-level oracle of the package's class-space solve at d <= 2. Beyond
that the matrix is too large to assemble in a test (284 MB at d=3 N=8), and
the tests take the class solve's residual through the package's pairwise
action, which reads the same pair tables as the matrix and is checked
against it.

The test-only fields and helpers live here too, since the package itself
has no use for them: the complexified system and the linear rotation as
integrable evaluators, a unit-mode field, and the embedding of a field into
a finer grid.
"""

import numpy as np
from scipy.integrate import solve_ivp

from kirchhoff_spectral import ComplexField, GridMismatchError, ParameterError
from kirchhoff_spectral import coupling
from kirchhoff_spectral.coupling import jac_arrays, linearize
from kirchhoff_spectral.dynamics import _ConjugateDynamics
from kirchhoff_spectral.errors import NumericalError
from kirchhoff_spectral.kirchhoff import REAL_RESIDUE_TOL


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
    """Matrix of (I + jac(w, z)) built one column, one ``jac_arrays`` call, at a time."""
    n = grid.n_modes
    lin = linearize(grid, w, z)
    mat = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    zero = np.zeros(n, dtype=np.complex128)
    basis = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        basis[i] = 1.0
        ka, kb = jac_arrays(lin, basis, zero)
        mat[:n, i] = ka
        mat[n:, i] = kb
        ka, kb = jac_arrays(lin, zero, basis)
        mat[:n, n + i] = ka
        mat[n:, n + i] = kb
        basis[i] = 0.0
    mat[np.diag_indices(2 * n)] += 1.0
    return mat


def dense_jacobian_solve(lin, rhs):
    """(I + jac) x = rhs at the state of ``lin``, solved by LAPACK with the
    pairwise ``dense_jacobian_matrix`` (looked up on the module at each call,
    so that a tracer patched onto it sees this call)."""
    n = lin.grid.n_modes
    mat = coupling.dense_jacobian_matrix(lin.grid, lin.w, lin.z)
    sol = np.linalg.solve(mat, np.concatenate(rhs))
    return sol[:n], sol[n:]


# -- test-only fields and helpers ------------------------------------------------


def complexified_rhs_arrays(grid, a, b):
    """The system in complex-conjugate coordinates, before the diag stage:

        da/dt = -i Lambda a - (i/4) <Lambda(a+b), a+b> Lambda(a+b)

    and the mirrored equation for b. Polynomial in (a, b), so valid on any
    pair; on the conjugate subspace it is the physical system itself.
    """
    c = a + b
    q = 0.25 * grid.pairing(c, c, grid.absj)
    lam_c = grid.absj * c
    return -1j * (grid.absj * a) - (1j * q) * lam_c, 1j * (grid.absj * b) + (1j * q) * lam_c


class ComplexifiedDynamics(_ConjugateDynamics):
    """The physical system in complex-conjugate coordinates (before the diag stage)."""

    name = "complexified"

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        return complexified_rhs_arrays(self.grid, y, self._z(y))[0]


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

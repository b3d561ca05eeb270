"""Independent reference computations used to cross-check the package.

These deliberately avoid the package's own integrator and operator code:
the oscillator oracle goes through scipy's DOP853, the brute-force helpers
are plain double loops over the lattice, the scalar coupling coefficient
works on raw lattice points, and the total momentum comes from the gradient
pairing instead of the per-mode momenta. The one exception is the dense
column loop, which applies the package's ``jac_arrays`` to one unit vector
at a time. It goes through the class sums and class tables, so it and the
package's pairwise dense assembly, which reads neither, are two independent
builds of the same matrix that must agree to rounding.
"""

import numpy as np
from scipy.integrate import solve_ivp

from kirchhoff_spectral import ParameterError
from kirchhoff_spectral.coupling import jac_arrays
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

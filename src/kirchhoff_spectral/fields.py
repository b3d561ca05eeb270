"""Spectral fields and the basic operations every other module computes with.

A :class:`ComplexField` is a vector of complex Fourier coefficients over the
canonical mode order of a :class:`~kirchhoff_spectral.grid.SpectralGrid`.
All state classes of the workbench are built from it:

* :class:`RealPair` -- a physical state (u, v) = (u, du/dt), whose coefficients
  carry the Hermitian symmetry u_{-j} = conj(u_j) of real-valued fields;
* :class:`ConjugatePair` -- a state (w, z) with z the complex conjugate of w
  as a function, i.e. z_j = conj(w_{-j}); only w is stored.

Everything is treated as an immutable value; operations return new fields.
No physical-space grid exists anywhere: the nonlinearity of the equation is a
scalar functional of the coefficients, so all computations stay spectral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import SpectralGrid

SERIALIZATION_VERSION = 1


@dataclass(frozen=True)
class ComplexField:
    """Complex Fourier coefficients over the full index set of a grid."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n_modes,):
            raise ParameterError(
                f"coefficient vector has shape {c.shape}, expected ({self.grid.n_modes},)"
            )
        object.__setattr__(self, "coeffs", c)

    def norm(self, s: float) -> float:
        return sobolev_norm(self, s)

    @classmethod
    def zero(cls, grid: SpectralGrid) -> "ComplexField":
        return cls(grid, np.zeros(grid.n_modes, dtype=np.complex128))


ArrayPair = tuple[np.ndarray, np.ndarray]
FieldPair = tuple[ComplexField, ComplexField]


def field_pair(grid: SpectralGrid, arrays: ArrayPair) -> FieldPair:
    """Two coefficient vectors on one grid as a pair of fields."""
    return ComplexField(grid, arrays[0]), ComplexField(grid, arrays[1])


def pair_norm(grid: SpectralGrid, u: np.ndarray, v: np.ndarray, s: float) -> float:
    """The physical pair norm ||u||_{s+1/2} + ||v||_{s-1/2} of two coefficient vectors."""
    if s < 0.5:
        raise ParameterError(f"the pair norm needs s >= 1/2, got {s}")
    return grid.coeff_norm(u, s + 0.5) + grid.coeff_norm(v, s - 0.5)


def _same_grid(f: ComplexField, g: ComplexField) -> None:
    if f.grid is not g.grid and not f.grid.compatible(g.grid):
        raise GridMismatchError(
            f"fields live on different grids: {f.grid!r} vs {g.grid!r}"
        )


def sobolev_norm(field: ComplexField, s: float) -> float:
    """Norm with weights |j|^(2s); the zero-mean lattice makes it a norm for all s >= 0."""
    if s < 0:
        raise ParameterError(f"Sobolev order must be >= 0, got {s}")
    return field.grid.coeff_norm(field.coeffs, s)


def lambda_power(field: ComplexField, sigma: float) -> ComplexField:
    """Fourier multiplier |j|^sigma (any real sigma; invertible on the zero-mean lattice)."""
    return ComplexField(field.grid, field.coeffs * field.grid.absj ** float(sigma))


def pairing(f: ComplexField, g: ComplexField) -> complex:
    """Bilinear (not sesquilinear) pairing: integral of the product, sum of f_j g_{-j}."""
    _same_grid(f, g)
    return g.grid.pairing(f.coeffs, g.coeffs)


def conj_function(field: ComplexField) -> ComplexField:
    """Coefficients of the complex conjugate of the function: j -> conj(field_{-j})."""
    return ComplexField(field.grid, np.conj(field.coeffs[field.grid.neg_index]))


def hermitian_defect(field: ComplexField) -> float:
    """Max deviation from the real-valued-function symmetry c_{-j} = conj(c_j)."""
    c = field.coeffs
    return float(np.max(np.abs(c - np.conj(c[field.grid.neg_index]))))


def hermitian_project(field: ComplexField) -> ComplexField:
    """Nearest field with exact Hermitian symmetry (average with the mirrored conjugate)."""
    c = field.coeffs
    return ComplexField(field.grid, 0.5 * (c + np.conj(c[field.grid.neg_index])))


def random_field(
    grid: SpectralGrid,
    seed,
    target_norm: float,
    s: float,
    symmetry: str = "free",
) -> ComplexField:
    """Deterministic pseudo-random field rescaled to an exact Sobolev norm.

    Coefficient magnitudes decay like |j|^-(s+1) so the H^s mass is not
    concentrated at the cutoff; the field is then rescaled so that
    ``sobolev_norm(result, s) == target_norm`` up to one rounding.

    Parameters
    ----------
    seed : any integer; the same seed always returns the same field.
    symmetry : "hermitian" for real-valued physical fields, "free" otherwise.
    """
    if target_norm < 0:
        raise ParameterError(f"target norm must be >= 0, got {target_norm}")
    if symmetry not in ("hermitian", "free"):
        raise ParameterError(f"symmetry must be 'hermitian' or 'free', got {symmetry!r}")
    if target_norm == 0.0:
        return ComplexField.zero(grid)
    rng = np.random.default_rng(seed)
    shape = grid.absj ** (-(float(s) + 1.0))
    c = shape * (rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes))
    field = ComplexField(grid, c)
    if symmetry == "hermitian":
        field = hermitian_project(field)
    nrm = sobolev_norm(field, s)
    return ComplexField(grid, field.coeffs * (target_norm / nrm))


# -- states ----------------------------------------------------------------


@dataclass(frozen=True)
class RealPair:
    """State (u, v) of the physical system; both components Hermitian-symmetric."""

    u: ComplexField
    v: ComplexField
    check_tol: float = 1e-9

    def __post_init__(self):
        _same_grid(self.u, self.v)
        if self.check_tol is not None:
            scale = max(1.0, float(np.max(np.abs(self.u.coeffs))),
                        float(np.max(np.abs(self.v.coeffs))))
            defect = max(hermitian_defect(self.u), hermitian_defect(self.v))
            if defect > self.check_tol * scale:
                raise ParameterError(
                    f"state is not Hermitian-symmetric (defect {defect:.3e})"
                )

    @property
    def grid(self) -> SpectralGrid:
        return self.u.grid

    def norm(self, s: float) -> float:
        """The physical pair norm ||u||_{s+1/2} + ||v||_{s-1/2}."""
        return pair_norm(self.grid, self.u.coeffs, self.v.coeffs, s)

    @classmethod
    def projected(cls, u: ComplexField, v: ComplexField) -> "RealPair":
        """Build from approximate data by projecting onto exact symmetry."""
        return cls(hermitian_project(u), hermitian_project(v))


@dataclass(frozen=True)
class ConjugatePair:
    """State (w, z) with z = conj(w) as a function; z is derived, never stored."""

    w: ComplexField

    @property
    def z(self) -> ComplexField:
        return conj_function(self.w)

    @property
    def grid(self) -> SpectralGrid:
        return self.w.grid


def conjugate_defect(first: ComplexField, second: ComplexField) -> float:
    """How far (first, second) is from being a conjugate pair (second = conj of first)."""
    return float(np.max(np.abs(second.coeffs - conj_function(first).coeffs)))


# -- serialization ----------------------------------------------------------


def field_to_dict(field: ComplexField) -> dict:
    """JSON-ready dict; floats survive a dump/load round trip bit-exactly."""
    g = field.grid
    rows = [
        [*(int(c) for c in g.modes[i])] + [float(field.coeffs[i].real), float(field.coeffs[i].imag)]
        for i in range(g.n_modes)
    ]
    return {"version": SERIALIZATION_VERSION, "d": g.d, "N": g.n_cutoff, "coeffs": rows}


def field_from_dict(data: dict, grid: SpectralGrid | None = None) -> ComplexField:
    d, n = int(data["d"]), int(data["N"])
    if grid is None:
        grid = SpectralGrid(d, n)
    elif grid.d != d or grid.n_cutoff != n:
        raise GridMismatchError(f"serialized grid (d={d}, N={n}) does not match {grid!r}")
    rows = data["coeffs"]
    if len(rows) != grid.n_modes:
        raise ParameterError(
            f"serialized field has {len(rows)} coefficients, grid has {grid.n_modes}"
        )
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    for row in rows:
        mode, re, im = row[: grid.d], row[grid.d], row[grid.d + 1]
        c[grid.slot(mode)] = complex(re, im)
    return ComplexField(grid, c)

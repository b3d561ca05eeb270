"""Spectral fields, the one pair format, and the basic operations on both.

A :class:`ComplexField` is a vector of complex Fourier coefficients over the
canonical mode order of a :class:`~kirchhoff_spectral.grid.SpectralGrid`.
The two state classes of the workbench are built from it:

* :class:`RealPair` -- a physical state (u, v) = (u, du/dt), whose coefficients
  carry the Hermitian symmetry u_{-j} = conj(u_j) of real-valued fields;
* :class:`ConjugatePair` -- a state (w, z) with z the complex conjugate of w
  as a function, i.e. z_j = conj(w_{-j}); only w is stored.

A state object is where a state enters the workbench: read from JSON, drawn
at random, handed to ``integrate`` as a run's start. Every map past that
point -- the stages of the change of variables, the vector fields, the
coupling operators, the invariants and the monitors -- takes ``(grid, x)``,
the pair as one doubled vector [a; b] of length 2n, which both state classes
give as ``doubled``; :func:`halves` views its two halves. :func:`pair_norm`
and :func:`conjugate_defect` read a doubled vector too.

A :class:`PairStack` holds many samples of a pair **mode-first**:
``doubled`` has shape (2n, m), one doubled vector per column. A physical
run's record holds its samples in this layout already (a physical state packs
as its doubled vector), so ``rec.samples`` is their stack, and
``PairStack(grid, rec.samples)`` the change of variables' stack input.
Mode-first is what lets one vector and a stack share every code path: a
gather is x[idx] and a half is x[:n] on both, and reductions over the modes
run along axis 0, so the per-sample results of a stack (its norms, Q, H) come
back as length-m arrays where one vector gives a scalar. A sample-first layout
would need x[..., idx] gathers, which on a 32-slot vector cost several times
an x[idx] gather, on the one-vector path that every vector field takes.

Everything is treated as an immutable value; operations return new fields.
No physical-space grid exists anywhere: the nonlinearity of the equation is a
scalar functional of the coefficients, so all computations stay spectral.
"""

from __future__ import annotations

import cmath
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


def halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two halves (a, b) of a doubled vector [a; b], as views."""
    n = len(x) // 2
    return x[:n], x[n:]


def conjugate_doubled(grid: SpectralGrid, w: np.ndarray) -> np.ndarray:
    """The doubled vector [w; z] of the conjugate pair with first half w, z_j = conj(w_{-j})."""
    return np.concatenate((w, np.conj(w[grid.neg_index])))


def pair_norm(grid: SpectralGrid, x: np.ndarray, s: float):
    """The physical pair norm ||u||_{s+1/2} + ||v||_{s-1/2} of a doubled vector [u; v],
    or per column."""
    if s < 0.5:
        raise ParameterError(f"the pair norm needs s >= 1/2, got {s}")
    u, v = halves(x)
    return grid.coeff_norm(u, s + 0.5) + grid.coeff_norm(v, s - 0.5)


def conjugate_defect(grid: SpectralGrid, x: np.ndarray):
    """How far a doubled vector [a; b] is from a conjugate pair (b = conj of a as a
    function), or per column."""
    a, b = halves(x)
    return np.max(np.abs(b - np.conj(a[grid.neg_index])), axis=0)


def _same_grid(f: ComplexField, g: ComplexField) -> None:
    if f.grid is not g.grid and not f.grid.compatible(g.grid):
        raise GridMismatchError(
            f"fields live on different grids: {f.grid!r} vs {g.grid!r}"
        )


def sobolev_norm(field: ComplexField, s: float):
    """Norm with weights |j|^(2s); the zero-mean lattice makes it a norm for all s >= 0."""
    if s < 0:
        raise ParameterError(f"Sobolev order must be >= 0, got {s}")
    return field.grid.coeff_norm(field.coeffs, s)


def hermitian_defect(field: ComplexField) -> float:
    """Max deviation from the real-valued-function symmetry c_{-j} = conj(c_j)."""
    c = field.coeffs
    return float(np.max(np.abs(c - np.conj(c[field.grid.neg_index]))))


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
    seed : anything ``np.random.default_rng`` takes, usually an int or a list
        of ints; the same seed always returns the same field. A seed whose
        parts all lie in [0, 2**32) is read as those uint32 words, which is
        the pool numpy builds from the list, only cheaper.
    symmetry : "hermitian" for real-valued physical fields, "free" otherwise.

    It is the one column of :func:`random_fields` for ``[seed]``.
    """
    return ComplexField(grid, random_fields(grid, [seed], target_norm, s, symmetry)[:, 0])


def _generator(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed of ints in [0, 2**32) goes in as
    uint32 words, the entropy numpy coerces the list to, so the draws are the
    same. Any other seed is passed on as it is, and draws or raises as it does."""
    parts = seed if isinstance(seed, (list, tuple)) else (seed,)
    if parts and all(type(p) is int and 0 <= p < 2 ** 32 for p in parts):
        seed = np.random.SeedSequence(np.array(parts, dtype=np.uint32))
    return np.random.default_rng(seed)


def random_fields(grid: SpectralGrid, seeds, target_norm, s: float,
                  symmetry: str = "free") -> np.ndarray:
    """The coefficients of ``random_field(grid, seed, target, s, symmetry)`` for
    each seed, as one mode-first stack (n, m), bit for bit.

    ``target_norm`` is one norm for every column or one per seed. Each seed
    has its own generator, whose normals fill one row of a sample-first
    (m, n) draw; the shape factor and the Hermitian projection act
    elementwise, and each row's norm is the 1-D dot product one draw takes.
    """
    target = np.empty(len(seeds))
    target[:] = target_norm
    targets = target.tolist()
    if any(t < 0 for t in targets):
        raise ParameterError(f"target norm must be >= 0, got {target_norm}")
    if symmetry not in ("hermitian", "free"):
        raise ParameterError(f"symmetry must be 'hermitian' or 'free', got {symmetry!r}")
    drawn = [k for k, t in enumerate(targets) if t != 0.0]  # a zero field draws nothing
    if drawn and s < 0:
        raise ParameterError(f"Sobolev order must be >= 0, got {s}")
    re, im = np.zeros((2, len(seeds), grid.n_modes))
    for k in drawn:
        rng = _generator(seeds[k])
        rng.standard_normal(out=re[k])
        rng.standard_normal(out=im[k])
    c = grid.absj ** (-(float(s) + 1.0)) * (re + 1j * im)
    if symmetry == "hermitian":
        c = 0.5 * (c + np.conj(c[:, grid.neg_index]))
    weight, e = grid.weight(s), c.real * c.real + c.imag * c.imag
    squares = np.ones(len(seeds))  # a row of zeros keeps its zeros
    for k in drawn:
        squares[k] = np.dot(weight, e[k])  # grid.coeff_norm's dot, row by row
    c *= (target / np.sqrt(squares))[:, None]
    return np.ascontiguousarray(c.T)


# -- states ----------------------------------------------------------------


@dataclass(frozen=True)
class RealPair:
    """State (u, v) of the physical system; both components Hermitian-symmetric."""

    u: ComplexField
    v: ComplexField

    def __post_init__(self):
        _same_grid(self.u, self.v)
        scale = max(1.0, float(np.max(np.abs(self.u.coeffs))),
                    float(np.max(np.abs(self.v.coeffs))))
        defect = max(hermitian_defect(self.u), hermitian_defect(self.v))
        if defect > 1e-9 * scale:  # relative to the largest coefficient, or 1
            raise ParameterError(f"state is not Hermitian-symmetric (defect {defect:.3e})")

    @property
    def grid(self) -> SpectralGrid:
        return self.u.grid

    @property
    def doubled(self) -> np.ndarray:
        """The doubled vector [u; v]."""
        return np.concatenate((self.u.coeffs, self.v.coeffs))

    def norm(self, s: float) -> float:
        """The physical pair norm ||u||_{s+1/2} + ||v||_{s-1/2}."""
        return pair_norm(self.grid, self.doubled, s)


@dataclass(frozen=True)
class ConjugatePair:
    """State (w, z) with z = conj(w) as a function; z is derived, never stored."""

    w: ComplexField

    @property
    def grid(self) -> SpectralGrid:
        return self.w.grid

    @property
    def doubled(self) -> np.ndarray:
        """The doubled vector [w; z] that every map on a pair reads."""
        return conjugate_doubled(self.grid, self.w.coeffs)


@dataclass(frozen=True)
class PairStack:
    """Samples of a pair, mode-first: ``doubled`` has shape (2n, m), the doubled
    vector [a; b] of sample k in column k."""

    grid: SpectralGrid
    doubled: np.ndarray


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
    for i, row in enumerate(rows):
        mode, value = row[: grid.d], complex(row[grid.d], row[grid.d + 1])
        if not cmath.isfinite(value):
            raise ParameterError(f"coefficient {i} must be finite, got {value!r}")
        c[grid.slot(mode)] = value
    return ComplexField(grid, c)

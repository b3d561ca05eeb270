"""Truncated zero-mean Fourier lattice on the d-torus.

A grid holds the lattice points j in Z^d \\ {0} with 1 <= |j|^2 <= N^2
(ball truncation, so every sphere |j| = const that intersects the grid is
complete), in a canonical deterministic order, together with the precomputed
structures everything else needs: the negation permutation, the resonance
classes (groups of equal |j|^2), and the stacked class table of the cubic
normal-form stage's coupling coefficients.

Equality of |j| and |k| is always decided on the integer squared norms.
Grids are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ParameterError

#: operational ball radius for the composed change of variables (the analytic
#: radius is a non-constructive universal constant; this one is measured-safe)
DEFAULT_BALL_RADIUS = 0.1


def regularity_threshold(d: int) -> float:
    """Minimal Sobolev order m0 at which the cubic-stage coefficients are bounded.

    In one dimension the eigenvalue differences ||j|-|k|| are >= 1 when nonzero;
    in higher dimension they accumulate to zero and cost half a derivative more.
    """
    if d == 1:
        return 1.0
    return 1.5


def coupling_tables(j2, k2) -> tuple[np.ndarray, np.ndarray]:
    """The coupling coefficients between squared norms j2 and k2, which broadcast:

        diff[j, k] = |j|^2 / (8 (|j| - |k|))   (0 where |j| = |k|)
        sum[j, k]  = |j|^2 / (8 (|j| + |k|))

    The difference denominator is evaluated as the exact integer
    |j|^2 - |k|^2 divided by |j| + |k| to avoid cancellation.
    """
    s = np.sqrt(j2) + np.sqrt(k2)
    diff = j2 * s / np.where(j2 == k2, np.inf, 8.0 * (j2 - k2))  # x / inf = 0
    return diff, j2 / (8.0 * s)


def stack_tables(diff: np.ndarray, sum_: np.ndarray) -> np.ndarray:
    """The class table [[diff, sum], [sum, diff]], read-only.

    It is stored complex (the imaginary parts are zero) because every product
    with it is a product with complex class sums, which would cast a real
    table at each call.
    """
    table = np.block([[diff, sum_], [sum_, diff]]).astype(np.complex128)
    table.setflags(write=False)
    return table


class SpectralGrid:
    """Index lattice, resonance classes and coefficient tables for one (d, N).

    Attributes
    ----------
    d, n_cutoff : dimension and per-|j| cutoff (modes satisfy 1 <= |j|^2 <= N^2).
    modes : (n, d) int array, canonical order (sorted by (|j|^2, j_1, ..., j_d)).
    j2 : (n,) int array of squared norms; absj the float square roots.
    neg_index : (n,) permutation sending the slot of j to the slot of -j.
    class_starts, class_j2 : resonance classes as contiguous slices of the
        canonical order (the order sorts by |j|^2 first, so classes are runs).
    class_of : (n,) index of the resonance class of each mode.
    class_table : (2 nc, 2 nc) :func:`stack_tables` of the :func:`coupling_tables`
        between classes (row = class of j, column = class of k); the one
        stored copy of the diff and sum tables, which ``diff_table`` and
        ``sum_table`` read back.

    The mode-by-mode tables of the pairwise oracle are built on demand by
    :meth:`pair_tables`: they take O(n^2) memory, which no other caller pays.
    """

    def __init__(self, d: int, n_cutoff: int, corrupt_diff_sign: bool = False):
        if d not in (1, 2, 3):
            raise ParameterError(f"spatial dimension must be 1, 2 or 3, got {d}")
        if n_cutoff < 1:
            raise ParameterError(f"cutoff must be >= 1, got {n_cutoff}")
        self.d = int(d)
        self.n_cutoff = int(n_cutoff)
        #: debug knob for negative-control runs: flips the sign of the
        #: difference-coupling table so exact identities must fail
        self.corrupt_diff_sign = bool(corrupt_diff_sign)

        n2max = self.n_cutoff ** 2
        pts = [
            p
            for p in itertools.product(range(-self.n_cutoff, self.n_cutoff + 1), repeat=self.d)
            if 0 < sum(c * c for c in p) <= n2max
        ]
        pts.sort(key=lambda p: (sum(c * c for c in p),) + p)

        self.modes = np.array(pts, dtype=np.int64).reshape(len(pts), self.d)
        self.n_modes = len(pts)
        self.j2 = np.sum(self.modes * self.modes, axis=1)
        self.j2f = self.j2.astype(np.float64)
        self.absj = np.sqrt(self.j2f)

        self._slot = {tuple(p): i for i, p in enumerate(pts)}
        self.neg_index = np.array(
            [self._slot[tuple(-c for c in p)] for p in pts], dtype=np.int64
        )

        # resonance classes: contiguous runs of equal |j|^2
        self.class_j2, self.class_starts = np.unique(self.j2, return_index=True)
        self.n_classes = len(self.class_j2)
        self.class_of = np.searchsorted(self.class_j2, self.j2)
        self.class_j2f = self.class_j2.astype(np.float64)

        c2 = self.class_j2f
        diff, sum_ = coupling_tables(c2[:, None], c2[None, :])
        self.class_table = stack_tables(-diff if self.corrupt_diff_sign else diff, sum_)

        self._weights: dict[float, np.ndarray] = {}
        self._pair_tables: tuple[np.ndarray, np.ndarray] | None = None
        self._validate()

    def _validate(self) -> None:
        # zero mode excluded, negation closure, resonance partition
        if np.any(self.j2 == 0):
            raise ParameterError("zero mode present in index set")
        if not np.array_equal(self.modes[self.neg_index], -self.modes):
            raise ParameterError("index set is not closed under negation")
        counts = np.zeros(self.n_classes, dtype=np.int64)
        for i, c in enumerate(self.class_of):
            counts[c] += 1
            if self.class_j2[c] != self.j2[i]:
                raise ParameterError("resonance class key mismatch")
        if counts.sum() != self.n_modes or np.any(counts <= 0):
            raise ParameterError("resonance classes do not partition the index set")

    # -- lookups -----------------------------------------------------------

    @property
    def diff_table(self) -> np.ndarray:
        nc = self.n_classes
        return self.class_table[:nc, :nc].real

    @property
    def sum_table(self) -> np.ndarray:
        nc = self.n_classes
        return self.class_table[:nc, nc:].real

    def slot(self, mode) -> int:
        """Position of a lattice point in the canonical order."""
        key = (int(mode),) if np.isscalar(mode) else tuple(int(c) for c in mode)
        if len(key) != self.d:
            raise ParameterError(f"mode {key} has wrong dimension for d={self.d}")
        if key not in self._slot:
            raise ParameterError(f"mode {key} not in grid (d={self.d}, N={self.n_cutoff})")
        return self._slot[key]

    def weight(self, s: float) -> np.ndarray:
        """Cached |j|^(2s) weight vector for Sobolev norms."""
        s = float(s)
        w = self._weights.get(s)
        if w is None:
            w = np.power(self.j2f, s)
            w.setflags(write=False)
            self._weights[s] = w
        return w

    def pair_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n, n) tables Dp[k, j], Sp[k, j] of :func:`coupling_tables` between
        the modes (row k is the image), cached and read-only.

        Built on the first call from the integer squared norms alone: they ignore
        ``corrupt_diff_sign`` and the class table, since the pairwise oracle must
        not share the class reduction it checks.
        """
        if self._pair_tables is None:
            diff, sum_ = coupling_tables(self.j2f[None, :], self.j2f[:, None])
            diff.setflags(write=False)
            sum_.setflags(write=False)
            self._pair_tables = diff, sum_
        return self._pair_tables

    def class_sums(self, prod: np.ndarray) -> np.ndarray:
        """Sum of a per-mode array over each resonance class, along the last axis."""
        return np.add.reduceat(prod, self.class_starts, axis=-1)

    def coeff_norm(self, coeffs: np.ndarray, s: float) -> float:
        """Sobolev norm with weights |j|^(2s) of a raw coefficient vector."""
        c = coeffs
        return float(np.sqrt(np.dot(self.weight(s), c.real * c.real + c.imag * c.imag)))

    def pairing(self, a: np.ndarray, b: np.ndarray, weight: np.ndarray | None = None) -> complex:
        """Bilinear (not sesquilinear) pairing sum_j weight_j a_j b_{-j}; weight 1 if None."""
        if weight is not None:
            a = weight * a
        return complex(np.dot(a, b[self.neg_index]))

    @property
    def m0(self) -> float:
        return regularity_threshold(self.d)

    def compatible(self, other: "SpectralGrid") -> bool:
        return self.d == other.d and self.n_cutoff == other.n_cutoff

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpectralGrid(d={self.d}, N={self.n_cutoff}, modes={self.n_modes})"

import numpy as np
import pytest

from kirchhoff_spectral import ParameterError, SpectralGrid, regularity_threshold
from kirchhoff_spectral.grid import coupling_tables, stack_tables
from oracles import class_blocks, lattice, same_bits


def test_regularity_threshold():
    assert regularity_threshold(1) == 1.0
    assert regularity_threshold(2) == 1.5
    assert regularity_threshold(3) == 1.5


@pytest.mark.parametrize("d,n", [(1, 8), (2, 4), (2, 8), (3, 3)])
def test_construction_invariants(d, n):
    g = SpectralGrid(d, n)
    assert np.all(g.j2 >= 1)
    assert np.all(g.j2 <= n * n)
    # closed under negation
    assert np.array_equal(g.modes[g.neg_index], -g.modes)
    # every mode in exactly one class, keyed by its integer squared norm
    assert np.array_equal(g.class_j2[g.class_of], g.j2)
    # classes are contiguous runs in the canonical order
    assert np.all(np.diff(g.class_of) >= 0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_construction_matches_the_itertools_lattice(d, n):
    # the index-array construction against the point-by-point one: the same
    # modes in the same order, the same negation, classes and class table
    g = SpectralGrid(d, n)
    modes, neg_index, slot = lattice(d, n)
    assert same_bits(g.modes, modes) and same_bits(g.neg_index, neg_index)
    class_j2, class_of = np.unique(np.sum(modes * modes, axis=1), return_inverse=True)
    assert same_bits(g.class_of, class_of)
    c2 = class_j2.astype(np.float64)
    assert same_bits(g.class_table, stack_tables(*coupling_tables(c2[:, None], c2[None, :])))
    if n == 4:
        assert all(g.slot(p) == i for p, i in slot.items())


def test_ball_truncation_keeps_spheres_complete():
    g = SpectralGrid(2, 4)
    slots = {tuple(m) for m in g.modes.tolist()}
    assert (4, 0) in slots
    assert (3, 3) not in slots  # |j|^2 = 18 > 16
    # the |j|^2 = 16 sphere is complete: (+-4, 0) and (0, +-4)
    cls = int(np.searchsorted(g.class_j2, 16))
    members = {tuple(m) for m in g.modes[g.class_of == cls].tolist()}
    assert members == {(4, 0), (-4, 0), (0, 4), (0, -4)}


def test_canonical_order_is_deterministic():
    a = SpectralGrid(1, 4)
    b = SpectralGrid(1, 4)
    assert np.array_equal(a.modes, b.modes)
    # sorted by squared norm first, then lexicographically
    assert a.modes[:, 0].tolist() == [-1, 1, -2, 2, -3, 3, -4, 4]


def test_large_grids_validate_at_construction():
    for d, n in [(1, 12), (2, 12), (3, 12)]:
        g = SpectralGrid(d, n)
        assert g.n_modes > 0


def test_slot_lookup_and_errors(grid1):
    assert grid1.modes[grid1.slot(3)][0] == 3
    assert grid1.modes[grid1.slot((3,))][0] == 3
    with pytest.raises(ParameterError):
        grid1.slot(0)
    with pytest.raises(ParameterError):
        grid1.slot(9)
    with pytest.raises(ParameterError):
        grid1.slot((1, 1))
    g = SpectralGrid(2, 4)
    assert g.modes[g.slot((-4, 0))].tolist() == [-4, 0]
    for outside in ((3, 3), (5, 0), (0, -5), (0, 0)):
        with pytest.raises(ParameterError, match="not in grid"):
            g.slot(outside)


def test_bad_parameters():
    with pytest.raises(ParameterError):
        SpectralGrid(4, 4)
    with pytest.raises(ParameterError):
        SpectralGrid(1, 0)


def test_weight_cache(grid1):
    w = grid1.weight(1.5)
    assert w is grid1.weight(1.5)
    assert np.allclose(w, grid1.j2f ** 1.5)
    assert np.all(grid1.weight(0.0) == 1.0)


def test_coupling_tables_resonant_zero(grid2):
    # diagonal of the difference table is exactly zero (resonant pairs)
    diff, sum_ = class_blocks(grid2)
    assert np.all(np.diag(diff) == 0.0)
    assert np.all(np.isfinite(diff))
    assert np.all(sum_ > 0.0)


def test_corrupt_flag_flips_diff_table():
    g = SpectralGrid(1, 4)
    gc = SpectralGrid(1, 4, corrupt_diff_sign=True)
    assert np.array_equal(class_blocks(gc)[0], -class_blocks(g)[0])


def test_corrupt_flag_flips_both_diff_blocks_of_the_class_table(grid2):
    # the class table is the one stored copy of the tables, so the negative
    # control must reach both places the diff table sits in it
    gc = SpectralGrid(2, 4, corrupt_diff_sign=True)
    nc = grid2.n_classes
    t, tc = grid2.class_table, gc.class_table
    for rows, cols in ((slice(None, nc), slice(None, nc)), (slice(nc, None), slice(nc, None))):
        assert np.any(t[rows, cols] != 0.0)
        assert np.array_equal(tc[rows, cols], -t[rows, cols])
    for rows, cols in ((slice(None, nc), slice(nc, None)), (slice(nc, None), slice(None, nc))):
        assert np.array_equal(tc[rows, cols], t[rows, cols])


# -- the doubled basis [a; b] -------------------------------------------------------


def _doubled_random(g, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(2 * g.n_modes) + 1j * rng.standard_normal(2 * g.n_modes)


def test_doubled_negation_is_an_involution_within_each_half(layout_grid):
    g = layout_grid
    n = g.n_modes
    assert np.array_equal(g.pair_neg[g.pair_neg], np.arange(2 * n))
    assert np.array_equal(g.pair_neg[:n], g.neg_index)
    assert np.array_equal(g.pair_neg[n:], n + g.neg_index)


def test_doubled_swap_exchanges_the_halves(layout_grid):
    g = layout_grid
    n = g.n_modes
    x = _doubled_random(g, 1)
    assert np.array_equal(x[g.pair_swap], np.concatenate((x[n:], x[:n])))
    assert np.array_equal(g.pair_swap[g.pair_swap], np.arange(2 * n))


def test_class_sums_of_a_doubled_product_are_the_two_halves_sums(layout_grid):
    g = layout_grid
    n, nc = g.n_modes, g.n_classes
    x, y = _doubled_random(g, 2), _doubled_random(g, 3)
    prod = x * y[g.pair_neg]
    halves_sums = np.concatenate(
        (g.class_sums(x[:n] * y[:n][g.neg_index]), g.class_sums(x[n:] * y[n:][g.neg_index]))
    )
    doubled = g.class_sums(prod)
    assert doubled.shape == (2 * nc,)
    assert same_bits(doubled, halves_sums)
    # each slot reads its own class in its own half
    per_slot = np.concatenate((halves_sums[:nc][g.class_of], halves_sums[nc:][g.class_of]))
    assert same_bits(doubled[g.pair_class_of], per_slot)


def test_doubled_norm_is_the_larger_half_norm(layout_grid):
    g = layout_grid
    n = g.n_modes
    x = _doubled_random(g, 4)
    expected = max(g.coeff_norm(x[:n], g.m0), g.coeff_norm(x[n:], g.m0))
    assert g.doubled_norm(x, g.m0) == expected
    # a NaN in either half is never dropped
    for i in (0, n):
        y = x.copy()
        y[i] = np.nan
        assert np.isnan(g.doubled_norm(y, g.m0))

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchhoff_spectral import (
    ComplexField,
    ConjugatePair,
    GridMismatchError,
    ParameterError,
    RealPair,
    SpectralGrid,
    field_from_dict,
    field_to_dict,
    hermitian_defect,
    random_field,
    sobolev_norm,
)
from kirchhoff_spectral.fields import random_fields
from oracles import reference_random_field, same_bits, unit_mode


def test_sobolev_norm_examples(grid1):
    assert sobolev_norm(ComplexField.zero(grid1), 2.0) == 0.0
    f = ComplexField.zero(grid1)
    c = f.coeffs.copy()
    c[grid1.slot(1)] = 1.0
    c[grid1.slot(-1)] = 1.0
    f = ComplexField(grid1, c)
    for s in (0.0, 1.3, 4.0):
        assert sobolev_norm(f, s) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    g = ComplexField.zero(grid1).coeffs.copy()
    g[grid1.slot(2)] = 1.0
    g[grid1.slot(-2)] = 1.0
    assert sobolev_norm(ComplexField(grid1, g), 1.5) == pytest.approx(4.0, rel=1e-14)


def test_sobolev_norm_rejects_negative_order(grid1):
    with pytest.raises(ParameterError):
        sobolev_norm(ComplexField.zero(grid1), -0.5)


def test_norm_monotone_in_order(grid1):
    f = random_field(grid1, 3, 1.0, 1.0, "free")
    for s, t in [(0.0, 0.5), (0.5, 1.0), (1.0, 2.5), (0.0, 3.0)]:
        assert sobolev_norm(f, s) <= sobolev_norm(f, t) * (1 + 1e-14)


def test_lambda_power(grid1):
    # the Fourier multiplier |j|^sigma is grid.absj ** sigma times the coefficients
    f = random_field(grid1, 4, 1.0, 0.0, "free").coeffs
    assert np.array_equal(grid1.absj ** 0.0 * f, f)
    delta = unit_mode(grid1, 2).coeffs
    assert (grid1.absj ** 0.5 * delta)[grid1.slot(2)] == pytest.approx(math.sqrt(2.0))
    back = grid1.absj ** -0.5 * (grid1.absj ** 0.5 * f)
    assert np.max(np.abs(back - f)) < 1e-15


def test_pairing_examples(grid1):
    z = ComplexField.zero(grid1).coeffs
    assert grid1.pairing(z, z) == 0.0
    c = z.copy()
    c[grid1.slot(1)] = 1.0
    c[grid1.slot(-1)] = 1.0
    assert grid1.pairing(c, c) == pytest.approx(2.0)
    c2 = z.copy()
    c2[grid1.slot(1)] = 1j
    c2[grid1.slot(-1)] = -1j
    assert grid1.pairing(c2, c2) == pytest.approx(2.0)


def test_pairing_symmetric_and_multiplier_selfadjoint(grid1):
    f = random_field(grid1, 5, 1.0, 0.0, "free").coeffs
    g = random_field(grid1, 6, 1.0, 0.0, "free").coeffs
    assert grid1.pairing(f, g) == pytest.approx(grid1.pairing(g, f), rel=1e-14)
    lam = grid1.absj ** 1.7
    lhs = grid1.pairing(lam * f, g)
    rhs = grid1.pairing(f, lam * g)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_pairing_with_conjugate_is_l2_norm(grid1):
    f = random_field(grid1, 7, 0.8, 1.0, "free")
    val = grid1.pairing(f.coeffs, ConjugatePair(f).doubled[grid1.n_modes:])
    assert val.imag == pytest.approx(0.0, abs=1e-16)
    assert val.real == pytest.approx(sobolev_norm(f, 0.0) ** 2, rel=1e-13)


def test_real_pair_grid_mismatch(grid1, grid1_small):
    with pytest.raises(GridMismatchError):
        RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1_small))


class TestRandomField:
    def test_zero_target(self, grid1):
        assert np.all(random_field(grid1, 1, 0.0, 1.0).coeffs == 0.0)

    def test_deterministic(self, grid1):
        a = random_field(grid1, 42, 0.3, 1.0, "hermitian")
        b = random_field(grid1, 42, 0.3, 1.0, "hermitian")
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_norm_hits_target(self, grid1, grid2):
        for g in (grid1, grid2):
            f = random_field(g, 1, 0.3, g.m0, "hermitian")
            assert sobolev_norm(f, g.m0) == pytest.approx(0.3, rel=1e-12)

    def test_hermitian_symmetry(self, grid2):
        f = random_field(grid2, 9, 1.0, 1.5, "hermitian")
        assert hermitian_defect(f) == 0.0

    def test_errors(self, grid1):
        with pytest.raises(ParameterError):
            random_field(grid1, 1, -1.0, 1.0)
        with pytest.raises(ParameterError):
            random_field(grid1, 1, 1.0, 1.0, symmetry="odd")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), s=st.floats(0.0, 3.0), t=st.floats(0.0, 3.0))
def test_norm_monotonicity_property(seed, s, t):
    grid = SpectralGrid(1, 6)
    f = random_field(grid, seed, 1.0, 0.0, "free")
    lo, hi = min(s, t), max(s, t)
    assert sobolev_norm(f, lo) <= sobolev_norm(f, hi) * (1 + 1e-12)


def test_conjugate_pair_is_pointwise_conjugate(grid1):
    w = random_field(grid1, 11, 1.0, 1.0, "free")
    z = ConjugatePair(w).doubled[grid1.n_modes:]
    # z_j = conj(w_{-j}) in coefficients ...
    for j in (1, -3, 5):
        assert z[grid1.slot(j)] == np.conj(w.coeffs[grid1.slot(-j)])
    # ... which makes z(x) = conj(w(x)) at any point
    for x in (0.3, 1.1, 2.9):
        wx = sum(w.coeffs[i] * np.exp(1j * grid1.modes[i, 0] * x) for i in range(grid1.n_modes))
        zx = sum(z[i] * np.exp(1j * grid1.modes[i, 0] * x) for i in range(grid1.n_modes))
        assert zx == pytest.approx(np.conj(wx), abs=1e-12)


def test_real_pair_validates_symmetry(grid1):
    u = random_field(grid1, 12, 0.5, 1.5, "hermitian")
    v = random_field(grid1, 13, 0.5, 0.5, "hermitian")
    RealPair(u, v)
    crooked = random_field(grid1, 14, 0.5, 1.5, "free")
    with pytest.raises(ParameterError):
        RealPair(crooked, v)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_real_pair_checks_symmetry_at_a_relative_1e_9(grid1, scale):
    # always on, relative to the largest coefficient or 1
    u = scale * random_field(grid1, 12, 0.5, 1.5, "hermitian").coeffs
    v = ComplexField(grid1, scale * random_field(grid1, 13, 0.5, 0.5, "hermitian").coeffs)
    size = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(v.coeffs))))
    for defect, refused in ((0.9e-9, False), (1.1e-9, True)):
        bent = u.copy()
        bent[grid1.slot(1)] += defect * size
        assert hermitian_defect(ComplexField(grid1, bent)) == pytest.approx(defect * size)
        if refused:
            with pytest.raises(ParameterError):
                RealPair(ComplexField(grid1, bent), v)
        else:
            RealPair(ComplexField(grid1, bent), v)


def test_serialization_round_trip_bit_exact(grid2):
    f = random_field(grid2, 16, 0.7, 1.5, "free")
    text = json.dumps(field_to_dict(f))
    back = field_from_dict(json.loads(text))
    assert back.grid.compatible(f.grid)
    assert np.array_equal(back.coeffs, f.coeffs)
    # canonical mode order in the document
    doc = json.loads(text)
    assert doc["d"] == 2 and doc["N"] == 4
    modes = [tuple(row[:2]) for row in doc["coeffs"]]
    assert modes == [tuple(m) for m in f.grid.modes.tolist()]


def test_serialization_grid_mismatch(grid1, grid1_small):
    f = random_field(grid1, 17, 1.0, 1.0, "free")
    with pytest.raises(GridMismatchError):
        field_from_dict(json.loads(json.dumps(field_to_dict(f))), grid1_small)


#: seeds of every kind random_field takes: 0, ints, lists of parts below 2**32
#: (read as uint32 words), and parts at or above 2**32 (passed on as they are)
SEEDS = (0, 7, 2**32 - 1, [0], [20260808, 4, 3, 17, 2], (5, 6), [2**32, 1], 2**40, [3, 2**63])


@pytest.mark.parametrize("symmetry", ["free", "hermitian"])
def test_each_stacked_draw_is_its_random_field_bit_for_bit(grid2, symmetry):
    stack = random_fields(grid2, list(SEEDS), 0.7, 1.5, symmetry)
    assert stack.shape == (grid2.n_modes, len(SEEDS)) and stack.flags.c_contiguous
    for k, seed in enumerate(SEEDS):
        assert same_bits(stack[:, k], random_field(grid2, seed, 0.7, 1.5, symmetry).coeffs)


@pytest.mark.parametrize("symmetry", ["free", "hermitian"])
@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_a_draw_is_the_one_default_rng_makes_of_its_seed(grid1, seed, symmetry):
    # uint32 words in place of a list of small ints build the same pool
    reference = reference_random_field(grid1, seed, 0.4, 1.0, symmetry)
    assert same_bits(random_field(grid1, seed, 0.4, 1.0, symmetry).coeffs, reference)


def test_a_stacked_draw_takes_a_norm_per_seed(grid1):
    seeds = [[1, k] for k in range(4)]
    targets = [0.1, 0.0, 0.3, 2.0]
    stack = random_fields(grid1, seeds, targets, 1.0)
    assert np.all(stack[:, 1] == 0.0) and not np.signbit(stack[:, 1].real).any()
    for k in (0, 2, 3):
        assert same_bits(stack[:, k], random_field(grid1, seeds[k], targets[k], 1.0).coeffs)


@pytest.mark.parametrize("seed", [-1, [1, -2], [-(2**40)]], ids=str)
def test_a_negative_seed_part_still_raises(grid1, seed):
    with pytest.raises(ValueError):
        random_field(grid1, seed, 1.0, 1.0)
    with pytest.raises(ValueError):
        random_fields(grid1, [[1], seed], 1.0, 1.0)

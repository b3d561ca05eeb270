import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchhoff_spectral import DomainError, random_field
from kirchhoff_spectral.fields import ConjugatePair
from kirchhoff_spectral.transforms import p_value, q_value, rho, wave_speed
from oracles import same_bits, wave_speed_minus_one


def test_rho_values():
    assert rho(0.0) == 0.0
    assert rho(4.0) == pytest.approx(-0.5, rel=1e-15)
    with pytest.raises(DomainError):
        rho(-1e-9)


def test_rho_of_an_array_is_the_scalar_map_per_entry():
    x = np.array([0.0, 1e-300, 1e-9, 0.3, 1 / 3, 4.0, 123.456, 1e8, 1e300, np.nan])
    r = rho(x)
    # each entry to the bit: the map on that entry alone, and its math-library form
    assert same_bits(r[:-1], np.array([rho(float(v)) for v in x[:-1]]))
    assert same_bits(r[:-1], np.array([-v / (1.0 + v + math.sqrt(1.0 + 2.0 * v)) for v in x[:-1]]))
    assert np.isnan(r[-1])  # a NaN is kept, not refused


def test_rho_of_an_array_refuses_its_first_negative_entry():
    with pytest.raises(DomainError, match="got -0.5") as exc:
        rho(np.array([0.2, np.nan, -0.5, 1.0, -2.0]))
    assert exc.value.column == 2


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_rho_radical_identity(x):
    r = rho(x)
    assert (1 - r) / (1 + r) - math.sqrt(1 + 2 * x) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e6))
def test_rho_range_and_identity(x):
    r = rho(x)
    assert -1.0 < r <= 0.0
    assert abs((1 - r) / (1 + r) - math.sqrt(1 + 2 * x)) <= 1e-12 * max(1.0, math.sqrt(1 + 2 * x))


def test_wave_speed_values():
    assert wave_speed(0.0) == 1.0
    assert wave_speed(3.0) == pytest.approx(2.0, rel=1e-15)  # 8 - 2 = 2 * 3
    with pytest.raises(DomainError):
        wave_speed(-1e-300)


@pytest.mark.parametrize("offset", [-1e-12, 0.0, 1e-12])
def test_wave_speed_branches_meet_at_the_double_root(offset):
    # 3 sqrt3 q = 1 is where the trigonometric branch hands over to the
    # hyperbolic one; on both sides the root is the reference's to a few ulps
    q = (1.0 + offset) / (3.0 * math.sqrt(3.0))
    sigma = wave_speed(q)
    assert abs(sigma - (1 + float(wave_speed_minus_one(q)))) <= 4 * math.ulp(sigma)


def _p_of(q):
    """P at Q = q, the inverse of x -> x sqrt(1+2x): q over the wave speed, as
    ``transforms._speed_scalars`` returns it."""
    return q / wave_speed(q)


@pytest.mark.parametrize("q", [1e-15, 1e-9, 1e-4, 0.05, 0.2, 1.0, 30.0, 1e4, 1e8])
def test_phi_inv_against_the_reference_root(q):
    p = Decimal(q) / (1 + wave_speed_minus_one(q))
    assert abs(_p_of(q) - float(p)) <= 4e-15 * float(p)


def test_phi_inv_values():
    assert _p_of(0.0) == 0.0
    assert _p_of(math.sqrt(3.0)) == pytest.approx(1.0, rel=1e-14)
    assert _p_of(12.0) == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(DomainError):
        _p_of(-0.1)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e8))
def test_phi_inv_residual(y):
    x = _p_of(y)
    assert x >= 0.0
    assert abs(x * math.sqrt(1 + 2 * x) - y) <= 1e-14 * max(1.0, y)


def test_q_value_examples(grid1):
    z = np.zeros(2 * grid1.n_modes, dtype=np.complex128)
    assert q_value(grid1, z) == 0.0
    c = np.zeros(grid1.n_modes, dtype=np.complex128)
    c[grid1.slot(1)] = 0.5
    c[grid1.slot(-1)] = 0.5
    assert q_value(grid1, np.tile(c, 2)) == pytest.approx(0.5, rel=1e-15)


def test_q_value_nonnegative_on_conjugate_pairs(grid1, grid2):
    for g in (grid1, grid2):
        for seed in range(100):
            pair = ConjugatePair(random_field(g, seed, 0.5, 1.0, "free"))
            # z_j = conj(w_{-j}), built here from its definition
            x = np.concatenate((pair.w.coeffs, np.conj(pair.w.coeffs[g.neg_index])))
            assert q_value(g, pair.doubled) >= 0.0
            assert q_value(g, pair.doubled) == pytest.approx(q_value(g, x), abs=1e-14)


def test_q_value_rejects_non_conjugate(grid1):
    x = np.concatenate([random_field(grid1, k, 1.0, 1.0, "free").coeffs for k in (1, 2)])
    with pytest.raises(DomainError):
        q_value(grid1, x)


def test_p_value(grid1):
    z = np.zeros(2 * grid1.n_modes, dtype=np.complex128)
    assert p_value(grid1, z) == 0.0
    # single-mode pair scaled so that Q = sqrt(3), whence P = 1
    t = math.sqrt(math.sqrt(3.0) / 2.0)
    c = np.zeros(grid1.n_modes, dtype=np.complex128)
    c[grid1.slot(1)] = t
    c[grid1.slot(-1)] = t
    x = np.tile(c, 2)
    assert q_value(grid1, x) == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert p_value(grid1, x) == pytest.approx(1.0, rel=1e-13)


def test_p_value_below_q_and_radical(grid1):
    for seed in range(50):
        x = ConjugatePair(random_field(grid1, seed, 0.8, 1.0, "free")).doubled
        q = q_value(grid1, x)
        p = p_value(grid1, x)
        assert p <= q * (1 + 1e-14)
        assert p * math.sqrt(1 + 2 * p) == pytest.approx(q, rel=1e-13, abs=1e-15)

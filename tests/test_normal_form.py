from decimal import Decimal

import numpy as np
import pytest

from kirchhoff_spectral import ComplexField, ConjugatePair, DomainError, random_field
from kirchhoff_spectral.coupling import jac_arrays, linearize, mix_arrays
from kirchhoff_spectral.fields import (
    conjugate_defect,
    conjugate_doubled,
    halves,
    random_fields,
)
from kirchhoff_spectral.normal_form import (
    decompose_rhs,
    diag_linear_arrays,
    diagonalized_rhs_arrays,
    energy_derivative_arrays,
    normal_form_direct_arrays,
    normal_form_rhs,
    normal_form_rhs_arrays,
    offdiag_cubic_arrays,
    resonant_cubic_arrays,
)
from kirchhoff_spectral.transforms import cubic_stage, q_value
from oracles import STACKED_DEFECT_ROUNDING, same_bits, wave_speed_minus_one


def _pair(grid, seed, norm):
    return ConjugatePair(random_field(grid, seed, norm, grid.m0, "free"))


def _arrays(pair):
    return pair.grid, pair.doubled


def _lin(pair):
    return linearize(*_arrays(pair))


def test_diagonalized_rhs_zero(grid1):
    out = diagonalized_rhs_arrays(*_arrays(ConjugatePair(ComplexField.zero(grid1))))
    assert np.all(out == 0.0)


def test_diagonalized_rhs_real_structure(grid1, grid2):
    for g, seed in ((grid1, 1), (grid2, 2)):
        pair = _pair(g, seed, 0.3)
        assert conjugate_defect(g, diagonalized_rhs_arrays(*_arrays(pair))) <= 1e-14


def test_decomposition_sums_to_field(grid1):
    pair = _pair(grid1, 3, 0.4)
    parts = decompose_rhs(*_arrays(pair))
    total = diagonalized_rhs_arrays(*_arrays(pair))
    s = parts.diag_linear + parts.diag_tail + parts.offdiag_cubic + parts.offdiag_tail
    assert np.max(np.abs(s - total)) <= 1e-13


def test_decomposition_zero(grid1):
    parts = decompose_rhs(*_arrays(ConjugatePair(ComplexField.zero(grid1))))
    for part in (parts.diag_linear, parts.diag_tail, parts.offdiag_cubic, parts.offdiag_tail):
        assert np.all(part == 0.0)
    assert parts.p_value == 0.0


def test_offdiagonal_parts_vanish_for_real_valued_state(grid1):
    # for a real-valued w the pair is (w, w) and the off-diagonal scalar cancels exactly
    c = random_field(grid1, 4, 0.3, 1.0, "free").coeffs
    w = ComplexField(grid1, 0.5 * (c + np.conj(c[grid1.neg_index])))
    pair = ConjugatePair(w)
    assert np.array_equal(pair.doubled[grid1.n_modes:], w.coeffs)
    parts = decompose_rhs(*_arrays(pair))
    assert np.all(parts.offdiag_cubic == 0.0)
    assert np.all(parts.offdiag_tail == 0.0)


def test_resonant_cubic_single_pair_example(grid1):
    a, b = 0.3 + 0.1j, -0.2 + 0.05j
    c = np.zeros(grid1.n_modes, dtype=np.complex128)
    c[grid1.slot(1)] = a
    c[grid1.slot(-1)] = b
    pair = ConjugatePair(ComplexField(grid1, c))
    first = resonant_cubic_arrays(_lin(pair))[: grid1.n_modes]
    z = pair.doubled[grid1.n_modes:]
    # class {1,-1}: sum of w_j w_{-j} |j|^2 over the class is 2ab
    for k in (1, -1):
        i = grid1.slot(k)
        assert first[i] == pytest.approx(-0.25j * (2 * a * b) * z[i], rel=1e-14)
    assert np.all(first[grid1.j2 > 1] == 0.0)


def test_resonant_cubic_couples_only_within_class(grid2):
    w = random_field(grid2, 5, 0.4, 1.5, "free")
    pair = ConjugatePair(w)
    first = resonant_cubic_arrays(_lin(pair))[: grid2.n_modes]
    # zeroing a class of w changes the output only inside that class
    cls = 2
    mask = pair.grid.class_of == cls
    c2 = w.coeffs.copy()
    c2[mask] = 0.0
    first2 = resonant_cubic_arrays(_lin(ConjugatePair(ComplexField(grid2, c2))))[: grid2.n_modes]
    outside = ~mask
    # outside the class the only dependence is through z, unchanged there
    assert np.max(np.abs(first[outside] - first2[outside])) <= 1e-15


def _homological_defect(g, seeds, amplitude):
    """(mix + jac) of the rotation minus (off-diagonal cubic - resonant cubic),
    on an arbitrary (non-conjugate) pair: zero."""
    x = np.concatenate([random_field(g, seed, amplitude, g.m0, "free").coeffs for seed in seeds])
    dx = diag_linear_arrays(g, x)
    lin = linearize(g, x)
    lhs = mix_arrays(lin, dx) + jac_arrays(lin, dx)
    return np.max(np.abs(lhs - (offdiag_cubic_arrays(lin) - resonant_cubic_arrays(lin))))


def test_homological_identity_spot(grid2):
    assert _homological_defect(grid2, (6, 7), 0.4) <= 1e-13


def test_energy_cancellation(grid1):
    pair = _pair(grid1, 8, 0.3)
    w = pair.w.coeffs
    x3 = resonant_cubic_arrays(_lin(pair))[: grid1.n_modes]
    for s in (1.0, 2.5):
        assert abs(energy_derivative_arrays(grid1, w, x3, s)) <= 1e-13
    nf = normal_form_rhs(*_arrays(pair))
    for s in (1.0, 2.5):
        assert abs(energy_derivative_arrays(grid1, w, nf.linear[0], s)) <= 1e-13


class TestNormalFormRhs:
    def test_zero(self, grid1):
        nf = normal_form_rhs(*_arrays(ConjugatePair(ComplexField.zero(grid1))))
        assert np.all(nf.total[0] == 0.0)
        assert nf.speed_shift == 0.0

    def test_parts_sum(self, grid1):
        nf = normal_form_rhs(*_arrays(_pair(grid1, 9, 0.2)))
        for i in range(2):
            s = nf.linear[i] + nf.cubic[i] + nf.quintic[i]
            assert np.max(np.abs(s - nf.total[i])) <= 1e-12

    def test_direct_vs_structured(self, grid1, grid2):
        for g, seed in ((grid1, 10), (grid2, 11)):
            pair = _pair(g, seed, 0.2)
            a = halves(normal_form_direct_arrays(*_arrays(pair)))
            b = normal_form_rhs(*_arrays(pair)).total
            den = g.coeff_norm(a[0], g.m0)
            for i in range(2):
                assert g.coeff_norm(a[i] - b[i], g.m0) / den <= 1e-10

    def test_real_structure(self, grid1):
        pair = _pair(grid1, 12, 0.25)
        nf = normal_form_rhs(*_arrays(pair))
        assert conjugate_defect(grid1, np.concatenate(nf.total)) <= 1e-14

    def test_speed_shift_nonnegative(self, grid1):
        for seed in range(10):
            pair = _pair(grid1, 100 + seed, 0.3)
            nf = normal_form_rhs(*_arrays(pair))
            assert nf.speed_shift >= 0.0

    def test_speed_shift_is_accurate_at_small_amplitude(self, grid1):
        # sigma - 1 with sigma = sqrt(1 + 2P) loses every digit of P that
        # falls below one ulp of 1; at ||w||_m0 = 1e-5 the shift is ~1e-10
        pair = _pair(grid1, 5, 1e-5)
        reference = wave_speed_minus_one(q_value(grid1, cubic_stage("fwd", *_arrays(pair))))
        shift = normal_form_rhs(*_arrays(pair)).speed_shift
        assert 0.0 < shift < 1e-9
        assert abs(Decimal(shift) - reference) <= Decimal(1e-13) * reference

    def test_ball_check(self, grid1):
        pair = _pair(grid1, 13, 0.6)
        with pytest.raises(DomainError):
            normal_form_rhs(*_arrays(pair))
        with pytest.raises(DomainError):
            normal_form_direct_arrays(*_arrays(pair))

    def test_quintic_part_is_quintically_small(self, grid1):
        # ||quintic||_s <= C ||w||_1^2 ||w||_m0^2 ||w||_s with a stable measured C
        ratios = []
        for seed, norm in ((14, 0.1), (15, 0.2), (16, 0.05)):
            pair = _pair(grid1, seed, norm)
            nf = normal_form_rhs(*_arrays(pair))
            w = pair.w
            s = grid1.m0 + 1.0
            den = w.norm(1.0) ** 2 * w.norm(grid1.m0) ** 2 * w.norm(s)
            ratios.append(grid1.coeff_norm(nf.quintic[0], s) / den)
        assert max(ratios) < 50.0  # finite, O(1) constant
        assert max(ratios) / min(ratios) < 20.0


def test_energy_derivative_matches_explicit_sum(grid1):
    pair = _pair(grid1, 17, 0.3)
    field = diagonalized_rhs_arrays(*_arrays(pair))[: grid1.n_modes]
    s = 1.5
    w = pair.w.coeffs
    manual = 2.0 * np.real(
        np.sum(grid1.j2f ** s * field * np.conj(w))
    )
    assert energy_derivative_arrays(grid1, w, field, s) == pytest.approx(manual, rel=1e-13)


def test_homological_identity_in_three_dimensions():
    # the class machinery with genuinely multi-member resonance spheres
    from kirchhoff_spectral import SpectralGrid

    assert _homological_defect(SpectralGrid(3, 2), (21, 22), 0.3) <= 1e-13


def test_diagonalized_rhs_rejects_non_conjugate(grid1):
    a = random_field(grid1, 18, 0.5, 1.0, "free")
    b = random_field(grid1, 19, 0.5, 1.0, "free")
    with pytest.raises(DomainError):
        diagonalized_rhs_arrays(grid1, np.concatenate((a.coeffs, b.coeffs)))


def test_energy_derivative_arrays_consistent(grid1):
    # the field-layer and array-layer normal-form fields give the same derivative
    pair = _pair(grid1, 20, 0.2)
    nf = normal_form_rhs(*_arrays(pair))
    w = pair.w.coeffs
    ed1 = energy_derivative_arrays(grid1, w, nf.total[0], 1.0)
    ed2 = energy_derivative_arrays(grid1, w, halves(normal_form_rhs_arrays(*_arrays(pair)))[0], 1.0)
    assert ed1 == ed2


def test_flow_field_is_the_first_half_of_the_total(layout_grid):
    # the flow integrates the first half of the doubled total, bit for bit
    from kirchhoff_spectral.dynamics import NormalFormDynamics

    g = layout_grid
    pair = _pair(g, 23, 0.2)
    nf = normal_form_rhs(*_arrays(pair))
    flow = NormalFormDynamics(g).rhs(0.0, pair.w.coeffs)
    assert same_bits(flow, nf.total[0])
    assert all(part[0].base is part[1].base for part in (nf.total, nf.linear, nf.cubic, nf.quintic))


def _stack(grid, norms):
    """A mode-first stack of conjugate pairs, one per norm, and its first halves."""
    w = random_fields(grid, [[30, k] for k in range(len(norms))], norms, grid.m0)
    return conjugate_doubled(grid, w), w


@pytest.mark.parametrize("field", [normal_form_rhs_arrays, normal_form_direct_arrays,
                                   diagonalized_rhs_arrays])
def test_the_fields_of_a_stack_are_its_columns_fields(grid2, field):
    x, _ = _stack(grid2, [0.02, 0.1, 0.2, 0.3, 0.45])
    out = field(grid2, x)
    for k in range(x.shape[1]):
        one = field(grid2, x[:, k])
        assert np.max(np.abs(out[:, k] - one)) <= STACKED_DEFECT_ROUNDING * np.max(np.abs(one))


def test_the_parts_and_rates_of_a_stack_are_its_columns(grid2):
    x, w = _stack(grid2, [0.05, 0.2, 0.4])
    parts = decompose_rhs(grid2, x)
    f = normal_form_rhs_arrays(grid2, x)[: grid2.n_modes]
    rates = energy_derivative_arrays(grid2, w, f, 1.5)
    assert rates.shape == (3,)
    for k in range(3):
        one = decompose_rhs(grid2, conjugate_doubled(grid2, w[:, k]))
        assert parts.p_value[k] == pytest.approx(one.p_value, rel=1e-15)
        scale = np.max(np.abs(one.diag_linear))  # the field's scale; the tail is far below it
        for name in ("diag_linear", "diag_tail", "offdiag_cubic", "offdiag_tail"):
            a, b = getattr(parts, name)[:, k], getattr(one, name)
            assert np.max(np.abs(a - b)) <= STACKED_DEFECT_ROUNDING * scale
        rate = energy_derivative_arrays(grid2, w[:, k], f[:, k], 1.5)
        assert rates[k] == pytest.approx(rate, rel=1e-13)


def test_the_ball_check_of_a_stack_names_its_first_column_outside(grid1):
    x, _ = _stack(grid1, [0.1, 0.3, 0.55, 0.6])
    for field in (normal_form_rhs_arrays, normal_form_direct_arrays):
        with pytest.raises(DomainError, match="got 0.5500") as info:
            field(grid1, x)
        assert info.value.column == 2
        field(grid1, x[:, :2])  # the columns inside the ball map

import numpy as np
import pytest

from kirchhoff_spectral import (
    ComplexField,
    ConjugatePair,
    NumericalError,
    ParameterError,
    SpectralGrid,
    random_field,
)
from kirchhoff_spectral import coupling, normal_form
from kirchhoff_spectral.coupling import (
    jac_arrays,
    linearize,
    mix_arrays,
    small_divisor_check,
    solve_jacobian_arrays,
)
from kirchhoff_spectral.fields import halves
from kirchhoff_spectral.grid import stack_tables
from kirchhoff_spectral.suites import IDENTITY_TOL, _families
from oracles import (
    brute_force_coupling,
    brute_force_small_divisor_margin,
    class_blocks,
    coupling_coefficient,
    dense_jacobian_columns,
    dense_jacobian_solve,
    same_bits,
    unit_mode,
)


def test_coefficient_values():
    assert coupling_coefficient("diff", 1, 2) == pytest.approx(-0.125, rel=1e-15)
    assert coupling_coefficient("diff", (3, 4), (5, 0)) == 0.0
    assert coupling_coefficient("sum", 1, 1) == pytest.approx(1.0 / 16.0, rel=1e-15)
    with pytest.raises(ParameterError):
        coupling_coefficient("diff", 0, 1)
    with pytest.raises(ParameterError):
        coupling_coefficient("prod", 1, 1)


def _apply(kind, g, u, v, h):
    """One coupling family of (u, v) applied to h, as the suites take it from the
    coupling kernel: a half of the symbols of [u; 0] and [v; 0], scattered by class."""
    return _families(g, u, v)[("diff", "sum").index(kind)] * h


def test_apply_single_mode(grid1):
    u = unit_mode(grid1, 1).coeffs
    v = unit_mode(grid1, -1).coeffs
    h = unit_mode(grid1, 2).coeffs
    out = _apply("diff", grid1, u, v, h)
    assert out[grid1.slot(2)] == pytest.approx(-0.125, rel=1e-14)
    assert np.count_nonzero(out) == 1


def test_apply_zero_input(grid1):
    z = ComplexField.zero(grid1).coeffs
    h = random_field(grid1, 1, 1.0, 0.0, "free").coeffs
    assert np.all(_apply("diff", grid1, z, h, h) == 0.0)


def test_apply_matches_brute_force(grid1, grid2):
    for g, seed in ((grid1, 2), (grid2, 3)):
        u = random_field(g, seed, 0.8, g.m0, "free").coeffs
        v = random_field(g, seed + 10, 0.8, g.m0, "free").coeffs
        h = random_field(g, seed + 20, 1.0, 0.0, "free").coeffs
        for kind in ("diff", "sum"):
            fast = _apply(kind, g, u, v, h)
            slow = brute_force_coupling(kind, g, u, v, h)
            assert np.max(np.abs(fast - slow)) <= 1e-13


def test_apply_symmetric_in_uv(grid2):
    u = random_field(grid2, 4, 0.8, 1.5, "free").coeffs
    v = random_field(grid2, 5, 0.8, 1.5, "free").coeffs
    h = random_field(grid2, 6, 1.0, 0.0, "free").coeffs
    for kind in ("diff", "sum"):
        a = _apply(kind, grid2, u, v, h)
        b = _apply(kind, grid2, v, u, h)
        assert np.max(np.abs(a - b)) <= 1e-13


def _doubled(*parts):
    """The doubled vector [a; b] of a pair."""
    return np.concatenate(parts)


def _conjugate_state(g, w):
    return _doubled(w, np.conj(w[g.neg_index]))


def test_mix_block_structure(grid1):
    w = random_field(grid1, 7, 0.5, 1.0, "free").coeffs
    alpha = random_field(grid1, 8, 1.0, 0.0, "free").coeffs
    zero = np.zeros(grid1.n_modes, dtype=complex)
    lin = linearize(grid1, _conjugate_state(grid1, w))
    first, second = halves(mix_arrays(lin, _doubled(alpha, zero)))
    assert np.all(first == 0.0)  # upper-left block is empty
    assert np.any(second != 0.0)


def test_mix_zero_state_is_zero_operator(grid1):
    z = np.zeros(2 * grid1.n_modes, dtype=complex)
    alpha = random_field(grid1, 9, 1.0, 0.0, "free").coeffs
    assert np.all(mix_arrays(linearize(grid1, z), _doubled(alpha, alpha)) == 0.0)


def test_mix_commutes_with_multiplier(grid2):
    g = grid2
    w = random_field(g, 10, 0.5, 1.5, "free").coeffs
    x = _doubled(*(random_field(g, seed, 1.0, 0.0, "free").coeffs for seed in (11, 12)))
    lam_s = np.tile(g.absj ** 2.0, 2)  # the multiplier |j|^s with s = 2, on both halves
    lin = linearize(g, _conjugate_state(g, w))
    assert np.max(np.abs(mix_arrays(lin, lam_s * x) - lam_s * mix_arrays(lin, x))) <= 1e-13


def test_jac_matches_finite_difference_of_mix(grid1):
    """jac is the derivative of the cubic correction along the flow: the mix
    term plus d/dt of the state-dependent coefficients. The correction map is
    quadratic in the state, so a central difference is exact up to rounding."""
    g = grid1
    x = _doubled(*(random_field(g, seed, 0.4, 1.0, "free").coeffs for seed in (13, 14)))
    dx = _doubled(*(random_field(g, seed, 0.6, 1.0, "free").coeffs for seed in (15, 16)))
    t = 1e-3
    plus = mix_arrays(linearize(g, x + t * dx), x)
    minus = mix_arrays(linearize(g, x - t * dx), x)
    lin = linearize(g, x)
    fd = mix_arrays(lin, dx) + (plus - minus) / (2 * t)
    assert np.max(np.abs(jac_arrays(lin, dx) - fd)) <= 1e-10


def test_doubled_operators_equal_the_per_half_formulas(layout_grid):
    # the state record, mix and the chain-rule term of jac on the doubled
    # vector are the per-half class sums and symbols, bit for bit
    g = layout_grid
    nc, cls = g.n_classes, g.class_of
    w = random_field(g, 40, 0.3, g.m0, "free").coeffs
    z = np.conj(w[g.neg_index])
    alpha, beta = (random_field(g, seed, 1.0, 0.0, "free").coeffs for seed in (41, 42))
    lin = linearize(g, _doubled(w, z))
    assert same_bits(lin.state_neg, _doubled(w[g.neg_index], z[g.neg_index]))
    assert same_bits(lin.state_swap, _doubled(z, w))
    sums = _doubled(g.class_sums(w * w[g.neg_index]), g.class_sums(z * z[g.neg_index]))
    symbols = sums @ g.class_table
    assert same_bits(lin.sums, sums) and same_bits(lin.symbols, symbols)
    m12, m21 = symbols[:nc][cls], symbols[nc:][cls]
    x = _doubled(alpha, beta)
    assert same_bits(mix_arrays(lin, x), _doubled(m12 * beta, m21 * alpha))
    # mix of the state itself reads the record's swapped copy
    assert same_bits(mix_arrays(lin, lin.state), _doubled(m12 * z, m21 * w))
    chain = _doubled(g.class_sums(w * alpha[g.neg_index]), g.class_sums(z * beta[g.neg_index]))
    chain = chain @ g.class_table
    expected = _doubled(
        m12 * beta + 2.0 * (chain[:nc][cls] * z), m21 * alpha + 2.0 * (chain[nc:][cls] * w)
    )
    assert same_bits(jac_arrays(lin, x), expected)


class TestDenseMatrix:
    @pytest.mark.parametrize("d, n_cutoff", [(1, 8), (2, 4), (3, 3)])
    def test_equals_column_loop(self, d, n_cutoff):
        # the pairwise assembly sums over modes where jac_arrays sums over
        # classes, so the two round apart: measured at most 2.5e-18 on these grids
        g = SpectralGrid(d, n_cutoff)
        w = random_field(g, 30, 0.4, g.m0, "free").coeffs
        z = np.conj(w[g.neg_index])
        dense = coupling.dense_jacobian_matrix(g, w, z)
        assert np.max(np.abs(dense - dense_jacobian_columns(g, w, z))) <= IDENTITY_TOL

    def test_reads_no_class_structure(self, grid2, monkeypatch):
        # the oracle must not share the class reduction it checks: it builds no
        # state record and calls no jac_arrays and no class_sums, and a scaled
        # class table leaves it unchanged
        w = random_field(grid2, 31, 0.4, grid2.m0, "free").coeffs
        z = np.conj(w[grid2.neg_index])
        before = coupling.dense_jacobian_matrix(grid2, w, z)
        calls = []
        monkeypatch.setattr(coupling, "linearize", lambda *args: calls.append("linearize"))
        monkeypatch.setattr(coupling, "jac_arrays", lambda *args: calls.append("jac"))
        monkeypatch.setattr(grid2, "class_sums", lambda *args: calls.append("class_sums"))
        diff, sum_ = class_blocks(grid2)
        scaled = stack_tables(2.0 * diff, 1.001 * sum_)
        monkeypatch.setattr(grid2, "class_table", scaled)
        after = coupling.dense_jacobian_matrix(grid2, w, z)
        assert calls == [] and np.array_equal(after, before)


class TestPairwiseAction:
    @staticmethod
    def _operands(g, seed):
        w = random_field(g, seed, 0.4, g.m0, "free").coeffs
        z = np.conj(w[g.neg_index])
        x = _doubled(*(random_field(g, seed + s, 1.0, 0.0, "free").coeffs for s in (1, 2)))
        return w, z, x

    @pytest.mark.parametrize("d, n_cutoff", [(1, 8), (2, 4), (3, 3)])
    def test_equals_matrix_product(self, d, n_cutoff):
        # the same pairwise sums in another order: measured at most 3.5e-16
        g = SpectralGrid(d, n_cutoff)
        w, z, x = self._operands(g, 32)
        action = coupling.pairwise_jacobian_action(g, w, z, x)
        product = coupling.dense_jacobian_matrix(g, w, z) @ x
        assert np.max(np.abs(action - product)) <= IDENTITY_TOL

    def test_reads_no_class_structure(self, grid2, monkeypatch):
        # like the matrix, the action must not share the class reduction it checks
        g = grid2  # the patches below are undone after the test
        w, z, x = self._operands(g, 35)
        before = coupling.pairwise_jacobian_action(g, w, z, x)
        calls = []
        monkeypatch.setattr(coupling, "linearize", lambda *args: calls.append("linearize"))
        monkeypatch.setattr(coupling, "jac_arrays", lambda *args: calls.append("jac"))
        monkeypatch.setattr(g, "class_sums", lambda *args: calls.append("class_sums"))
        diff, sum_ = class_blocks(g)
        monkeypatch.setattr(g, "class_table", stack_tables(2.0 * diff, 1.001 * sum_))
        after = coupling.pairwise_jacobian_action(g, w, z, x)
        assert calls == []
        assert np.array_equal(after, before)


class TestSolve:
    @staticmethod
    def _rhs(g, *seeds):
        return _doubled(*(random_field(g, seed, 1.0, 0.0, "free").coeffs for seed in seeds))

    def test_zero_state_identity(self, grid1):
        z = np.zeros(2 * grid1.n_modes, dtype=complex)
        rhs = self._rhs(grid1, 17, 18)
        assert np.array_equal(solve_jacobian_arrays(linearize(grid1, z), rhs), rhs)

    def test_residual(self, grid2):
        w = random_field(grid2, 19, 0.3, 1.5, "free").coeffs
        rhs = self._rhs(grid2, 20, 21)
        lin = linearize(grid2, _conjugate_state(grid2, w))
        x = solve_jacobian_arrays(lin, rhs)
        assert np.max(np.abs(x + jac_arrays(lin, x) - rhs)) <= 1e-12

    def test_class_vs_dense(self):
        # d <= 2 against the LAPACK solve; at d=3 N=8 (4,216 unknowns) the
        # matrix alone is 284 MB, so the class solve's residual is taken
        # through the pairwise action instead
        for d in (1, 2, 3):
            g = SpectralGrid(d, 8)
            w = random_field(g, 22, 0.4, g.m0, "free").coeffs
            z = np.conj(w[g.neg_index])
            r = self._rhs(g, 23, 24)
            lin = linearize(g, _doubled(w, z))
            xc = solve_jacobian_arrays(lin, r)
            if d < 3:
                assert np.max(np.abs(xc - dense_jacobian_solve(lin, r))) <= 1e-10
            else:
                residual = coupling.pairwise_jacobian_action(g, w, z, xc) - r
                assert np.max(np.abs(residual)) <= IDENTITY_TOL * max(1.0, np.max(np.abs(r)))

    def test_large_state_matches_dense(self, grid1):
        # a state far outside the normal-form ball: the exact solve still holds
        w = random_field(grid1, 25, 6.0, 1.0, "free").coeffs
        rhs = np.ones(2 * grid1.n_modes, dtype=complex)
        lin = linearize(grid1, _conjugate_state(grid1, w))
        xc = solve_jacobian_arrays(lin, rhs)
        assert np.max(np.abs(xc - dense_jacobian_solve(lin, rhs))) <= 1e-10

    def test_non_finite_residual_is_an_error(self, grid1):
        w = random_field(grid1, 26, 0.05, 1.0, "free").coeffs
        n = grid1.n_modes
        lin = linearize(grid1, _conjugate_state(grid1, w))
        # a NaN in either half of the right-hand side reaches the residual
        for nan_half in (slice(0, n), slice(n, 2 * n)):
            rhs = np.ones(2 * n, dtype=complex)
            rhs[nan_half] = np.nan
            with pytest.raises(NumericalError, match="residual nan"):
                solve_jacobian_arrays(lin, rhs)

    def test_non_finite_state_is_an_error(self, grid1):
        w = random_field(grid1, 27, 0.05, 1.0, "free").coeffs
        w[0] = np.inf
        rhs = np.ones(2 * grid1.n_modes, dtype=complex)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="determinant"):
            solve_jacobian_arrays(linearize(grid1, _conjugate_state(grid1, w)), rhs)

    def test_failed_factorization_is_an_error(self, grid1, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(coupling.np.linalg, "solve", singular)
        w = random_field(grid1, 28, 0.05, 1.0, "free").coeffs
        rhs = np.ones(2 * grid1.n_modes, dtype=complex)
        with pytest.raises(NumericalError, match="Singular matrix"):
            solve_jacobian_arrays(linearize(grid1, _conjugate_state(grid1, w)), rhs)

    @pytest.mark.parametrize("evaluation", ["structured", "direct"])
    def test_normal_form_rhs_makes_one_solve_one_jac(self, grid1, monkeypatch, evaluation):
        counts = {"solve": 0, "jac": 0}
        solve, jac = coupling.solve_jacobian_arrays, coupling.jac_arrays

        def counted_solve(*args, **kwargs):
            counts["solve"] += 1
            return solve(*args, **kwargs)

        def counted_jac(*args, **kwargs):
            counts["jac"] += 1
            return jac(*args, **kwargs)

        monkeypatch.setattr(normal_form, "solve_jacobian_arrays", counted_solve)
        monkeypatch.setattr(coupling, "jac_arrays", counted_jac)
        state = ConjugatePair(random_field(grid1, 5, 0.05, grid1.m0, "free"))
        if evaluation == "structured":
            normal_form.normal_form_rhs(state)
        else:
            normal_form.normal_form_direct_arrays(grid1, state.doubled)
        assert counts == {"solve": 1, "jac": 1}


#: the grids of the stacked solve and action: verify's four default grids and d=3
STACK_GRIDS = ((1, 4), (1, 8), (2, 4), (2, 8), (3, 4))


def _stack(g, columns=10, seed=40):
    """Mode-first stacks of conjugate states and right-hand sides, one sample per column."""
    states = [_conjugate_state(g, random_field(g, seed + k, 0.4, g.m0, "free").coeffs)
              for k in range(columns)]
    rhs = [_doubled(*(random_field(g, seed + 100 + 2 * k + s, 1.0, 0.0, "free").coeffs
                      for s in (0, 1))) for k in range(columns)]
    return np.stack(states, axis=1), np.stack(rhs, axis=1)


#: relative difference of a stacked solve's column from its one-vector solve:
#: the two take their table products and LU solves in different BLAS calls,
#: which round differently; measured at most 1.4e-16 on these grids and on
#: d=3 N=8, over three seeds of ten columns
STACK_ROUNDING = 1e-15


class TestStackedSolve:
    @pytest.mark.parametrize("d, n_cutoff", STACK_GRIDS)
    def test_columns_match_one_vector_solves(self, d, n_cutoff):
        g = SpectralGrid(d, n_cutoff)
        state, rhs = _stack(g)
        x = solve_jacobian_arrays(linearize(g, state), rhs)
        for k in range(rhs.shape[1]):
            one = solve_jacobian_arrays(linearize(g, state[:, k]), rhs[:, k])
            assert np.max(np.abs(x[:, k] - one)) <= STACK_ROUNDING * np.max(np.abs(one))

    @pytest.mark.parametrize("column", [0, 6, 9])
    def test_a_bad_column_is_named(self, grid2, column):
        state, rhs = _stack(grid2)
        rhs[3, column] = np.nan  # its residual alone is NaN
        with pytest.raises(NumericalError, match=f"residual nan .* in column {column}$") as info:
            solve_jacobian_arrays(linearize(grid2, state), rhs)
        assert info.value.column == column

    def test_a_large_residual_is_judged_against_its_own_column(self, grid2, monkeypatch):
        # one column's solution is off by 1e-9 of its scale; the other columns,
        # with right-hand sides 1e6 times larger, would hide it in a shared scale
        state, rhs = _stack(grid2, 4)
        rhs[:, [0, 1, 3]] *= 1e6
        real = coupling._class_solve

        def off(lin, r):
            x = real(lin, r)
            x[:, 2] *= 1 + 1e-9
            return x

        monkeypatch.setattr(coupling, "_class_solve", off)
        with pytest.raises(NumericalError, match="in column 2$") as info:
            solve_jacobian_arrays(linearize(grid2, state), rhs)
        assert info.value.column == 2

    def test_a_singular_block_in_one_column_is_an_error(self, grid2):
        state, rhs = _stack(grid2, 5)
        state[0, 4] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="determinant"):
            solve_jacobian_arrays(linearize(grid2, state), rhs)

    @pytest.mark.parametrize("d, n_cutoff", STACK_GRIDS)
    def test_pairwise_action_columns_are_one_vector_actions(self, d, n_cutoff):
        g = SpectralGrid(d, n_cutoff)
        state, x = _stack(g)
        w, z = halves(state)
        stacked = coupling.pairwise_jacobian_action(g, w, z, x)
        for k in range(x.shape[1]):
            one = coupling.pairwise_jacobian_action(g, w[:, k], z[:, k], x[:, k])
            assert np.array_equal(stacked[:, k], one)


class TestSmallDivisor:
    def test_no_violations(self):
        for d in (2, 3):
            r = small_divisor_check(d, 20)
            assert r["violations"] == 0
            assert r["worst_margin"] >= 1.0

    def test_matches_brute_force(self):
        # class-level reduction equals direct lattice enumeration
        for d, radius in ((2, 6), (3, 4)):
            fast = small_divisor_check(d, radius)["worst_margin"]
            slow = brute_force_small_divisor_margin(d, radius)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_d1_trivial(self):
        r = small_divisor_check(1, 30)
        assert r["violations"] == 0

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
    apply_coupling,
    jac_arrays,
    linearize,
    mix_arrays,
    small_divisor_check,
    solve_jacobian_arrays,
)
from kirchhoff_spectral.grid import stack_tables
from kirchhoff_spectral.suites import IDENTITY_TOL
from oracles import (
    brute_force_coupling,
    brute_force_small_divisor_margin,
    coupling_coefficient,
    dense_jacobian_columns,
    dense_jacobian_solve,
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


def test_apply_single_mode(grid1):
    u = unit_mode(grid1, 1)
    v = unit_mode(grid1, -1)
    h = unit_mode(grid1, 2)
    out = apply_coupling("diff", u, v, h)
    assert out.coeffs[grid1.slot(2)] == pytest.approx(-0.125, rel=1e-14)
    assert np.count_nonzero(out.coeffs) == 1


def test_apply_zero_input(grid1):
    z = ComplexField.zero(grid1)
    h = random_field(grid1, 1, 1.0, 0.0, "free")
    assert np.all(apply_coupling("diff", z, h, h).coeffs == 0.0)


def test_apply_matches_brute_force(grid1, grid2):
    for g, seed in ((grid1, 2), (grid2, 3)):
        u = random_field(g, seed, 0.8, g.m0, "free")
        v = random_field(g, seed + 10, 0.8, g.m0, "free")
        h = random_field(g, seed + 20, 1.0, 0.0, "free")
        for kind in ("diff", "sum"):
            fast = apply_coupling(kind, u, v, h).coeffs
            slow = brute_force_coupling(kind, g, u.coeffs, v.coeffs, h.coeffs)
            assert np.max(np.abs(fast - slow)) <= 1e-13


def test_apply_symmetric_in_uv(grid2):
    u = random_field(grid2, 4, 0.8, 1.5, "free")
    v = random_field(grid2, 5, 0.8, 1.5, "free")
    h = random_field(grid2, 6, 1.0, 0.0, "free")
    for kind in ("diff", "sum"):
        a = apply_coupling(kind, u, v, h).coeffs
        b = apply_coupling(kind, v, u, h).coeffs
        assert np.max(np.abs(a - b)) <= 1e-13


def test_mix_block_structure(grid1):
    w = random_field(grid1, 7, 0.5, 1.0, "free").coeffs
    z = np.conj(w[grid1.neg_index])
    alpha = random_field(grid1, 8, 1.0, 0.0, "free").coeffs
    zero = np.zeros(grid1.n_modes, dtype=complex)
    first, second = mix_arrays(linearize(grid1, w, z), alpha, zero)
    assert np.all(first == 0.0)  # upper-left block is empty
    assert np.any(second != 0.0)


def test_mix_zero_state_is_zero_operator(grid1):
    z = np.zeros(grid1.n_modes, dtype=complex)
    alpha = random_field(grid1, 9, 1.0, 0.0, "free").coeffs
    first, second = mix_arrays(linearize(grid1, z, z), alpha, alpha)
    assert np.all(first == 0.0) and np.all(second == 0.0)


def test_mix_commutes_with_multiplier(grid2):
    g = grid2
    w = random_field(g, 10, 0.5, 1.5, "free").coeffs
    z = np.conj(w[g.neg_index])
    alpha = random_field(g, 11, 1.0, 0.0, "free").coeffs
    beta = random_field(g, 12, 1.0, 0.0, "free").coeffs
    lam_s = g.absj ** 2.0  # the multiplier |j|^s with s = 2
    lin = linearize(g, w, z)
    a1, b1 = mix_arrays(lin, lam_s * alpha, lam_s * beta)
    a2, b2 = mix_arrays(lin, alpha, beta)
    assert np.max(np.abs(a1 - lam_s * a2)) <= 1e-13
    assert np.max(np.abs(b1 - lam_s * b2)) <= 1e-13


def test_jac_matches_finite_difference_of_mix(grid1):
    """jac is the derivative of the cubic correction along the flow: the mix
    term plus d/dt of the state-dependent coefficients. The correction map is
    quadratic in the state, so a central difference is exact up to rounding."""
    g = grid1
    w = random_field(g, 13, 0.4, 1.0, "free").coeffs
    z = random_field(g, 14, 0.4, 1.0, "free").coeffs
    al = random_field(g, 15, 0.6, 1.0, "free").coeffs
    be = random_field(g, 16, 0.6, 1.0, "free").coeffs
    t = 1e-3
    plus = mix_arrays(linearize(g, w + t * al, z + t * be), w, z)
    minus = mix_arrays(linearize(g, w - t * al, z - t * be), w, z)
    lin = linearize(g, w, z)
    base = mix_arrays(lin, al, be)
    fd = (
        base[0] + (plus[0] - minus[0]) / (2 * t),
        base[1] + (plus[1] - minus[1]) / (2 * t),
    )
    ka, kb = jac_arrays(lin, al, be)
    assert np.max(np.abs(ka - fd[0])) <= 1e-10
    assert np.max(np.abs(kb - fd[1])) <= 1e-10


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
        scaled = stack_tables(2.0 * grid2.diff_table, 1.001 * grid2.sum_table)
        monkeypatch.setattr(grid2, "class_table", scaled)
        after = coupling.dense_jacobian_matrix(grid2, w, z)
        assert calls == [] and np.array_equal(after, before)


class TestSolve:
    def test_zero_state_identity(self, grid1):
        z = np.zeros(grid1.n_modes, dtype=complex)
        rhs = (
            random_field(grid1, 17, 1.0, 0.0, "free").coeffs,
            random_field(grid1, 18, 1.0, 0.0, "free").coeffs,
        )
        x = solve_jacobian_arrays(linearize(grid1, z, z), rhs)
        assert np.array_equal(x[0], rhs[0])
        assert np.array_equal(x[1], rhs[1])

    def test_residual(self, grid2):
        w = random_field(grid2, 19, 0.3, 1.5, "free").coeffs
        z = np.conj(w[grid2.neg_index])
        rhs = (
            random_field(grid2, 20, 1.0, 0.0, "free").coeffs,
            random_field(grid2, 21, 1.0, 0.0, "free").coeffs,
        )
        lin = linearize(grid2, w, z)
        x = solve_jacobian_arrays(lin, rhs)
        ka, kb = jac_arrays(lin, *x)
        res = max(
            np.max(np.abs(x[0] + ka - rhs[0])),
            np.max(np.abs(x[1] + kb - rhs[1])),
        )
        assert res <= 1e-12

    def test_class_vs_dense(self):
        # d <= 2 against the LAPACK solve; at d=3 N=8 (4,216 unknowns) that
        # solve costs seconds and hundreds of MB, so the class solve's
        # residual through the pairwise matrix is checked instead
        for d in (1, 2, 3):
            g = SpectralGrid(d, 8)
            w = random_field(g, 22, 0.4, g.m0, "free").coeffs
            z = np.conj(w[g.neg_index])
            rhs = (
                random_field(g, 23, 1.0, 0.0, "free").coeffs,
                random_field(g, 24, 1.0, 0.0, "free").coeffs,
            )
            lin = linearize(g, w, z)
            xc = solve_jacobian_arrays(lin, rhs)
            if d < 3:
                for a, b in zip(xc, dense_jacobian_solve(lin, rhs)):
                    assert np.max(np.abs(a - b)) <= 1e-10
            else:
                r = np.concatenate(rhs)
                residual = coupling.dense_jacobian_matrix(g, w, z) @ np.concatenate(xc) - r
                assert np.max(np.abs(residual)) <= IDENTITY_TOL * max(1.0, np.max(np.abs(r)))

    def test_large_state_matches_dense(self, grid1):
        # a state far outside the normal-form ball: the exact solve still holds
        w = random_field(grid1, 25, 6.0, 1.0, "free").coeffs
        z = np.conj(w[grid1.neg_index])
        rhs = (np.ones(grid1.n_modes, dtype=complex), np.ones(grid1.n_modes, dtype=complex))
        lin = linearize(grid1, w, z)
        xc = solve_jacobian_arrays(lin, rhs)
        for a, b in zip(xc, dense_jacobian_solve(lin, rhs)):
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_non_finite_residual_is_an_error(self, grid1):
        w = random_field(grid1, 26, 0.05, 1.0, "free").coeffs
        z = np.conj(w[grid1.neg_index])
        rhs = (np.full(grid1.n_modes, np.nan, dtype=complex), np.ones(grid1.n_modes, dtype=complex))
        with pytest.raises(NumericalError, match="residual nan"):
            solve_jacobian_arrays(linearize(grid1, w, z), rhs)

    def test_non_finite_state_is_an_error(self, grid1):
        w = random_field(grid1, 27, 0.05, 1.0, "free").coeffs
        w[0] = np.inf
        z = np.conj(w[grid1.neg_index])
        rhs = (np.ones(grid1.n_modes, dtype=complex), np.ones(grid1.n_modes, dtype=complex))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="determinant"):
            solve_jacobian_arrays(linearize(grid1, w, z), rhs)

    def test_failed_factorization_is_an_error(self, grid1, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(coupling.np.linalg, "solve", singular)
        w = random_field(grid1, 28, 0.05, 1.0, "free").coeffs
        z = np.conj(w[grid1.neg_index])
        rhs = (np.ones(grid1.n_modes, dtype=complex), np.ones(grid1.n_modes, dtype=complex))
        with pytest.raises(NumericalError, match="Singular matrix"):
            solve_jacobian_arrays(linearize(grid1, w, z), rhs)

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
            normal_form.normal_form_direct_arrays(grid1, state.w.coeffs, state.z.coeffs)
        assert counts == {"solve": 1, "jac": 1}


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

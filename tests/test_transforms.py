import math

import numpy as np
import pytest

from kirchhoff_spectral import (
    ComplexField,
    ConjugatePair,
    DomainError,
    ParameterError,
    random_field,
)
from kirchhoff_spectral.fields import conj_function, conjugate_defect, hermitian_defect
from kirchhoff_spectral.kirchhoff import random_state
from kirchhoff_spectral.transforms import (
    change_of_variables,
    complex_stage,
    cubic_stage,
    diag_stage,
    equivalence_ratios,
    q_value,
    rank_one_apply,
    rank_one_solve_closed,
    rank_one_solve_dense,
    scale_stage,
)


def _rand_pair(grid, seed, norm, s=1.0):
    return (
        random_field(grid, seed, norm, s, "free"),
        random_field(grid, seed + 1000, norm, s, "free"),
    )


def test_scale_stage_example(grid1):
    q = ComplexField.unit_mode(grid1, 4)
    p = ComplexField.zero(grid1)
    u, v = scale_stage("fwd", (q, p))
    assert u.coeffs[grid1.slot(4)] == pytest.approx(0.5, rel=1e-15)
    assert np.all(v.coeffs == 0.0)


def test_scale_stage_round_trip(grid1):
    pair = _rand_pair(grid1, 1, 1.0)
    back = scale_stage("inv", scale_stage("fwd", pair))
    for a, b in zip(back, pair):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-15


def test_complex_stage(grid1):
    q = random_field(grid1, 2, 1.0, 1.0, "hermitian")
    p = ComplexField.zero(grid1)
    f, g = complex_stage("inv", (q, p))
    assert np.max(np.abs(f.coeffs - q.coeffs / math.sqrt(2))) <= 1e-16
    assert np.max(np.abs(g.coeffs - q.coeffs / math.sqrt(2))) <= 1e-16
    # real (q, p) correspond to conjugate (f, g)
    p = random_field(grid1, 3, 1.0, 0.5, "hermitian")
    f, g = complex_stage("inv", (q, p))
    assert conjugate_defect(f, g) <= 1e-15
    # and back
    q2, p2 = complex_stage("fwd", (f, g))
    assert np.max(np.abs(q2.coeffs - q.coeffs)) <= 1e-15
    assert np.max(np.abs(p2.coeffs - p.coeffs)) <= 1e-15
    assert hermitian_defect(q2) <= 1e-15


def test_direction_validation(grid1):
    pair = _rand_pair(grid1, 4, 0.5)
    with pytest.raises(ParameterError):
        scale_stage("forward", pair)


class TestDiagStage:
    def test_zero(self, grid1):
        z = ComplexField.zero(grid1)
        out = diag_stage("fwd", (z, z))
        assert np.all(out[0].coeffs == 0.0)

    def test_round_trip(self, grid1, grid2):
        for g, seed in ((grid1, 5), (grid2, 6)):
            eta = random_field(g, seed, 0.9, 1.0, "free")
            pair = (eta, conj_function(eta))
            back = diag_stage("inv", diag_stage("fwd", pair))
            scale = np.max(np.abs(eta.coeffs))
            assert np.max(np.abs(back[0].coeffs - pair[0].coeffs)) <= 1e-12 * max(1, scale)

    def test_preserves_conjugate_structure(self, grid1):
        eta = random_field(grid1, 7, 0.8, 1.0, "free")
        f, g = diag_stage("fwd", (eta, conj_function(eta)))
        assert conjugate_defect(f, g) <= 1e-14

    def test_radical_identity(self, grid1):
        # the quadratic functional before and after satisfy Q_after sqrt(1+2 Q_after) = Q_before
        eta = random_field(grid1, 8, 0.7, 1.0, "free")
        pair = (eta, conj_function(eta))
        f, g = diag_stage("fwd", pair)
        qf = q_value(f, g)
        assert qf * math.sqrt(1 + 2 * qf) == pytest.approx(q_value(*pair), rel=1e-12)


class TestCubicStage:
    def test_zero(self, grid1):
        z = ComplexField.zero(grid1)
        out = cubic_stage("fwd", (z, z))
        assert np.all(out[0].coeffs == 0.0)
        back = cubic_stage("inv", (z, z))
        assert np.all(back[0].coeffs == 0.0)

    def test_round_trip(self, grid1, grid2):
        for g, seed in ((grid1, 9), (grid2, 10)):
            w = random_field(g, seed, 0.2, g.m0, "free")
            pair = (w, conj_function(w))
            back = cubic_stage("inv", cubic_stage("fwd", pair))
            assert np.max(np.abs(back[0].coeffs - w.coeffs)) <= 1e-12

    def test_inverse_norm_bounds(self, grid1):
        m0 = grid1.m0
        for seed in range(20):
            eta = random_field(grid1, seed, 0.24, m0, "free")
            w = cubic_stage("inv", (eta, conj_function(eta)))[0]
            for s in (m0, m0 + 1.0, m0 + 2.0):
                assert w.norm(s) <= 2.0 * eta.norm(s) * (1 + 1e-12)

    def test_inverse_ball_check(self, grid1):
        eta = random_field(grid1, 11, 0.3, grid1.m0, "free")
        with pytest.raises(DomainError):
            cubic_stage("inv", (eta, conj_function(eta)))

    def test_preserves_conjugate_structure(self, grid1):
        w = random_field(grid1, 12, 0.2, grid1.m0, "free")
        eta, psi = cubic_stage("fwd", (w, conj_function(w)))
        assert conjugate_defect(eta, psi) <= 1e-15


class TestRankOne:
    def test_closed_form_inverts(self, grid1):
        eta = random_field(grid1, 13, 0.5, 1.0, "free")
        psi = conj_function(eta)
        rhs = _rand_pair(grid1, 14, 1.0, 0.0)
        x = rank_one_solve_closed(eta, psi, rhs)
        ka, kb = rank_one_apply(eta, psi, x)
        assert np.max(np.abs(x[0].coeffs + ka.coeffs - rhs[0].coeffs)) <= 1e-13
        assert np.max(np.abs(x[1].coeffs + kb.coeffs - rhs[1].coeffs)) <= 1e-13

    def test_closed_vs_dense(self, grid2):
        eta = random_field(grid2, 15, 0.5, 1.5, "free")
        psi = conj_function(eta)
        rhs = _rand_pair(grid2, 16, 1.0, 0.0)
        xc = rank_one_solve_closed(eta, psi, rhs)
        xd = rank_one_solve_dense(eta, psi, rhs)
        for a, b in zip(xc, xd):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-11


class TestFullComposition:
    def test_zero_state(self, grid1):
        z = ConjugatePair(ComplexField.zero(grid1))
        uv = change_of_variables("fwd", z)
        assert np.all(uv.u.coeffs == 0.0) and np.all(uv.v.coeffs == 0.0)

    def test_round_trip_from_w(self, grid1, grid2):
        for g, seed in ((grid1, 17), (grid2, 18)):
            w = ConjugatePair(random_field(g, seed, 0.045, g.m0, "free"))
            uv = change_of_variables("fwd", w)
            back = change_of_variables("inv", uv)
            assert np.max(np.abs(back.w.coeffs - w.w.coeffs)) <= 1e-13

    def test_round_trip_from_uv(self, grid1):
        state = random_state(grid1, 19, 0.09)
        w = change_of_variables("inv", state)
        uv = change_of_variables("fwd", w)
        scale = max(np.max(np.abs(state.u.coeffs)), np.max(np.abs(state.v.coeffs)))
        assert np.max(np.abs(uv.u.coeffs - state.u.coeffs)) <= 1e-13 * max(1, scale)
        assert np.max(np.abs(uv.v.coeffs - state.v.coeffs)) <= 1e-13 * max(1, scale)

    def test_output_is_real_pair(self, grid1):
        w = ConjugatePair(random_field(grid1, 20, 0.08, grid1.m0, "free"))
        uv = change_of_variables("fwd", w)
        assert hermitian_defect(uv.u) <= 1e-15
        assert hermitian_defect(uv.v) <= 1e-15

    def test_ball_violations(self, grid1):
        big = ConjugatePair(random_field(grid1, 21, 0.5, grid1.m0, "free"))
        with pytest.raises(DomainError):
            change_of_variables("fwd", big)
        state = random_state(grid1, 22, 0.5)
        with pytest.raises(DomainError):
            change_of_variables("inv", state)
        # disabling the ball check lets diagnostics through
        change_of_variables("fwd", big, ball_radius=None)

    def test_type_checks(self, grid1):
        state = random_state(grid1, 23, 0.05)
        with pytest.raises(ParameterError):
            change_of_variables("fwd", state)

    def test_equivalence_ratios_near_two(self, grid1):
        w = ConjugatePair(random_field(grid1, 25, 0.05, grid1.m0, "free"))
        r = equivalence_ratios(w, grid1.m0)
        assert 1.0 <= r["uv_over_w"] <= 3.0
        assert r["w_over_uv"] == pytest.approx(1.0 / r["uv_over_w"], rel=1e-12)

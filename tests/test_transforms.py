import math

import numpy as np
import pytest

from kirchhoff_spectral import (
    ComplexField,
    ConjugatePair,
    ConvergenceError,
    DomainError,
    PairStack,
    ParameterError,
    RealPair,
    random_field,
    transforms,
)
from kirchhoff_spectral.coupling import linearize
from kirchhoff_spectral.fields import conjugate_defect, halves, hermitian_defect, pair_norm
from kirchhoff_spectral.kirchhoff import hamiltonian, random_state
from kirchhoff_spectral.transforms import (
    change_of_variables,
    complex_stage,
    cubic_stage,
    diag_stage,
    equivalence_ratios,
    q_value,
    rank_one_apply,
    rank_one_solve_closed,
    scale_stage,
)
from oracles import rank_one_solve_dense, same_bits, unit_mode


def _rand_pair(grid, seed, norm, s=1.0):
    """A doubled vector [a; b] of two independent random fields."""
    return np.concatenate(
        [random_field(grid, k, norm, s, "free").coeffs for k in (seed, seed + 1000)]
    )


def _conjugate(grid, seed, norm, s):
    """The doubled vector [w; conj w] of a random conjugate pair."""
    return ConjugatePair(random_field(grid, seed, norm, s, "free")).doubled


def _doubled(first: ComplexField, second: ComplexField):
    return np.concatenate((first.coeffs, second.coeffs))


def test_scale_stage_example(grid1):
    q = unit_mode(grid1, 4)
    p = ComplexField.zero(grid1)
    u, v = halves(scale_stage("fwd", grid1, _doubled(q, p)))
    assert u[grid1.slot(4)] == pytest.approx(0.5, rel=1e-15)
    assert np.all(v == 0.0)


def test_scale_stage_round_trip(grid1):
    x = _rand_pair(grid1, 1, 1.0)
    back = scale_stage("inv", grid1, scale_stage("fwd", grid1, x))
    assert np.max(np.abs(back - x)) <= 1e-15


def test_complex_stage(grid1):
    q = random_field(grid1, 2, 1.0, 1.0, "hermitian")
    p = ComplexField.zero(grid1)
    f, g = halves(complex_stage("inv", grid1, _doubled(q, p)))
    assert np.max(np.abs(f - q.coeffs / math.sqrt(2))) <= 1e-16
    assert np.max(np.abs(g - q.coeffs / math.sqrt(2))) <= 1e-16
    # real (q, p) correspond to conjugate (f, g)
    p = random_field(grid1, 3, 1.0, 0.5, "hermitian")
    fg = complex_stage("inv", grid1, _doubled(q, p))
    assert conjugate_defect(grid1, fg) <= 1e-15
    # and back
    q2, p2 = halves(complex_stage("fwd", grid1, fg))
    assert np.max(np.abs(q2 - q.coeffs)) <= 1e-15
    assert np.max(np.abs(p2 - p.coeffs)) <= 1e-15
    assert hermitian_defect(ComplexField(grid1, q2)) <= 1e-15


def test_direction_validation(grid1):
    x = _rand_pair(grid1, 4, 0.5)
    with pytest.raises(ParameterError):
        scale_stage("forward", grid1, x)


class TestDiagStage:
    def test_zero(self, grid1):
        out = diag_stage("fwd", grid1, np.zeros(2 * grid1.n_modes, dtype=np.complex128))
        assert np.all(out == 0.0)

    def test_round_trip(self, grid1, grid2):
        for g, seed in ((grid1, 5), (grid2, 6)):
            x = _conjugate(g, seed, 0.9, 1.0)
            back = diag_stage("inv", g, diag_stage("fwd", g, x))
            scale = np.max(np.abs(x[: g.n_modes]))
            assert np.max(np.abs(back - x)[: g.n_modes]) <= 1e-12 * max(1, scale)

    def test_preserves_conjugate_structure(self, grid1):
        fg = diag_stage("fwd", grid1, _conjugate(grid1, 7, 0.8, 1.0))
        assert conjugate_defect(grid1, fg) <= 1e-14

    def test_radical_identity(self, grid1):
        # the quadratic functional before and after satisfy Q_after sqrt(1+2 Q_after) = Q_before
        x = _conjugate(grid1, 8, 0.7, 1.0)
        qf = q_value(grid1, diag_stage("fwd", grid1, x))
        assert qf * math.sqrt(1 + 2 * qf) == pytest.approx(q_value(grid1, x), rel=1e-12)


class TestCubicStage:
    def test_zero(self, grid1):
        z = np.zeros(2 * grid1.n_modes, dtype=np.complex128)
        assert np.all(cubic_stage("fwd", grid1, z) == 0.0)
        assert np.all(cubic_stage("inv", grid1, z) == 0.0)

    def test_round_trip(self, grid1, grid2):
        for g, seed in ((grid1, 9), (grid2, 10)):
            x = _conjugate(g, seed, 0.2, g.m0)
            back = cubic_stage("inv", g, cubic_stage("fwd", g, x))
            assert np.max(np.abs(back - x)[: g.n_modes]) <= 1e-12

    def test_inverse_norm_bounds(self, grid1):
        m0, n = grid1.m0, grid1.n_modes
        for seed in range(20):
            eta = _conjugate(grid1, seed, 0.24, m0)
            w = cubic_stage("inv", grid1, eta)[:n]
            for s in (m0, m0 + 1.0, m0 + 2.0):
                assert grid1.coeff_norm(w, s) <= 2.0 * grid1.coeff_norm(eta[:n], s) * (1 + 1e-12)

    def test_inverse_ball_check(self, grid1):
        with pytest.raises(DomainError):
            cubic_stage("inv", grid1, _conjugate(grid1, 11, 0.3, grid1.m0))

    def test_diverging_inverse_is_a_convergence_error(self, grid1, monkeypatch):
        # outside the ball, with eta_{-1} = i eta_1, the fixed-point iterates
        # overflow to inf and then nan; the iteration cap must end the run
        # with an error instead of handing those values back
        monkeypatch.setattr(transforms, "CUBIC_INV_BALL", math.inf)
        c = np.zeros(grid1.n_modes, dtype=np.complex128)
        c[grid1.slot(1)], c[grid1.slot(-1)] = math.sqrt(2.0), 1j * math.sqrt(2.0)
        eta = ConjugatePair(ComplexField(grid1, c))
        assert eta.w.norm(grid1.m0) == pytest.approx(2.0, rel=1e-15)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError):
            cubic_stage("inv", grid1, eta.doubled)

    def test_preserves_conjugate_structure(self, grid1):
        image = cubic_stage("fwd", grid1, _conjugate(grid1, 12, 0.2, grid1.m0))
        assert conjugate_defect(grid1, image) <= 1e-15


class TestRankOne:
    def test_closed_form_inverts(self, grid1):
        x = _conjugate(grid1, 13, 0.5, 1.0)
        rhs = _rand_pair(grid1, 14, 1.0, 0.0)
        sol = rank_one_solve_closed(grid1, x, rhs)
        assert np.max(np.abs(sol + rank_one_apply(grid1, x, sol) - rhs)) <= 1e-13

    def test_closed_vs_dense(self, grid2):
        x = _conjugate(grid2, 15, 0.5, 1.5)
        rhs = _rand_pair(grid2, 16, 1.0, 0.0)
        xc = rank_one_solve_closed(grid2, x, rhs)
        xd = rank_one_solve_dense(grid2, x, rhs)
        assert np.max(np.abs(xc - xd)) <= 1e-11


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


# -- mode-first stacks ------------------------------------------------------------


def _rel(stacked, single) -> float:
    return float(np.max(np.abs(stacked - single)) / np.max(np.abs(single)))


def _physical_stack(grid, eps_list, seed=40):
    states = [random_state(grid, seed + k, eps) for k, eps in enumerate(eps_list)]
    return states, PairStack(grid, np.stack([st.doubled for st in states], axis=1))


class TestStacks:
    def test_each_column_maps_as_one_state(self, grid1, grid2):
        for g in (grid1, grid2):
            states, stack = _physical_stack(g, [0.02, 0.05, 0.07, 0.09])
            mapped, failure = change_of_variables("inv", stack)
            assert failure is None and mapped.doubled.shape == stack.doubled.shape
            pairs = [change_of_variables("inv", st) for st in states]
            for k, pair in enumerate(pairs):
                assert _rel(mapped.doubled[:, k], pair.doubled) <= 1e-15
            back, failure = change_of_variables("fwd", mapped)
            assert failure is None
            for k, pair in enumerate(pairs):
                assert _rel(back.doubled[:, k], change_of_variables("fwd", pair).doubled) <= 1e-15

    def test_a_square_stack_is_mapped_column_by_column(self, grid1):
        # 2n columns: a matrix product standing in for a per-column pairing or
        # norm would have the shape of the right answer
        n = grid1.n_modes
        states, stack = _physical_stack(grid1, np.linspace(0.01, 0.09, 2 * n), seed=70)
        x = stack.doubled
        assert x.shape == (2 * n, 2 * n)
        mapped, failure = change_of_variables("inv", stack)
        assert failure is None
        singles = [change_of_variables("inv", st) for st in states]
        assert max(_rel(mapped.doubled[:, k], p.doubled) for k, p in enumerate(singles)) <= 1e-15
        for k, st in enumerate(states):
            y = st.doubled
            assert hamiltonian(grid1, x)[k] == pytest.approx(hamiltonian(grid1, y), rel=1e-15)
            assert pair_norm(grid1, x, 1.5)[k] == pytest.approx(st.norm(1.5), rel=1e-15)
            assert grid1.doubled_norm(x, 1.0)[k] == pytest.approx(grid1.doubled_norm(y, 1.0), rel=1e-15)
            assert grid1.pairing(x[:n], x[n:], 0.5)[k] == pytest.approx(
                grid1.pairing(y[:n], y[n:], 0.5), rel=1e-15
            )
            assert _rel(grid1.class_sums(x)[:, k], grid1.class_sums(y)) <= 1e-15
            for stage in (scale_stage, complex_stage):
                assert _rel(stage("inv", grid1, x)[:, k], stage("inv", grid1, y)) <= 1e-15
        fg = complex_stage("inv", grid1, scale_stage("inv", grid1, x))
        for k in range(2 * n):
            assert q_value(grid1, fg)[k] == pytest.approx(q_value(grid1, fg[:, k]), rel=1e-15)
            assert _rel(diag_stage("inv", grid1, fg)[:, k], diag_stage("inv", grid1, fg[:, k])) <= 1e-15

    def test_a_column_outside_the_ball_ends_the_mapped_columns(self, grid1):
        states, stack = _physical_stack(grid1, [0.05, 0.06, 0.5, 0.07, 0.08])
        with pytest.raises(DomainError) as single:
            change_of_variables("inv", states[2])
        mapped, failure = change_of_variables("inv", stack)
        assert isinstance(failure, DomainError) and failure.column == 2
        assert str(failure) == str(single.value)
        assert mapped.doubled.shape == (2 * grid1.n_modes, 2)
        for k in range(2):
            assert _rel(mapped.doubled[:, k], change_of_variables("inv", states[k]).doubled) <= 1e-15

    def test_a_later_check_of_an_earlier_column_wins(self, grid1, monkeypatch):
        # column 3 leaves the ball of the precondition; column 1 fails only the
        # cubic-stage inverse's ball, three stages later: column 1 is the first failure
        monkeypatch.setattr(transforms, "CUBIC_INV_BALL", 0.03)
        states, stack = _physical_stack(grid1, [0.01, 0.09, 0.02, 0.5])
        with pytest.raises(DomainError) as single:
            change_of_variables("inv", states[1])
        mapped, failure = change_of_variables("inv", stack)
        assert failure.column == 1 and str(failure) == str(single.value)
        assert "cubic stage inverse" in str(failure)
        assert mapped.doubled.shape[1] == 1

    def test_a_nan_column(self, grid1):
        states, stack = _physical_stack(grid1, [0.05, 0.06, 0.07])
        x = stack.doubled.copy()
        x[:, 1] = np.nan
        nan_state = RealPair(
            ComplexField(grid1, x[: grid1.n_modes, 1]), ComplexField(grid1, x[grid1.n_modes:, 1])
        )  # a NaN defect passes the symmetry check
        # a NaN sample passes every domain check and never converges
        with pytest.raises(ConvergenceError):
            change_of_variables("inv", nan_state)
        with pytest.raises(ConvergenceError) as stacked:
            change_of_variables("inv", PairStack(grid1, x))
        assert stacked.value.column == 1
        assert np.isnan(hamiltonian(grid1, x)).tolist() == [False, True, False]
        assert np.isnan(pair_norm(grid1, x, grid1.m0)).tolist() == [False, True, False]

    def test_a_one_state_call_raises_and_an_empty_stack_maps(self, grid1):
        with pytest.raises(DomainError):
            change_of_variables("inv", random_state(grid1, 22, 0.5))
        empty = PairStack(grid1, np.zeros((2 * grid1.n_modes, 0), dtype=np.complex128))
        mapped, failure = change_of_variables("inv", empty)
        assert failure is None and mapped.doubled.shape == empty.doubled.shape


def _zero_start_inverse(grid, image):
    """The cubic-stage inverse iterated from x = 0, as a reference."""
    x = np.zeros_like(image)
    for _ in range(transforms.CUBIC_INV_MAX_ITER):
        x_new = image - transforms.mix_arrays(linearize(grid, x), x)
        delta = grid.doubled_norm(x_new - x, grid.m0)
        x = x_new
        if delta <= transforms.CUBIC_INV_TOL:
            return x
    raise AssertionError("the reference did not converge")


def test_cubic_inverse_starts_from_the_image(grid1, grid2, monkeypatch):
    calls = []
    real = transforms.mix_arrays

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(transforms, "mix_arrays", counted)
    for g in (grid1, grid2):
        for seed, norm in ((30, 0.2), (31, 0.05), (32, 1e-3)):
            image = _conjugate(g, seed, norm, g.m0)
            calls.clear()
            expected = _zero_start_inverse(g, image)
            reference_calls = len(calls)
            calls.clear()
            out = cubic_stage("inv", g, image)
            assert np.array_equal(out, expected)
            assert len(calls) == reference_calls - 1
        zero = np.zeros(2 * g.n_modes, dtype=np.complex128)
        assert np.array_equal(cubic_stage("inv", g, zero), _zero_start_inverse(g, zero))


def test_cubic_inverse_freezes_each_column_at_its_own_step(grid1, grid2, monkeypatch):
    # amplitudes from 1e-4 to 0.2 at m0 need different iteration counts; a
    # column that has finished keeps its value while the others go on
    calls = []
    real = transforms.mix_arrays

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(transforms, "mix_arrays", counted)
    for g in (grid1, grid2):
        amplitudes = np.geomspace(1e-4, 0.2, 12)
        image = np.stack([_conjugate(g, 300 + k, a, g.m0) for k, a in enumerate(amplitudes)], axis=1)
        calls.clear()
        out = cubic_stage("inv", g, image)
        # the reference iterates every column on the whole stack and takes each
        # at its first step within the tolerance
        x, finished, steps = image, {}, {}
        for step in range(1, transforms.CUBIC_INV_MAX_ITER):
            x_new = image - real(linearize(g, x), x)
            delta = g.doubled_norm(x_new - x, g.m0)
            x = x_new
            for k in np.flatnonzero(delta <= transforms.CUBIC_INV_TOL):
                if k not in finished:
                    finished[k], steps[k] = x[:, k].copy(), step
            if len(finished) == len(amplitudes):
                break
        assert len(set(steps.values())) > 1
        assert len(calls) == max(steps.values())  # the stack stops with its last column
        for k in range(len(amplitudes)):
            assert same_bits(out[:, k], finished[k])
            # a stack's matrix products round otherwise than one vector's
            assert _rel(out[:, k], cubic_stage("inv", g, image[:, k])) <= 1e-15

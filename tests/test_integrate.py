import math
import os

import numpy as np
import pytest

from kirchhoff_spectral import (
    ComplexField,
    ConjugatePair,
    ConvergenceError,
    ParameterError,
    random_field,
)
from kirchhoff_spectral.dynamics import (
    KirchhoffDynamics,
    LinearDiagonalDynamics,
    NormalFormDynamics,
)
from kirchhoff_spectral.integrate import SCHEMES, IntegratorConfig, integrate
from kirchhoff_spectral.kirchhoff import random_state


class _ScalarDynamics:
    """Minimal synthetic evaluator over a single complex value."""

    def __init__(self, fn):
        self.fn = fn

    def pack(self, state):
        return np.array([state], dtype=np.complex128)

    def unpack(self, y):
        return complex(y[0])

    def rhs(self, t, y):
        return self.fn(t, y)

    def project(self, y):
        return y, 0.0

    def ball_value(self, y):
        return None


def test_config_validation():
    with pytest.raises(ParameterError):
        IntegratorConfig(scheme="euler").validate()
    with pytest.raises(ParameterError):
        IntegratorConfig(dt=0.0).validate()
    with pytest.raises(ParameterError):
        IntegratorConfig(rel_tol=0.0).validate()
    with pytest.raises(ParameterError):
        IntegratorConfig(monitor_stride=0).validate()


def test_t_end_zero_single_snapshot(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 1, 0.5, 1.0, "free"))
    rec = integrate(dyn, w0, IntegratorConfig(t_end=0.0))
    assert rec.exit_reason == "completed"
    assert len(rec.times) == 1 and rec.times[0] == 0.0
    assert np.array_equal(rec.states[0].w.coeffs, w0.w.coeffs)


def test_zero_state_stays_zero(grid1):
    dyn = KirchhoffDynamics(grid1)
    from kirchhoff_spectral import RealPair

    z = RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1))
    rec = integrate(dyn, z, IntegratorConfig(t_end=1.0, monitor_stride=5))
    assert np.all(rec.states[-1].u.coeffs == 0.0)
    assert np.all(rec.states[-1].v.coeffs == 0.0)


def test_linear_field_exact_flow(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = random_field(grid1, 2, 0.5, 1.0, "free")
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=10.0, monitor_stride=10**6)
    rec = integrate(dyn, ConjugatePair(w0), cfg)
    assert rec.exit_reason == "completed"
    assert rec.notes == {}  # notes are written only when a run stops early
    exact = dyn.exact(w0.coeffs, rec.times[-1])
    assert np.max(np.abs(rec.states[-1].w.coeffs - exact)) <= 1e-11


def test_single_rk4_step_order(grid1):
    # local error of one RK4 step is O(dt^5): halving dt divides it by ~32
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ComplexField.unit_mode(grid1, 4, 0.7)
    state = ConjugatePair(w0)

    def local_err(dt):
        out = integrate(dyn, state, IntegratorConfig(scheme="rk4", dt=dt, t_end=dt)).states[-1]
        return np.max(np.abs(out.w.coeffs - dyn.exact(w0.coeffs, dt)))

    e1, e2 = local_err(0.1), local_err(0.05)
    assert 24.0 < e1 / e2 < 40.0


def test_global_rk4_order_on_kirchhoff(grid1):
    # Richardson self-convergence: global error ratio ~ 16 at fixed horizon
    dyn = KirchhoffDynamics(grid1)
    state0 = random_state(grid1, 3, 0.3)

    def final_state(dt):
        cfg = IntegratorConfig(scheme="rk4", dt=dt, t_end=2.0, monitor_stride=10**6)
        rec = integrate(dyn, state0, cfg)
        return np.concatenate([rec.states[-1].u.coeffs, rec.states[-1].v.coeffs])

    ref = final_state(0.0025)  # fine reference
    e1 = np.max(np.abs(final_state(0.02) - ref))
    e2 = np.max(np.abs(final_state(0.01) - ref))
    assert 11.0 < e1 / e2 < 22.0


def test_adaptive_rejects_oversized_initial_step(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 4, 0.5, 1.0, "free"))
    cfg = IntegratorConfig(dt=10.0, rel_tol=1e-12, abs_tol=1e-14, t_end=1.0,
                           monitor_stride=10**6)
    rec = integrate(dyn, w0, cfg)
    assert rec.n_rejected >= 1
    exact = dyn.exact(w0.w.coeffs, rec.times[-1])
    assert np.max(np.abs(rec.states[-1].w.coeffs - exact)) <= 1e-11


def test_determinism(grid1):
    dyn = KirchhoffDynamics(grid1)
    state0 = random_state(grid1, 5, 0.2)
    cfg = IntegratorConfig(t_end=3.0, monitor_stride=7)
    mon = {"h": lambda t, st: float(np.max(np.abs(st.u.coeffs)))}
    a = integrate(dyn, state0, cfg, monitors=mon)
    b = integrate(dyn, state0, cfg, monitors=mon)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.channels["h"], b.channels["h"])
    assert a.n_steps == b.n_steps


def test_projection_defect_zero_for_hermitian_data(grid1):
    dyn = KirchhoffDynamics(grid1)
    rec = integrate(dyn, random_state(grid1, 6, 0.3), IntegratorConfig(t_end=2.0))
    assert rec.max_projection_defect == 0.0


def test_blowup_detection():
    def quadratic(t, y):
        with np.errstate(over="ignore"):
            return y * y

    dyn = _ScalarDynamics(quadratic)
    cfg = IntegratorConfig(scheme="rk4", dt=1.0, t_end=5.0)
    rec = integrate(dyn, 1e200 + 0j, cfg)
    assert rec.exit_reason == "blowup"
    assert rec.exit_time < 5.0


def test_dt_underflow_on_rough_field():
    dyn = _ScalarDynamics(lambda t, y: np.array([math.sin(1e16 * t) * 1e8], dtype=complex))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=1.0, dt=1e-3)
    rec = integrate(dyn, 1.0 + 0j, cfg)
    assert rec.exit_reason == "dt_underflow"


def test_ball_exit(grid1):
    dyn = NormalFormDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 7, 0.3, 1.0, "free"))
    cfg = IntegratorConfig(t_end=5.0, rel_tol=1e-8, ball_threshold=0.2)
    rec = integrate(dyn, w0, cfg)
    assert rec.exit_reason == "ball_exit"
    assert rec.exit_time < 5.0


def test_field_domain_error_reported_as_ball_exit(grid1):
    # state outside the invertibility ball makes the field itself refuse
    dyn = NormalFormDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 8, 0.7, 1.0, "free"))
    rec = integrate(dyn, w0, IntegratorConfig(t_end=1.0))
    assert rec.exit_reason == "ball_exit"


def test_early_stop_records_its_cause(grid1):
    # both routes to ball_exit keep the label and name the exception in notes
    dyn = NormalFormDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 8, 0.7, 1.0, "free"))
    rec = integrate(dyn, w0, IntegratorConfig(t_end=1.0))
    assert rec.exit_reason == "ball_exit" and rec.exit_time == 0.0
    assert rec.notes["error"].startswith("DomainError: normal-form field needs")

    def refuse_late(t, y):
        if t > 0.5:
            raise ConvergenceError("solve failed late")
        return -y

    rec = integrate(_ScalarDynamics(refuse_late), 1.0 + 0j, IntegratorConfig(t_end=1.0))
    assert rec.exit_reason == "ball_exit" and 0.0 < rec.exit_time <= 0.5
    assert rec.notes == {"error": "ConvergenceError: solve failed late"}


def test_normal_form_dynamics_rejects_unknown_method(grid1):
    with pytest.raises(ParameterError, match="strucutred"):
        NormalFormDynamics(grid1, method="strucutred")


def test_max_steps(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 9, 0.5, 1.0, "free"))
    rec = integrate(dyn, w0, IntegratorConfig(t_end=100.0, max_steps=3))
    assert rec.exit_reason == "max_steps"
    assert rec.n_steps == 3


def test_t_eval_exact_landings(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 10, 0.5, 1.0, "free"))
    ts = [0.0, 0.3, 0.7, 1.0]
    cfg = IntegratorConfig(rel_tol=1e-10, t_end=1.0)
    rec = integrate(dyn, w0, cfg, t_eval=ts)
    assert np.allclose(rec.times, ts, rtol=0, atol=1e-12)
    for t, st in zip(rec.times, rec.states):
        assert np.max(np.abs(st.w.coeffs - dyn.exact(w0.w.coeffs, t))) <= 1e-10


def test_monitor_stride(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 11, 0.5, 1.0, "free"))
    cfg = IntegratorConfig(scheme="rk4", dt=0.01, t_end=1.0, monitor_stride=10)
    rec = integrate(dyn, w0, cfg, monitors={"n": lambda t, st: st.w.norm(1.0)})
    assert len(rec.times) == len(rec.channels["n"])
    assert 10 <= len(rec.times) <= 12


def test_csv_round_trip(tmp_path, grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 12, 0.5, 1.0, "free"))
    cfg = IntegratorConfig(scheme="rk4", dt=0.05, t_end=0.5, monitor_stride=2)
    rec = integrate(dyn, w0, cfg, monitors={"norm_1": lambda t, st: st.w.norm(1.0)})
    path = os.path.join(tmp_path, "traj.csv")
    rec.to_csv(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw  # LF endings
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "time,norm_1"
    for i, line in enumerate(lines[1:]):
        t_str, n_str = line.split(",")
        assert float(t_str) == rec.times[i]  # 17 significant digits round-trip
        assert float(n_str) == rec.channels["norm_1"][i]


def test_step_preserves_state_class(grid1):
    dyn = KirchhoffDynamics(grid1)
    state = random_state(grid1, 13, 0.2)

    def one_step(scheme):
        cfg = IntegratorConfig(scheme=scheme, dt=0.01, t_end=0.01)
        return integrate(dyn, state, cfg).states[-1]

    out = one_step("rk4")
    assert out.u.coeffs.shape == state.u.coeffs.shape
    out853 = one_step("dop853")
    assert np.max(np.abs(out853.u.coeffs - out.u.coeffs)) <= 1e-10


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_tableau_consistency(name):
    scheme = SCHEMES[name]
    assert np.all(scheme.a.imag == 0.0)  # complex only to spare the stage casts
    a = scheme.a.real
    assert np.all(np.triu(a) == 0.0)  # explicit
    assert np.allclose(a.sum(axis=1), scheme.c, rtol=0, atol=1e-15)
    assert scheme.c[-1] == 1.0 and abs(a[-1].sum() - 1.0) <= 1e-15  # weights b
    if scheme.e is not None:
        # each error row is a difference of two weight vectors: it sums to 0
        assert np.all(scheme.e.imag == 0.0)
        for row in np.atleast_2d(scheme.e.real):
            assert abs(row.sum()) <= 1e-15


def test_dop853_tableau_matches_scipy():
    # an independent copy of Hairer's DOP853 coefficients
    from scipy.integrate._ivp import dop853_coefficients as ref

    scheme = SCHEMES["dop853"]
    s = ref.N_STAGES
    assert len(scheme.c) == s + 1 and scheme.c[s] == 1.0
    assert np.allclose(scheme.c[:s], ref.C[:s], rtol=1e-15, atol=0)
    assert np.allclose(scheme.a[:s, :s], ref.A[:s, :s], rtol=1e-15, atol=0)
    assert np.allclose(scheme.a[s, :s], ref.B, rtol=1e-15, atol=0)
    assert np.allclose(scheme.e, [ref.E5, ref.E3], rtol=1e-15, atol=0)


def test_dop853_dense_output_matches_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref

    c, a, d = SCHEMES["dop853"].dense
    extra = slice(ref.N_STAGES + 1, ref.N_STAGES_EXTENDED)
    assert np.allclose(c, ref.C[extra], rtol=1e-15, atol=0)
    assert np.all(a.imag == 0.0) and np.all(d.imag == 0.0)
    assert np.allclose(a.real, ref.A[extra], rtol=1e-15, atol=0)
    assert np.allclose(d.real[3:], ref.D, rtol=1e-15, atol=0)


def test_dop853_interpolant_matches_scipy():
    # one accepted step of a nonlinear field, sampled inside by the package's
    # dense output and by scipy's Dop853DenseOutput of the same step
    from scipy.integrate import DOP853

    def field(t, y):
        return 1j * y + 0.5 * y * y - 0.2 * t * y

    y0, h = 0.3 - 0.4j, 0.5
    ts = [0.0, 0.05, 0.2, 0.31, 0.47, h]
    cfg = IntegratorConfig(scheme="dop853", dt=h, rel_tol=1e-6, abs_tol=1e-9, t_end=h)
    rec = integrate(_ScalarDynamics(field), y0, cfg, t_eval=ts)
    assert (rec.n_steps, rec.n_rejected) == (1, 0)
    assert np.array_equal(rec.times, ts)

    solver = DOP853(field, 0.0, np.array([y0]), h, first_step=h, rtol=1e-6, atol=1e-9)
    solver.step()
    assert solver.t == h and solver.status == "finished"
    expected = solver.dense_output()(np.array(ts[1:-1]))[0]
    got = np.array(rec.states[1:-1])
    assert np.allclose(got, expected, rtol=1e-14, atol=0)
    assert abs(rec.states[-1] - solver.y[0]) <= 1e-15


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_dop853_linear_flow_accuracy_and_steps(grid1, rel_tol):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = random_field(grid1, 2, 0.5, 1.0, "free")

    cfg = IntegratorConfig(scheme="dop853", rel_tol=rel_tol, abs_tol=1e-14, t_end=10.0,
                           monitor_stride=10**6)
    rec = integrate(dyn, ConjugatePair(w0), cfg)
    assert rec.exit_reason == "completed" and rec.times[-1] == 10.0
    err = np.max(np.abs(rec.states[-1].w.coeffs - dyn.exact(w0.coeffs, 10.0)))
    assert err <= 10 * rel_tol * np.max(np.abs(w0.coeffs))


def test_rk4_step_matches_classical_formula(grid1):
    # the tableau sums stages in another order than the textbook formula
    dyn = KirchhoffDynamics(grid1)
    state = random_state(grid1, 16, 0.3)
    y, dt = dyn.pack(state), 0.05
    k1 = dyn.rhs(0.0, y)
    k2 = dyn.rhs(0.5 * dt, y + (0.5 * dt) * k1)
    k3 = dyn.rhs(0.5 * dt, y + (0.5 * dt) * k2)
    k4 = dyn.rhs(dt, y + dt * k3)
    expected = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = integrate(dyn, state, IntegratorConfig(scheme="rk4", dt=dt, t_end=dt)).states[-1]
    assert np.max(np.abs(dyn.pack(out) - expected)) <= 1e-15 * np.max(np.abs(y))


class _Counting:
    """Wraps an evaluator and counts its right-hand-side and unpack calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.unpacks = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def rhs(self, t, y):
        self.calls += 1
        return self.inner.rhs(t, y)

    def unpack(self, y):
        self.unpacks += 1
        return self.inner.unpack(y)


def test_rk4_step_makes_four_rhs_calls(grid1):
    # one call at the start, then four per step: the field at the new point
    # is the next step's first stage
    dyn = _Counting(KirchhoffDynamics(grid1))
    cfg = IntegratorConfig(scheme="rk4", dt=0.01, t_end=1.0)
    rec = integrate(dyn, random_state(grid1, 14, 0.2), cfg)
    assert rec.n_steps == 100 and rec.max_projection_defect == 0.0
    assert dyn.calls == 1 + 4 * rec.n_steps


def test_dop853_makes_twelve_rhs_calls_per_attempt(grid1):
    dyn = _Counting(LinearDiagonalDynamics(grid1))
    w0 = ConjugatePair(random_field(grid1, 15, 0.5, 1.0, "free"))
    cfg = IntegratorConfig(scheme="dop853", dt=10.0, rel_tol=1e-12, abs_tol=1e-14, t_end=1.0)
    rec = integrate(dyn, w0, cfg)
    assert rec.n_rejected >= 1
    assert dyn.calls == 1 + 12 * (rec.n_steps + rec.n_rejected)


def test_sample_unpacks_the_state_once(grid1):
    # stored states and monitors share one unpacked state; the first sample
    # is state0 itself
    dyn = _Counting(KirchhoffDynamics(grid1))
    cfg = IntegratorConfig(t_end=1.0, monitor_stride=1)
    mon = {"h": lambda t, st: float(np.max(np.abs(st.u.coeffs)))}
    rec = integrate(dyn, random_state(grid1, 17, 0.2), cfg, monitors=mon)
    assert len(rec.times) == len(rec.states) == rec.n_steps + 1
    assert dyn.unpacks == rec.n_steps


def test_t_eval_leaves_the_steps_alone(grid1):
    # samples are read from the dense output: the same steps, rejections and
    # final state as a run without them
    dyn = NormalFormDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 18, 0.05, 1.0, "free"))
    cfg = IntegratorConfig(rel_tol=1e-8, t_end=1.0, monitor_stride=10**6)
    plain = integrate(dyn, w0, cfg)
    sampled = integrate(dyn, w0, cfg, t_eval=np.linspace(0.0, 1.0, 201))
    assert plain.exit_reason == sampled.exit_reason == "completed"
    assert (sampled.n_steps, sampled.n_rejected) == (plain.n_steps, plain.n_rejected)
    assert len(sampled.times) == 201 and sampled.times[-1] == plain.times[-1] == 1.0
    assert np.array_equal(sampled.states[-1].w.coeffs, plain.states[-1].w.coeffs)


def test_t_eval_needs_dense_output(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 19, 0.5, 1.0, "free"))
    cfg = IntegratorConfig(scheme="rk4", dt=0.1, t_end=1.0)
    with pytest.raises(ParameterError, match="dense output"):
        integrate(dyn, w0, cfg, t_eval=[0.0, 0.5, 1.0])


class _Reprojecting(_ScalarDynamics):
    """Reports a projection defect on every state, so each accepted step
    re-evaluates the field at its new point."""

    def project(self, y):
        return y, 1e-300


@pytest.mark.parametrize("dynamics", ["plain", "reprojecting"])
@pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 1.0, 41)])
def test_n_rhs_counts_every_field_evaluation(dynamics, t_eval):
    cls = _Reprojecting if dynamics == "reprojecting" else _ScalarDynamics
    dyn = _Counting(cls(lambda t, y: 1j * y + 0.5 * y * y))
    cfg = IntegratorConfig(dt=10.0, rel_tol=1e-10, abs_tol=1e-12, t_end=1.0)
    rec = integrate(dyn, 0.3 - 0.4j, cfg, t_eval=t_eval)
    assert rec.exit_reason == "completed" and rec.n_rejected >= 1
    assert rec.n_rhs == dyn.calls
    attempts = 1 + 12 * (rec.n_steps + rec.n_rejected)
    reevaluations = rec.n_steps if dynamics == "reprojecting" else 0
    dense = rec.n_rhs - attempts - reevaluations
    assert dense == (0 if t_eval is None else 3 * rec.n_steps)  # a sample inside every step

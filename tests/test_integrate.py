import inspect
import math
import os

import numpy as np
import pytest

from kirchhoff_spectral import (
    ComplexField,
    ConjugatePair,
    ConvergenceError,
    DomainError,
    ParameterError,
    SpectralGrid,
    random_field,
)
from kirchhoff_spectral.dynamics import (
    _SABA2_C1,
    _SABA2_C2,
    DiagonalizedDynamics,
    KirchhoffDynamics,
    NormalFormDynamics,
)
from kirchhoff_spectral.fields import halves, pair_norm
from kirchhoff_spectral.integrate import DOP853, SCHEMES, IntegratorConfig, integrate
from kirchhoff_spectral.kirchhoff import random_state
from oracles import LinearDiagonalDynamics, same_bits, saba2_subflows


class _ScalarDynamics:
    """Minimal synthetic evaluator over a single complex value."""

    def __init__(self, fn):
        self.fn = fn

    def pack(self, state):
        return np.array([state], dtype=np.complex128)

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


@pytest.mark.parametrize("name", ["dt", "rel_tol", "abs_tol", "t_end", "ball_threshold"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_refuses_non_finite_numbers(name, value):
    # a NaN passes every sign check and mislabels the run: dt = nan ends in
    # "blowup" at t = 0, rel_tol = nan in "dt_underflow", t_end = nan
    # "completed" with one sample
    with pytest.raises(ParameterError, match="finite"):
        IntegratorConfig(**{name: value}).validate()


@pytest.mark.parametrize("t_eval", [[0.0, 0.5, 2.0, 3.0], [0.0, math.nan], [0.0, 1.0 + 1e-12]])
def test_t_eval_outside_the_run_is_refused(t_eval):
    # a time past t_end, or a NaN, would be dropped without a word
    dyn = _ScalarDynamics(lambda t, y: -y)
    with pytest.raises(ParameterError, match="t_end"):
        integrate(dyn, 1.0 + 0j, IntegratorConfig(t_end=1.0), t_eval=t_eval)


def test_t_end_zero_single_snapshot(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 1, 0.5, 1.0, "free"))
    rec = integrate(dyn, w0, IntegratorConfig(t_end=0.0))
    assert rec.exit_reason == "completed"
    assert len(rec.times) == 1 and rec.times[0] == 0.0
    assert np.array_equal(rec.samples[:, 0], w0.w.coeffs)


def test_zero_state_stays_zero(grid1):
    dyn = KirchhoffDynamics(grid1)
    from kirchhoff_spectral import RealPair

    z = RealPair(ComplexField.zero(grid1), ComplexField.zero(grid1))
    rec = integrate(dyn, z, IntegratorConfig(t_end=1.0))
    assert np.all(rec.samples[:, -1] == 0.0)  # u and v


def test_linear_field_exact_flow(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = random_field(grid1, 2, 0.5, 1.0, "free")
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=10.0)
    rec = integrate(dyn, ConjugatePair(w0), cfg)
    assert rec.exit_reason == "completed"
    assert rec.notes == {}  # notes are written only when a run stops early
    exact = dyn.exact(w0.coeffs, rec.times[-1])
    assert np.max(np.abs(rec.samples[:, -1] - exact)) <= 1e-11


def test_adaptive_rejects_oversized_initial_step(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 4, 0.5, 1.0, "free"))
    cfg = IntegratorConfig(dt=10.0, rel_tol=1e-12, abs_tol=1e-14, t_end=1.0)
    rec = integrate(dyn, w0, cfg)
    assert rec.n_rejected >= 1
    exact = dyn.exact(w0.w.coeffs, rec.times[-1])
    assert np.max(np.abs(rec.samples[:, -1] - exact)) <= 1e-11


def test_determinism(grid1):
    dyn = KirchhoffDynamics(grid1)
    state0 = random_state(grid1, 5, 0.2)
    cfg = IntegratorConfig(t_end=3.0)
    mon = {"h": lambda t, y: float(np.max(np.abs(y[: grid1.n_modes])))}
    ts = np.linspace(0.0, 3.0, 31)
    a = integrate(dyn, state0, cfg, monitors=mon, t_eval=ts)
    b = integrate(dyn, state0, cfg, monitors=mon, t_eval=ts)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.channels["h"], b.channels["h"])
    assert a.n_steps == b.n_steps


def test_projection_defect_zero_for_hermitian_data(grid1):
    dyn = KirchhoffDynamics(grid1)
    rec = integrate(dyn, random_state(grid1, 6, 0.3), IntegratorConfig(t_end=2.0))
    assert rec.max_projection_defect == 0.0


def test_a_nan_projection_defect_is_kept():
    # the run's largest projection defect keeps a NaN, whatever comes after it
    from kirchhoff_spectral.integrate import _Run

    class Projecting(_ScalarDynamics):
        def __init__(self, defects):
            super().__init__(lambda t, y: 0.0 * y)
            self.defects = iter(defects)

        def project(self, y):
            return y, next(self.defects)

    run = _Run(Projecting([0.5, math.nan, 2.0]), IntegratorConfig(), {}, np.array([]))
    y = np.zeros(1, dtype=np.complex128)
    run.project(y)
    assert run.max_defect == 0.5
    for _ in range(2):
        run.project(y)
        assert math.isnan(run.max_defect)


def test_blowup_detection():
    def quadratic(t, y):
        with np.errstate(over="ignore"):
            return y * y

    dyn = _ScalarDynamics(quadratic)
    cfg = IntegratorConfig(scheme="dop853", dt=1.0, t_end=5.0)
    rec = integrate(dyn, 1e200 + 0j, cfg)
    assert rec.exit_reason == "blowup"
    assert rec.exit_time < 5.0


def test_dt_underflow_on_rough_field():
    dyn = _ScalarDynamics(lambda t, y: np.array([math.sin(1e16 * t) * 1e8], dtype=complex))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=1.0, dt=1e-3)
    rec = integrate(dyn, 1.0 + 0j, cfg)
    assert rec.exit_reason == "dt_underflow"


@pytest.mark.parametrize("dynamics", [KirchhoffDynamics, NormalFormDynamics])
@pytest.mark.parametrize("t_end", [1e-13, 5e-13])
def test_a_run_shorter_than_the_step_floor_takes_one_step(grid1, dynamics, t_end):
    # the step floor ends a run whose adaptive step collapsed, not one whose
    # whole interval is below it
    if dynamics is KirchhoffDynamics:
        state0 = random_state(grid1, 20, 0.1)
    else:
        state0 = ConjugatePair(random_field(grid1, 20, 0.1, 1.0, "free"))
    rec = integrate(dynamics(grid1), state0, IntegratorConfig(t_end=t_end))
    assert (rec.exit_reason, rec.exit_time, rec.n_steps) == ("completed", t_end, 1)
    assert np.array_equal(rec.times, [0.0, t_end])


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


def test_t_eval_exact_landings(grid1):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 10, 0.5, 1.0, "free"))
    ts = [0.0, 0.3, 0.7, 1.0]
    cfg = IntegratorConfig(rel_tol=1e-10, t_end=1.0)
    rec = integrate(dyn, w0, cfg, t_eval=ts)
    assert np.allclose(rec.times, ts, rtol=0, atol=1e-12)
    for t, w in zip(rec.times, rec.samples.T):
        assert np.max(np.abs(w - dyn.exact(w0.w.coeffs, t))) <= 1e-10


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_monitors_sample_at_t_eval(grid1, scheme):
    # one sampling rule for every scheme; without t_eval, the two endpoints
    dyn = KirchhoffDynamics(grid1)  # the field that every scheme can step
    w0 = random_state(grid1, 11, 0.5)
    cfg = IntegratorConfig(scheme=scheme, dt=0.01, t_end=1.0)
    mon = {"n": lambda t, y: pair_norm(grid1, y, 1.0)}
    rec = integrate(dyn, w0, cfg, monitors=mon, t_eval=np.linspace(0.0, 1.0, 11))
    assert np.array_equal(rec.times, np.linspace(0.0, 1.0, 11))
    assert len(rec.channels["n"]) == 11
    rec = integrate(dyn, w0, cfg, monitors=mon)
    assert np.array_equal(rec.times, [0.0, 1.0]) and len(rec.channels["n"]) == 2


def test_csv_round_trip(tmp_path, grid1):
    from kirchhoff_spectral.cli import _write_csv

    dyn = LinearDiagonalDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 12, 0.5, 1.0, "free"))
    cfg = IntegratorConfig(scheme="dop853", dt=0.05, t_end=0.5)
    mon = {"norm_1": lambda t, y: grid1.coeff_norm(y, 1.0)}
    rec = integrate(dyn, w0, cfg, monitors=mon, t_eval=np.linspace(0.0, 0.5, 6))
    path = os.path.join(tmp_path, "out", "traj.csv")  # the writer makes the directory
    _write_csv(path, ["time", "norm_1"], zip(rec.times, rec.channels["norm_1"]))
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
        return halves(integrate(dyn, state, cfg).samples[:, -1])[0]

    out = one_step("saba2")
    assert out.shape == state.u.coeffs.shape
    out853 = one_step("dop853")
    assert np.max(np.abs(out853 - out)) <= 1e-10


def test_tableau_consistency():
    scheme = DOP853
    assert np.all(scheme.a.imag == 0.0)  # complex only to spare the stage casts
    a = scheme.a.real
    assert np.all(np.triu(a) == 0.0)  # explicit
    assert np.allclose(a.sum(axis=1), scheme.c, rtol=0, atol=1e-15)
    assert scheme.c[-1] == 1.0 and abs(a[-1].sum() - 1.0) <= 1e-15  # weights b
    # each error row is a difference of two weight vectors: it sums to 0
    assert np.all(scheme.e.imag == 0.0)
    for row in scheme.e.real:
        assert abs(row.sum()) <= 1e-15


def test_dop853_tableau_matches_scipy():
    # an independent copy of Hairer's DOP853 coefficients
    from scipy.integrate._ivp import dop853_coefficients as ref

    scheme = DOP853
    s = ref.N_STAGES
    assert len(scheme.c) == s + 1 and scheme.c[s] == 1.0
    assert np.allclose(scheme.c[:s], ref.C[:s], rtol=1e-15, atol=0)
    assert np.allclose(scheme.a[:s, :s], ref.A[:s, :s], rtol=1e-15, atol=0)
    assert np.allclose(scheme.a[s, :s], ref.B, rtol=1e-15, atol=0)
    assert np.allclose(scheme.e, [ref.E5, ref.E3], rtol=1e-15, atol=0)


def test_dop853_dense_output_matches_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref

    c, a, d = DOP853.dense
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
    assert np.allclose(rec.samples[0, 1:-1], expected, rtol=1e-14, atol=0)
    assert abs(rec.samples[0, -1] - solver.y[0]) <= 1e-15


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_dop853_linear_flow_accuracy_and_steps(grid1, rel_tol):
    dyn = LinearDiagonalDynamics(grid1)
    w0 = random_field(grid1, 2, 0.5, 1.0, "free")

    cfg = IntegratorConfig(scheme="dop853", rel_tol=rel_tol, abs_tol=1e-14, t_end=10.0)
    rec = integrate(dyn, ConjugatePair(w0), cfg)
    assert rec.exit_reason == "completed" and rec.times[-1] == 10.0
    err = np.max(np.abs(rec.samples[:, -1] - dyn.exact(w0.coeffs, 10.0)))
    assert err <= 10 * rel_tol * np.max(np.abs(w0.coeffs))


class _Rotating(LinearDiagonalDynamics):
    """The linear test field, declaring its rotation: DOP853 steps it in the
    rotation's frame."""

    def __init__(self, grid):
        super().__init__(grid)
        self.rates = grid.rotation[: grid.n_modes]


def test_a_declared_rotation_is_stepped_exactly(grid1):
    # in the frame every stage of the linear field is zero, so each step is the
    # exact rotation, the error estimate is zero and each step is five times
    # the last from the starting step of a zero remainder, 1e-6: ten steps
    # reach 2.44, the eleventh lands on t_end
    dyn = _Rotating(grid1)
    w0 = random_field(grid1, 2, 0.5, 1.0, "free")
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=10.0)
    rec = integrate(dyn, ConjugatePair(w0), cfg, t_eval=np.linspace(0.0, 10.0, 41))
    assert rec.exit_reason == "completed" and (rec.n_steps, rec.n_rejected) == (11, 0)
    rounding = 16 * np.finfo(np.float64).eps * np.max(np.abs(w0.coeffs))
    for t, w in zip(rec.times, rec.samples.T):
        assert np.max(np.abs(w - dyn.exact(w0.coeffs, t))) <= rounding


@pytest.mark.parametrize("dynamics", [NormalFormDynamics, DiagonalizedDynamics])
@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_a_framed_run_agrees_with_plain_dop853(grid1, dynamics, eps):
    # the frame changes what the tableau integrates, not the flow: its samples,
    # most of them inside steps, agree with plain DOP853 at rel_tol 1e-13 to
    # the accuracy its own tolerance asks for
    w0 = ConjugatePair(random_field(grid1, 18, eps, 1.0, "free"))
    ts = np.linspace(0.0, 4.0, 161)
    plain = dynamics(grid1)
    plain.rates = None  # declares none: stepped as the parent tableau steps it
    ref = integrate(plain, w0, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-16, t_end=4.0),
                    t_eval=ts)
    rel_tol = 1e-10
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-2 * rel_tol, t_end=4.0)
    rec = integrate(dynamics(grid1), w0, cfg, t_eval=ts)
    assert ref.exit_reason == rec.exit_reason == "completed"
    assert rec.n_steps < ref.n_steps and rec.n_steps < len(ts) // 2
    bound = 10 * rel_tol * np.max(np.abs(w0.w.coeffs))
    assert np.max(np.abs(ref.samples - rec.samples)) <= bound


def test_rates_must_be_imaginary(grid1):
    # the frame keeps the error norm's scales only if |e^{L h}| = 1
    dyn = _Rotating(grid1)
    dyn.rates = dyn.rates + 0.1
    w0 = ConjugatePair(random_field(grid1, 2, 0.5, 1.0, "free"))
    with pytest.raises(ParameterError, match="imaginary"):
        integrate(dyn, w0, IntegratorConfig(t_end=1.0))


class _Counting:
    """Wraps an evaluator and counts its right-hand-side calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def rhs(self, t, y):
        self.calls += 1
        return self.inner.rhs(t, y)


def test_dop853_makes_twelve_rhs_calls_per_attempt(grid1):
    dyn = _Counting(LinearDiagonalDynamics(grid1))
    w0 = ConjugatePair(random_field(grid1, 15, 0.5, 1.0, "free"))
    cfg = IntegratorConfig(scheme="dop853", dt=10.0, rel_tol=1e-12, abs_tol=1e-14, t_end=1.0)
    rec = integrate(dyn, w0, cfg)
    assert rec.n_rejected >= 1
    assert dyn.calls == 1 + 12 * (rec.n_steps + rec.n_rejected)


@pytest.mark.parametrize("scheme, dynamics", [
    ("dop853", KirchhoffDynamics),  # no declared rotation
    ("dop853", NormalFormDynamics),  # stepped in its rotation's frame
    ("saba2", KirchhoffDynamics),
])
def test_each_monitor_reads_the_packed_sample(grid1, scheme, dynamics):
    # every monitor of sample k gets the record's column k, bit for bit, as
    # one array that they share; at t = 0 it is the packed start
    dyn = dynamics(grid1)
    if dynamics is KirchhoffDynamics:
        state0 = random_state(grid1, 17, 0.2)
    else:
        state0 = ConjugatePair(random_field(grid1, 17, 0.05, 1.0, "free"))
    read = {"a": [], "b": []}
    mon = {name: lambda t, y, name=name: read[name].append((y, y.copy())) or 0.0
           for name in read}
    cfg = IntegratorConfig(scheme=scheme, dt=0.01, t_end=1.0)
    rec = integrate(dyn, state0, cfg, monitors=mon, t_eval=np.linspace(0.0, 1.0, 11))
    assert rec.exit_reason == "completed" and rec.samples.shape[1] == 11
    assert len(read["a"]) == len(read["b"]) == 11
    for k, ((y, copy), (other, _)) in enumerate(zip(read["a"], read["b"])):
        assert y is other
        assert same_bits(copy, rec.samples[:, k])
    assert same_bits(read["a"][0][1], dyn.pack(state0))


@pytest.mark.parametrize("t_eval", [np.linspace(0.0, 5.0, 11), []])
def test_samples_are_the_packed_samples_as_columns(grid1, t_eval):
    # a run that leaves the ball samples where it stopped, with or without
    # requested times: every sample, the stop's included, is one column of a
    # C-contiguous stack, bit for bit the state the monitor read
    dyn = NormalFormDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 7, 0.3, 1.0, "free"))
    read = []
    mon = {"pack": lambda t, y: read.append(y.copy()) or 0.0}
    cfg = IntegratorConfig(t_end=5.0, rel_tol=1e-8, ball_threshold=0.2)
    rec = integrate(dyn, w0, cfg, monitors=mon, t_eval=t_eval)
    assert rec.exit_reason == "ball_exit" and 0.0 < rec.exit_time < 5.0
    assert np.array_equal(rec.times, [t for t in t_eval if t < rec.exit_time] + [rec.exit_time])
    assert rec.samples.shape == (grid1.n_modes, len(rec.times))
    assert rec.samples.flags.c_contiguous
    assert np.array_equal(rec.samples, np.stack(read, axis=1))


def test_a_run_without_samples_has_an_empty_stack(grid1):
    w0 = ConjugatePair(random_field(grid1, 7, 0.3, 1.0, "free"))
    rec = integrate(LinearDiagonalDynamics(grid1), w0, IntegratorConfig(t_end=1.0), t_eval=[])
    assert rec.exit_reason == "completed" and len(rec.times) == 0
    assert rec.samples.shape == (grid1.n_modes, 0) and rec.samples.dtype == np.complex128


def test_t_eval_leaves_the_steps_alone(grid1):
    # samples are read from the dense output: the same steps, rejections and
    # final state as a run without them
    dyn = NormalFormDynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 18, 0.05, 1.0, "free"))
    cfg = IntegratorConfig(rel_tol=1e-8, t_end=1.0)
    plain = integrate(dyn, w0, cfg)
    sampled = integrate(dyn, w0, cfg, t_eval=np.linspace(0.0, 1.0, 201))
    assert plain.exit_reason == sampled.exit_reason == "completed"
    assert (sampled.n_steps, sampled.n_rejected) == (plain.n_steps, plain.n_rejected)
    assert len(sampled.times) == 201 and sampled.times[-1] == plain.times[-1] == 1.0
    assert np.array_equal(sampled.samples[:, -1], plain.samples[:, -1])


class _Ball(_ScalarDynamics):
    def ball_value(self, y):
        return abs(y[0])


def test_early_exit_samples_a_time_once():
    # a stop at a time already sampled adds no second sample there
    def refuse_after_start(t, y):
        if t > 0.0:
            raise ConvergenceError("stage refused")
        return y

    cfg = IntegratorConfig(dt=0.05, t_end=1.0)
    rec = integrate(_ScalarDynamics(refuse_after_start), 1.0 + 0j, cfg, t_eval=[0.0, 1.0])
    assert rec.exit_reason == "ball_exit" and rec.exit_time == 0.0
    assert np.array_equal(rec.times, [0.0])

    # the ball check trips on the step that lands on t_end
    cfg = IntegratorConfig(dt=0.05, t_end=0.05, ball_threshold=1.01)
    rec = integrate(_Ball(lambda t, y: y), 1.0 + 0j, cfg, t_eval=[0.0, 0.05])
    assert (rec.exit_reason, rec.exit_time, rec.n_steps) == ("ball_exit", 0.05, 1)
    assert np.array_equal(rec.times, [0.0, 0.05]) and rec.samples.shape == (1, 2)


class _Reprojecting(_ScalarDynamics):
    """Reports a projection defect on every state, so each accepted step
    re-evaluates the field at its new point."""

    def project(self, y):
        return y, 1e-300


class _Framed(_ScalarDynamics):
    """Declares the rate of its field's linear part, 1j y."""

    rates = np.array([1j])


class _ReprojectingFramed(_Reprojecting, _Framed):
    pass


_SCALAR_EVALUATORS = {
    "plain": _ScalarDynamics,
    "reprojecting": _Reprojecting,
    "framed": _Framed,
    "reprojecting-framed": _ReprojectingFramed,
}


@pytest.mark.parametrize("dynamics", sorted(_SCALAR_EVALUATORS))
@pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 1.0, 41)])
def test_n_rhs_counts_every_field_evaluation(dynamics, t_eval):
    # in the frame too: the last stage turned to the next frame is the next
    # step's first, with no evaluation, a rejected attempt costs 12, and the
    # starting step costs one
    dyn = _Counting(_SCALAR_EVALUATORS[dynamics](lambda t, y: 1j * y + 0.5 * y * y))
    cfg = IntegratorConfig(dt=10.0, rel_tol=1e-10, abs_tol=1e-12, t_end=1.0)
    rec = integrate(dyn, 0.3 - 0.4j, cfg, t_eval=t_eval)
    assert rec.exit_reason == "completed" and rec.n_rejected >= 1
    assert rec.n_rhs == dyn.calls
    start = 2 if dynamics.endswith("framed") else 1
    attempts = start + 12 * (rec.n_steps + rec.n_rejected)
    reevaluations = rec.n_steps if dynamics.startswith("reprojecting") else 0
    dense = rec.n_rhs - attempts - reevaluations
    assert dense == (0 if t_eval is None else 3 * rec.n_steps)  # a sample inside every step
    # and the steps are right: 1 / y solves a linear equation, z' = -i z - 1/2
    for t, y in zip(rec.times, rec.samples[0]):
        assert abs(y - 1.0 / (0.5j + (1.0 / (0.3 - 0.4j) - 0.5j) * np.exp(-1j * t))) <= 1e-9


# -- saba2: the splitting of the physical field into its exact sub-flows -------

_SWEEP_DT = 1 / 8  # the sweep's step on d=1 N=8: one radian of the fastest rotation
_ROW_TS = np.linspace(0.0, 100.0, 101)


@pytest.fixture(scope="module")
def sweep_row(grid1):
    """The physical start of the sweep's eps = 0.1 row, and DOP853's samples of
    it at rel_tol 1e-12 (the reference) and 1e-8 (the sweep's tolerance)."""
    from kirchhoff_spectral.transforms import change_of_variables

    w0 = ConjugatePair(random_field(grid1, 100, 0.2 * 0.1, 1.0, "free"))
    state0 = change_of_variables("fwd", w0)
    dyn = KirchhoffDynamics(grid1)

    def dop853(rel_tol, abs_tol):
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, t_end=100.0)
        return integrate(dyn, state0, cfg, t_eval=_ROW_TS).samples

    return state0, dop853(1e-12, 1e-14), dop853(1e-8, 1e-12)


def _saba2(grid, state0, dt, t_eval=_ROW_TS):
    cfg = IntegratorConfig(scheme="saba2", dt=dt, t_end=float(t_eval[-1]))
    return integrate(KirchhoffDynamics(grid), state0, cfg, t_eval=t_eval)


def test_saba2_at_the_sweep_step_is_as_accurate_as_dop853(grid1, sweep_row):
    state0, reference, dop853 = sweep_row
    err = {dt: np.max(np.abs(_saba2(grid1, state0, dt).samples - reference))
           for dt in (_SWEEP_DT, _SWEEP_DT / 2)}
    assert err[_SWEEP_DT] <= np.max(np.abs(dop853 - reference))
    # second order in the kick: halving the step divides the error by about 4
    assert err[_SWEEP_DT] / err[_SWEEP_DT / 2] >= 3.0


def test_saba2_keeps_momenta_symmetry_and_sample_times(grid1, sweep_row):
    from kirchhoff_spectral.kirchhoff import momenta

    rec = _saba2(grid1, sweep_row[0], _SWEEP_DT)
    assert rec.exit_reason == "completed" and rec.exit_time == 100.0
    assert np.array_equal(rec.times, _ROW_TS)  # the steps land on every sample
    moms = np.array([momenta(grid1, y) for y in rec.samples.T])
    drift = moms - moms[0]
    assert np.max(np.abs(drift)) <= 1e-13
    # rotation and kick act per mode with real factors even in j
    assert rec.max_projection_defect == 0.0
    assert (rec.n_rejected, rec.n_rhs) == (0, 1)  # one field evaluation, at the start


#: steps of the closed-form check, and its bound: a step is a few dozen
#: floating-point operations per mode, so 150 of them may differ from the
#: sub-flow composition by about 150 * 8 rounding units of the state's size
_CLOSED_FORM_STEPS = 150
_CLOSED_FORM_TOL = _CLOSED_FORM_STEPS * 8 * np.finfo(np.float64).eps / 2


def _factors(dyn, h):
    """The SABA2 factors of the one step size ``h``."""
    a, weights = dyn.saba2_factors([h])
    return a[0], weights[0]


@pytest.mark.parametrize("d, n_cutoff", [(1, 8), (2, 4), (3, 4), (2, 8)])
@pytest.mark.parametrize("dt_max_freq", [1.0, 0.37, 2.5])
def test_saba2_step_map_is_the_subflow_composition(d, n_cutoff, dt_max_freq):
    # the per-mode 2x2 map with its two kick scalars is the same method as
    # rotate, kick, rotate, kick, rotate: over 150 steps they agree to rounding
    grid = SpectralGrid(d, n_cutoff)
    dyn = KirchhoffDynamics(grid)
    h = dt_max_freq / dyn.max_frequency
    y0 = dyn.pack(random_state(grid, 40, 0.2)).astype(np.complex128)
    y, taken = dyn.saba2_steps(y0, _factors(dyn, h), _CLOSED_FORM_STEPS)
    reference = saba2_subflows(grid, y0, h, _CLOSED_FORM_STEPS, _SABA2_C1, _SABA2_C2)
    assert taken == _CLOSED_FORM_STEPS
    assert np.max(np.abs(y - reference)) <= _CLOSED_FORM_TOL * np.max(np.abs(reference))
    # the state moved by far more than the bound: the check compares flows
    assert np.max(np.abs(y - y0)) >= 1e3 * _CLOSED_FORM_TOL * np.max(np.abs(reference))
    # every factor is even in j, and the product that blends them sums j and
    # -j alike, so the Hermitian symmetry holds bit for bit
    assert np.array_equal(y, np.conj(y[grid.pair_neg]))


@pytest.mark.parametrize("d, n_cutoff", [(1, 8), (2, 4), (3, 4)])
def test_saba2_factors_of_many_sizes_are_each_sizes_own(d, n_cutoff):
    # a run builds the factors of all its step sizes at once; each size's
    # slice is the build of that size alone, bit for bit
    dyn = KirchhoffDynamics(SpectralGrid(d, n_cutoff))
    base = 1.0 / dyn.max_frequency
    sizes = [base, np.nextafter(base, 0.0), 0.37 * base, 2.5 * base, 1e-3 * base]
    a, weights = dyn.saba2_factors(sizes)
    assert a.shape[0] == weights.shape[0] == len(sizes)
    for i, h in enumerate(sizes):
        one_a, one_weights = _factors(dyn, h)
        assert same_bits(a[i], one_a) and same_bits(weights[i], one_weights)


def test_saba2_steps_stop_at_the_last_finite_state(grid1):
    dyn = KirchhoffDynamics(grid1)
    factors = _factors(dyn, _SWEEP_DT)
    y0 = dyn.pack(random_state(grid1, 1, 10.0)).astype(np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        y, taken = dyn.saba2_steps(y0, factors, 100)
        assert 0 < taken < 100 and np.isfinite(y).all()
        # the state it returns is the one that many steps reach
        again, steps = dyn.saba2_steps(y0, factors, taken)
        assert steps == taken and np.array_equal(again, y)
        # and no step leaves it finite
        assert dyn.saba2_steps(y, factors, 1)[1] == 0


def test_saba2_cuts_each_sample_interval_into_equal_steps(grid1):
    ts = np.array([0.0, 0.3, 0.35, 1.0, 2.2])
    rec = _saba2(grid1, random_state(grid1, 30, 0.1), 0.25, t_eval=ts)
    assert np.array_equal(rec.times, ts)
    assert rec.n_steps == sum(math.ceil(b / 0.25) for b in np.diff(ts)) == 2 + 1 + 3 + 5
    # intervals that are one dt up to the rounding of linspace take one step
    # each, where a plain ceil would take 180 steps here
    ts = np.linspace(0.0, 1.0, 101)
    assert sum(math.ceil(b / 0.01) for b in np.diff(ts)) == 180
    rec = _saba2(grid1, random_state(grid1, 30, 0.1), 0.01, t_eval=ts)
    assert rec.n_steps == 100 and np.array_equal(rec.times, ts)


def test_saba2_guards(grid1):
    state0 = random_state(grid1, 31, 0.1)
    # the first step-size resonance: dt * max|j| = pi on the 8-mode grid
    with pytest.raises(ParameterError, match="pi"):
        _saba2(grid1, state0, math.pi / 8)
    # a field without exact sub-flows
    w0 = ConjugatePair(random_field(grid1, 31, 0.1, 1.0, "free"))
    for dyn in (NormalFormDynamics(grid1), LinearDiagonalDynamics(grid1)):
        with pytest.raises(ParameterError, match="sub-flows"):
            integrate(dyn, w0, IntegratorConfig(scheme="saba2", t_end=1.0))


def test_saba2_blowup_stops_at_its_last_finite_step(grid1):
    # at this size the kicks overflow within a few steps
    ts = np.linspace(0.0, 10.0, 11)
    rec = _saba2(grid1, random_state(grid1, 1, 10.0), _SWEEP_DT, t_eval=ts)
    assert rec.exit_reason == "blowup"
    assert 0.0 < rec.exit_time < 1.0 and rec.exit_time == rec.n_steps * _SWEEP_DT
    assert rec.times[-1] == rec.exit_time  # the stop is sampled
    assert np.isfinite(rec.samples).all()


def test_saba2_below_the_step_floor_is_a_dt_underflow(grid1, monkeypatch):
    # as DOP853 ends a run whose step fell below the floor, a saba2 dt below it
    # ends the run at t = 0; the spy stops a run that would take ~1e300 steps
    real = KirchhoffDynamics.saba2_steps

    def saba2_steps(self, y, factors, m):
        if m > 10 ** 6:
            raise AssertionError(f"{m} steps asked of saba2_steps")
        return real(self, y, factors, m)

    monkeypatch.setattr(KirchhoffDynamics, "saba2_steps", saba2_steps)
    state0 = random_state(grid1, 33, 0.1)
    for dt in (1e-300, 0.5e-12):
        rec = _saba2(grid1, state0, dt, t_eval=np.array([0.0, 1.0]))
        assert (rec.exit_reason, rec.exit_time, rec.n_steps) == ("dt_underflow", 0.0, 0)
        assert np.array_equal(rec.times, [0.0])


class _RefusingKirchhoff(KirchhoffDynamics):
    def rhs(self, t, y):
        raise DomainError("outside the field's domain")


def test_saba2_start_outside_the_domain_is_a_ball_exit(grid1):
    # the opening field evaluation is kept for every scheme
    cfg = IntegratorConfig(scheme="saba2", dt=_SWEEP_DT, t_end=1.0)
    rec = integrate(_RefusingKirchhoff(grid1), random_state(grid1, 32, 0.1), cfg)
    assert (rec.exit_reason, rec.exit_time, rec.n_steps) == ("ball_exit", 0.0, 0)
    assert rec.notes["error"].startswith("DomainError")


# -- the first step: estimated in the frame, config.dt without it -------------

def _first_attempts(monkeypatch) -> list:
    """Spies on the integrator's attempts; returns the list their steps go to."""
    from kirchhoff_spectral import integrate as integrate_module

    steps = []
    real = integrate_module._rk_step

    def rk_step(scheme, rhs, t, y, dt, *args):
        steps.append(dt)
        return real(scheme, rhs, t, y, dt, *args)

    monkeypatch.setattr(integrate_module, "_rk_step", rk_step)
    return steps


@pytest.mark.parametrize("dynamics", [NormalFormDynamics, DiagonalizedDynamics])
def test_a_framed_run_starts_from_hairers_estimate(grid1, dynamics, monkeypatch):
    # the first attempt is Hairer's starting step (scipy's select_initial_step,
    # error order 7) on the remainder the frame integrates, and the estimate's
    # one field evaluation is counted
    from scipy.integrate._ivp.common import select_initial_step

    dyn = dynamics(grid1)
    w0 = ConjugatePair(random_field(grid1, 18, 0.1, 1.0, "free"))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, t_end=1.0)
    steps = _first_attempts(monkeypatch)
    rec = integrate(dyn, w0, cfg)
    assert rec.exit_reason == "completed"

    rates = dyn.rates

    def remainder(s, v):
        y = np.exp(rates * s) * v
        return np.exp(-rates * s) * (dyn.rhs(s, y) - rates * y)

    y0 = dyn.pack(w0).astype(np.complex128)
    kwargs = dict(fun=remainder, t0=0.0, y0=y0, f0=remainder(0.0, y0), direction=1.0,
                  order=7, rtol=cfg.rel_tol, atol=cfg.abs_tol)
    if "t_bound" in inspect.signature(select_initial_step).parameters:
        kwargs.update(t_bound=cfg.t_end, max_step=np.inf)
    assert steps[0] == select_initial_step(**kwargs) == rec.first_step
    assert rec.n_rhs == 2 + 12 * (rec.n_steps + rec.n_rejected)


def test_a_field_that_refuses_the_trial_point_ends_the_run_at_the_start(monkeypatch):
    # the estimate's field evaluation is guarded as the first stage's is
    def refuse_after_start(t, y):
        if t > 0.0:
            raise ConvergenceError("trial point refused")
        return 1j * y

    steps = _first_attempts(monkeypatch)
    rec = integrate(_Framed(refuse_after_start), 1.0 + 0j, IntegratorConfig(t_end=1.0))
    assert (rec.exit_reason, rec.exit_time, rec.n_steps, rec.n_rhs) == ("ball_exit", 0.0, 0, 2)
    assert rec.notes == {"error": "ConvergenceError: trial point refused"} and steps == []
    assert rec.first_step is None  # the run chose no step
    assert np.array_equal(rec.times, [0.0])


@pytest.mark.parametrize("scheme, dt, work", [
    ("dop853", 1e-2, (37, 0, 466)),
    ("dop853", 1.0, (36, 3, 490)),  # an oversized start, rejected
    ("saba2", _SWEEP_DT, (16, 0, 1)),
])
def test_a_run_without_rates_starts_from_its_dt(grid1, scheme, dt, work, monkeypatch):
    # the physical field declares no rates: DOP853's first attempt is
    # config.dt and nothing is evaluated for a starting step; the work counts
    # are those of the fixed start
    steps = _first_attempts(monkeypatch)
    cfg = IntegratorConfig(scheme=scheme, dt=dt, rel_tol=1e-10, t_end=2.0)
    dyn = _Counting(KirchhoffDynamics(grid1))
    rec = integrate(dyn, random_state(grid1, 19, 0.1), cfg, t_eval=np.linspace(0.0, 2.0, 9))
    assert rec.exit_reason == "completed" and rec.n_rhs == dyn.calls
    assert (rec.n_steps, rec.n_rejected, rec.n_rhs) == work
    assert steps[:1] == ([dt] if scheme == "dop853" else [])
    # saba2's first planned step lands on the first sample time, 0.25
    assert rec.first_step == (dt if scheme == "dop853" else 0.25 / math.ceil(0.25 / dt))

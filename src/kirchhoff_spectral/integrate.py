"""Deterministic explicit time integration with per-step invariant monitoring.

Two schemes: classical fixed-step RK4 and an adaptive Dormand-Prince 5(4)
embedded pair with PI step-size control (the 5th-order solution is
propagated). The schemes are deliberately *not* structure preserving: the
workbench measures conservation defects as diagnostics, and drift channels
are only meaningful when the integrator does not conserve them by
construction.

After every accepted step the state is projected back onto its exact
structural symmetry class and the projection defect is logged (for the
states used here the right-hand sides preserve the symmetry exactly, so the
defect stays at rounding level).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    BlowupError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ParameterError,
)

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between the 5th- and 4th-order weights (error estimator)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


@dataclass
class IntegratorConfig:
    scheme: str = "rk45_adaptive"  # "rk4" or "rk45_adaptive"
    dt: float = 1e-2  # fixed step (rk4) or initial step (rk45)
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_end: float = 1.0
    monitor_stride: int = 10
    dt_min: float = 1e-12
    max_steps: int | None = None
    ball_threshold: float | None = None
    store_states: bool = True

    def validate(self) -> None:
        if self.scheme not in ("rk4", "rk45_adaptive"):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0 or self.t_end < 0:
            raise ParameterError("dt must be > 0 and t_end >= 0")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ParameterError("tolerances must be > 0")
        if self.monitor_stride < 1:
            raise ParameterError("monitor_stride must be >= 1")


@dataclass
class TrajectoryRecord:
    """Sampled trajectory plus named monitor channels on a shared time axis."""

    times: np.ndarray
    states: list
    channels: dict[str, np.ndarray]
    exit_reason: str
    exit_time: float
    n_steps: int
    n_rejected: int
    max_projection_defect: float
    notes: dict = dataclass_field(default_factory=dict)

    def channel(self, name: str) -> np.ndarray:
        return self.channels[name]

    def to_csv(self, path) -> None:
        """One row per sample; floats with 17 significant digits; LF endings."""
        names = sorted(self.channels)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(["time"] + names) + "\n")
            for i, t in enumerate(self.times):
                row = [f"{t:.17g}"] + [f"{self.channels[n][i]:.17g}" for n in names]
                fh.write(",".join(row) + "\n")


def _rk4_step(rhs, t, y, dt):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(evaluator, state, dt: float, t: float = 0.0, scheme: str = "rk4"):
    """Single explicit step on a state object (no error control; test utility)."""
    y = evaluator.pack(state)
    if scheme == "rk4":
        y_new = _rk4_step(evaluator.rhs, t, y, dt)
    elif scheme == "rk45_adaptive":
        k1 = evaluator.rhs(t, y)
        y_new, _, _, _ = _dopri_step(evaluator.rhs, t, y, dt, k1)
    else:
        raise ParameterError(f"unknown scheme {scheme!r}")
    if not np.all(np.isfinite(y_new.view(np.float64))):
        raise BlowupError(t + dt)
    y_new, _ = evaluator.project(y_new)
    return evaluator.unpack(y_new)


def _dopri_step(rhs, t, y, dt, k1):
    """One embedded 5(4) attempt: (5th-order y, FSAL stage, error vector, stages)."""
    k = [k1]
    for i in range(1, 6):
        acc = _A[i][0] * k[0]
        for j in range(1, i):
            aij = _A[i][j]
            if aij != 0.0:
                acc = acc + aij * k[j]
        k.append(rhs(t + _C[i] * dt, y + dt * acc))
    a6 = _A[6]
    y5 = y + dt * (a6[0] * k[0] + a6[2] * k[2] + a6[3] * k[3] + a6[4] * k[4] + a6[5] * k[5])
    k_fsal = rhs(t + dt, y5)
    err = dt * (
        _E[0] * k[0]
        + _E[2] * k[2]
        + _E[3] * k[3]
        + _E[4] * k[4]
        + _E[5] * k[5]
        + _E[6] * k_fsal
    )
    return y5, k_fsal, err, k


def _error_norm(err, y0, y1, rel_tol, abs_tol) -> float:
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    q = np.abs(err) / scale
    return float(np.sqrt(np.mean(q * q)))


def integrate(
    evaluator,
    state0,
    config: IntegratorConfig,
    monitors: dict | None = None,
    t_eval=None,
) -> TrajectoryRecord:
    """Integrate a field evaluator from state0 to t_end with monitoring.

    Samples are taken every ``monitor_stride`` accepted steps, or exactly at
    the times in ``t_eval`` when given (step sizes are clamped to land on
    them). The run stops early with a distinct exit reason on numerical
    blowup, on leaving the admissible ball (``config.ball_threshold`` against
    the evaluator's ball norm, or a field evaluation that raises a domain,
    convergence or numerical error, whose cause goes to ``notes["error"]``),
    or on adaptive step-size underflow.
    """
    config.validate()
    monitors = monitors or {}
    rhs = evaluator.rhs
    y = evaluator.pack(state0).astype(np.complex128)
    t = 0.0
    times: list[float] = []
    states: list = []
    channels: dict[str, list[float]] = {name: [] for name in monitors}
    n_steps = 0
    n_rejected = 0
    max_defect = 0.0
    exit_reason = "completed"

    eval_times = None
    eval_idx = 0
    if t_eval is not None:
        eval_times = np.asarray(t_eval, dtype=np.float64)
        if np.any(np.diff(eval_times) <= 0) or (len(eval_times) and eval_times[0] < 0):
            raise ParameterError("t_eval must be strictly increasing and nonnegative")

    def sample(state=None):
        times.append(t)
        if config.store_states:
            states.append(state if state is not None else evaluator.unpack(y.copy()))
        if monitors:
            st = state if state is not None else evaluator.unpack(y.copy())
            for name, fn in monitors.items():
                channels[name].append(float(fn(t, st)))

    if eval_times is None or (len(eval_times) and eval_times[0] == 0.0):
        sample(state0)
        if eval_times is not None:
            eval_idx = 1

    notes: dict = {}

    def stopped_by(exc: Exception) -> str:
        notes["error"] = f"{type(exc).__name__}: {exc}"
        return "ball_exit"

    def finish(reason: str) -> TrajectoryRecord:
        return TrajectoryRecord(
            times=np.asarray(times),
            states=states,
            channels={k: np.asarray(v) for k, v in channels.items()},
            exit_reason=reason,
            exit_time=t,
            n_steps=n_steps,
            n_rejected=n_rejected,
            max_projection_defect=max_defect,
            notes=notes,
        )

    if config.t_end == 0.0:
        return finish("completed")

    dt = min(config.dt, config.t_end)
    adaptive = config.scheme == "rk45_adaptive"
    try:
        k1 = rhs(t, y)
    except (DomainError, ConvergenceError, NumericalError) as exc:
        return finish(stopped_by(exc))
    err_prev = 1e-4
    since_sample = 0

    while t < config.t_end - 1e-14 * max(1.0, config.t_end):
        if config.max_steps is not None and n_steps >= config.max_steps:
            exit_reason = "max_steps"
            break
        target = config.t_end
        if eval_times is not None and eval_idx < len(eval_times):
            target = min(target, float(eval_times[eval_idx]))
        gap = target - t
        if gap <= 1e-13 * max(1.0, abs(target)):
            # already at the target up to rounding: snap and sample
            t = target
            if eval_times is not None and eval_idx < len(eval_times) and target == float(
                eval_times[eval_idx]
            ):
                sample()
                eval_idx += 1
                since_sample = 0
            continue
        dt_try = min(dt, gap)
        if adaptive and dt < config.dt_min:
            exit_reason = "dt_underflow"
            break
        try:
            # overflow to inf is handled explicitly below as blowup
            with np.errstate(invalid="ignore", over="ignore"):
                if adaptive:
                    y_new, k_fsal, err_vec, _ = _dopri_step(rhs, t, y, dt_try, k1)
                    err = _error_norm(err_vec, y, y_new, config.rel_tol, config.abs_tol)
                else:
                    y_new = _rk4_step(rhs, t, y, dt_try)
                    k_fsal = None
                    err = 0.0
        except (DomainError, ConvergenceError, NumericalError) as exc:
            exit_reason = stopped_by(exc)
            break
        if not np.all(np.isfinite(y_new.view(np.float64))):
            exit_reason = "blowup"
            break

        if adaptive and err > 1.0:
            n_rejected += 1
            dt = dt_try * max(0.2, 0.9 * err ** -0.2)
            continue

        # accept
        t = t + dt_try
        y, defect = evaluator.project(y_new)
        max_defect = max(max_defect, defect)
        if defect != 0.0 and k_fsal is not None:
            k_fsal = rhs(t, y)
        k1 = k_fsal if k_fsal is not None else rhs(t, y)
        n_steps += 1
        since_sample += 1

        if adaptive:
            err = max(err, 1e-10)
            fac = 0.9 * err ** -0.17 * err_prev ** 0.04
            dt = dt_try * min(5.0, max(0.2, fac))
            err_prev = err

        landed_eval = (
            eval_times is not None
            and eval_idx < len(eval_times)
            and abs(t - eval_times[eval_idx]) <= 1e-12 * max(1.0, abs(t))
        )
        if landed_eval:
            sample()
            eval_idx += 1
            since_sample = 0
        elif eval_times is None and since_sample >= config.monitor_stride:
            sample()
            since_sample = 0

        if config.ball_threshold is not None:
            bv = evaluator.ball_value(y)
            if bv is not None and bv > config.ball_threshold:
                exit_reason = "ball_exit"
                break

    if (eval_times is None and since_sample > 0) or (
        eval_times is not None and exit_reason != "completed"
    ):
        sample()
    return finish(exit_reason)

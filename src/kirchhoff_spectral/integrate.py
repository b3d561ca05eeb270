"""Deterministic explicit time integration with per-step invariant monitoring.

Two tableaus in ``SCHEMES``, run by one explicit Runge-Kutta step: classical
fixed-step RK4 and an adaptive Dormand-Prince 5(4) embedded pair with PI
step-size control (the 5th-order solution is propagated). The schemes are
deliberately *not* structure preserving: the workbench measures conservation
defects as diagnostics, and drift channels are only meaningful when the
integrator does not conserve them by construction.

After every accepted step the state is projected back onto its exact
structural symmetry class and the projection defect is logged (for the
states used here the right-hand sides preserve the symmetry exactly, so the
defect stays at rounding level).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError, ParameterError


class _Tableau(NamedTuple):
    """An explicit Runge-Kutta scheme whose last row is the new point.

    Row ``i`` of the strictly lower triangular ``a`` forms the input of stage
    ``i`` as ``y + dt * a[i] @ k``. The last row holds the weights ``b`` (its
    node is 1), so its input is the new state and its stage, the field there,
    is the next step's ``k[0]``. ``e`` are the error weights of an embedded
    pair (higher minus lower order); a fixed-step scheme has none.
    """

    c: tuple
    a: np.ndarray
    e: np.ndarray | None = None


def _tableau(c, rows, e=None) -> _Tableau:
    a = np.zeros((len(c), len(c)))
    for i, row in enumerate(rows, start=1):
        a[i, : len(row)] = row
    return _Tableau(tuple(c), a, None if e is None else np.asarray(e))


#: scheme name -> tableau; the keys are the only list of scheme names
SCHEMES = {
    "rk4": _tableau(
        (0.0, 0.5, 0.5, 1.0, 1.0),
        ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
    ),
    "rk45_adaptive": _tableau(
        (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
        (
            (1 / 5,),
            (3 / 40, 9 / 40),
            (44 / 45, -56 / 15, 32 / 9),
            (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
            (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
            (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
        ),
        e=(71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
    ),
}


@dataclass
class IntegratorConfig:
    scheme: str = "rk45_adaptive"  # a key of SCHEMES
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
        if self.scheme not in SCHEMES:
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

    def to_csv(self, path) -> None:
        """One row per sample; floats with 17 significant digits; LF endings."""
        names = sorted(self.channels)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(["time"] + names) + "\n")
            for i, t in enumerate(self.times):
                row = [f"{t:.17g}"] + [f"{self.channels[n][i]:.17g}" for n in names]
                fh.write(",".join(row) + "\n")


def _error_norm(err, y0, y1, rel_tol, abs_tol) -> float:
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    q = np.abs(err) / scale
    return float(np.sqrt(np.mean(q * q)))


def _rk_step(scheme: _Tableau, rhs, t, y, dt, k, rel_tol, abs_tol):
    """One attempt from ``k[0] = rhs(t, y)``: fills ``k[1:]``; returns the new
    state and its error norm (0 for a fixed-step scheme)."""
    for i in range(1, len(scheme.c)):
        y_i = y + dt * (scheme.a[i, :i] @ k[:i])
        k[i] = rhs(t + scheme.c[i] * dt, y_i)
    if scheme.e is None:
        return y_i, 0.0
    return y_i, _error_norm(dt * (scheme.e @ k), y, y_i, rel_tol, abs_tol)


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
            channels={name: np.asarray(v) for name, v in channels.items()},
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
    scheme = SCHEMES[config.scheme]
    adaptive = scheme.e is not None
    k = np.empty((len(scheme.c), y.size), dtype=np.complex128)
    try:
        k[0] = rhs(t, y)
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
                y_new, err = _rk_step(scheme, rhs, t, y, dt_try, k, config.rel_tol, config.abs_tol)
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
        # the field at the new point is the next step's first stage
        k[0] = rhs(t, y) if defect != 0.0 else k[-1]
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
